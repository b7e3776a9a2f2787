"""Exact n-gram location index over tokenized corpora.

Every position ``p`` of every document with ``len >= n`` contributes exactly
one posting, keyed by a 64-bit rolling polynomial fingerprint of the n-gram
starting at ``p``:

    h(g) = sum_i g[i] * BASE^(n-1-i)  mod 2^64,  BASE = 0x100000001B3

:func:`gram_fingerprints` rolls that fingerprint along a token sequence, one
step per gram; :func:`build_index` and :meth:`NGramIndex.probe` (the lookup
of every gram of a field, and the index's one lookup) both use it.
Fingerprints can collide, so a probe entry is only the fingerprint lookup,
and the matcher's span search verifies each candidate location token by
token against the stored documents — results are exact regardless of
fingerprint width. A weakened ``fingerprint_bits`` (e.g. 8) makes collisions
frequent on purpose, which is useful for exercising the verification path.

An index is a handful of flat arrays: every document's tokens concatenated
into one ``array("I")`` with ``array("Q")`` start offsets, and one posting per
n-gram as parallel arrays — the fingerprints sorted ascending (``array("Q")``)
beside the doc ref and token offset of each (``array("I")``). Postings with
equal fingerprints stay in document order then offset order, so building
twice from the same corpus yields identical arrays and identical files. A
built index is immutable and safe to share across threads.

:func:`build_index` keeps memory flat too. While it reads the corpus it
appends each posting to one of ``2**min(6, bits)`` buckets chosen by the top
bits of its fingerprint, as parallel arrays. It then sorts the buckets one at
a time, in ascending order, and appends each to the index arrays, which gives
the global order exactly. Building 1M postings peaks at about 46 B per
posting above the interpreter.

File layout (version 3, little-endian): a 32-byte header — magic ``CTKX``,
u32 version, u32 ngram order, u32 fingerprint bits, u64 posting count, u64
doc count — then the index's arrays whole, in this order: u64 fingerprints,
u32 doc refs, u32 offsets, u32 document lengths, u32 id byte lengths, u32
tokens, and last the UTF-8 doc ids back to back. So every numeric section
starts at a multiple of its item size, and the file is written front to
back. The header bounds the file size and the two length arrays fix it, so
a damaged count or length is refused before the tokens are read, and a file
that is not regular (a pipe), which has no size, is refused. Versions 1 and
2 are refused; rebuild them.
"""

import os
import stat
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, pairwise
from operator import sub
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .conditions import CapacityError
from .corpus_io import CorpusDocument, CorpusFormatError, is_text, output_file, read_array, write_array

FINGERPRINT_BASE = 0x100000001B3
_MASK64 = (1 << 64) - 1
_INDEX_MAGIC = b"CTKX"
_INDEX_VERSION = 3
_HEADER = Struct("<4sIIIQQ")
_POSTING_BYTES = 16  # u64 fingerprint + u32 doc ref + u32 offset
_DOC_BYTES = 8  # u32 document length + u32 id byte length
_MAX_U32 = (1 << 32) - 1
_BUCKET_BITS = 6  # the build sorts 2**6 buckets of postings one at a time


@dataclass(frozen=True)
class ScanConfig:
    """Overlap-scan parameters: seed n-gram order and contamination threshold."""

    ngram_order: int = 8
    threshold: float = 0.7

    def __post_init__(self):
        if self.ngram_order < 1:
            raise ValueError("ngram_order must be >= 1")
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")


def fingerprint(tokens: Sequence[int], bits: int = 64) -> int:
    """Polynomial fingerprint of a token sequence, truncated to ``bits``."""
    h = 0
    for t in tokens:
        h = (h * FINGERPRINT_BASE + t) & _MASK64
    if bits < 64:
        h &= (1 << bits) - 1
    return h


def gram_fingerprints(tokens: Sequence[int], n: int, bits: int = 64) -> Iterator[int]:
    """The fingerprint of every n-gram of ``tokens``, in offset order.

    One rolling pass: each fingerprint is the one before with the new token
    brought in and the old one dropped, which equals :func:`fingerprint` of
    the gram. Yields nothing when ``tokens`` is shorter than ``n``. Each
    fingerprint is yielded as the roll reaches it, so a pass holds only the
    roll's state, and a caller that stops early rolls no further.
    """
    mask = (1 << bits) - 1
    shift_out = pow(FINGERPRINT_BASE, n, 1 << 64)
    h = fingerprint(tokens[: n - 1], bits)  # one token short: the first roll drops nothing
    for new, old in zip(islice(tokens, n - 1, None), chain((0,), tokens)):  # bring in new, drop old
        h = (h * FINGERPRINT_BASE + new - old * shift_out) & mask
        yield h


class NGramIndex:
    """Fingerprint-sorted postings from every corpus n-gram to its locations.

    Document ``r`` is ``tokens[starts[r]:starts[r + 1]]``; treat both arrays as read-only.
    """

    def __init__(self, ngram_order: int, fingerprint_bits: int = 64):
        if ngram_order < 1:
            raise ValueError("ngram_order must be >= 1")
        if ngram_order > _MAX_U32:  # the index header holds n in a u32
            raise ValueError("ngram_order must be < 2**32")
        if not 1 <= fingerprint_bits <= 64:
            raise ValueError("fingerprint_bits must be in [1, 64]")
        self.ngram_order = ngram_order
        self.fingerprint_bits = fingerprint_bits
        self._doc_ids: list[str] = []
        self.tokens = array("I")
        self.starts = array("Q", [0])
        self._fps = array("Q")
        self._refs = array("I")
        self._offsets = array("I")

    # -- queries -----------------------------------------------------------

    def probe(self, field: Sequence[int]) -> Iterator[tuple[array, array]]:
        """The fingerprint candidates of every n-gram of ``field``, in offset order.

        Entry ``j`` is the ``(refs, offsets)`` of every posting whose
        fingerprint equals that of ``field[j:j + n]``: parallel
        ``array("I")`` slices, in document order then offset order, found
        from one rolling fingerprint over the field
        (:func:`gram_fingerprints`). They are NOT verified: under a
        fingerprint collision they hold postings of other n-grams too, so a
        caller must compare tokens before trusting a candidate. Lazy, so a
        caller that stops early neither fingerprints nor looks up the grams
        it did not reach.
        """
        fps, refs, offsets = self._fps, self._refs, self._offsets
        size = len(fps)
        for fp in gram_fingerprints(field, self.ngram_order, self.fingerprint_bits):
            lo = bisect_left(fps, fp)
            hi = bisect_right(fps, fp, lo) if lo < size and fps[lo] == fp else lo  # most grams have no posting
            yield refs[lo:hi], offsets[lo:hi]

    def doc_id(self, doc_ref: int) -> str:
        return self._doc_ids[doc_ref]

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    @property
    def posting_count(self) -> int:
        return len(self._fps)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Write the index to a single file, bit-exact across platforms, one section after another.

        Every doc id encodes as UTF-8: :func:`build_index` admits no other, and :meth:`load` decodes strictly.
        """
        ids = [doc_id.encode("utf-8") for doc_id in self._doc_ids]
        lengths = array("I", map(sub, islice(self.starts, 1, None), self.starts))
        with output_file(path, "wb") as f:
            f.write(_HEADER.pack(
                _INDEX_MAGIC, _INDEX_VERSION, self.ngram_order, self.fingerprint_bits, self.posting_count, self.doc_count
            ))
            for values in (self._fps, self._refs, self._offsets, lengths, array("I", map(len, ids)), self.tokens):
                write_array(f, values)
            f.writelines(ids)

    @classmethod
    def load(cls, path) -> "NGramIndex":
        """Read an index written by :meth:`save`; raises :class:`CorpusFormatError` on any other file."""
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise CorpusFormatError(f"{path}: not a regular file; an index is read by its size")
            header = f.read(_HEADER.size)
            if header[:4] != _INDEX_MAGIC:
                raise CorpusFormatError(f"{path}: bad magic {header[:4]!r}, expected {_INDEX_MAGIC!r}")
            if len(header) < _HEADER.size:
                raise CorpusFormatError(f"{path}: truncated while reading the header")
            _, version, n, bits, posting_count, doc_count = _HEADER.unpack(header)
            if version != _INDEX_VERSION:
                raise CorpusFormatError(f"{path}: not a version {_INDEX_VERSION} index; rebuild the index")
            file_size = st.st_size
            size = _HEADER.size + _POSTING_BYTES * posting_count + _DOC_BYTES * doc_count
            if size > file_size:
                raise CorpusFormatError(f"{path}: file size is less than the {size} bytes its header describes")
            try:
                index = cls(n, bits)
            except ValueError as e:
                raise CorpusFormatError(f"{path}: {e}") from e
            index._fps = read_array(f, "Q", posting_count, path, "fingerprints")
            index._refs = read_array(f, "I", posting_count, path, "doc refs")
            index._offsets = read_array(f, "I", posting_count, path, "offsets")
            lengths = read_array(f, "I", doc_count, path, "document lengths")
            id_lengths = read_array(f, "I", doc_count, path, "id lengths")
            token_count, id_bytes = sum(lengths), sum(id_lengths)
            size += 4 * token_count + id_bytes
            if size != file_size:
                raise CorpusFormatError(f"{path}: file size differs from the {size} bytes its header and lengths describe")
            index.tokens = read_array(f, "I", token_count, path, "tokens")
            index.starts = array("Q", accumulate(lengths, initial=0))
            ids = memoryview(read_array(f, "B", id_bytes, path, "doc ids"))
        seen = set()  # only to refuse a repeated doc id; the index does not keep it
        for ref, (start, end) in enumerate(pairwise(accumulate(id_lengths, initial=0))):
            try:
                doc_id = str(ids[start:end], "utf-8")
            except UnicodeDecodeError as e:
                raise CorpusFormatError(f"{path}: doc #{ref} id is not UTF-8") from e
            if doc_id in seen:
                raise CorpusFormatError(f"{path}: doc #{ref}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            index._doc_ids.append(doc_id)
        return index


def build_index(corpus: Iterable[CorpusDocument], config: ScanConfig, fingerprint_bits: int = 64) -> NGramIndex:
    """Index a document stream; deterministic for a given corpus order.

    Documents shorter than the n-gram order contribute no postings but stay
    in the doc table. A doc id that repeats or is not text UTF-8 can encode
    (no reader yields one) raises :class:`CorpusFormatError`. Postings are
    gathered into flat buckets by the top bits of their fingerprint and each
    bucket is sorted on its own, so the build never holds a Python object
    per posting of the whole corpus: it peaks at about 46 B per posting
    above the interpreter.
    """
    index = NGramIndex(config.ngram_order, fingerprint_bits)
    n = index.ngram_order
    bucket_bits = min(_BUCKET_BITS, fingerprint_bits)
    low_bits = fingerprint_bits - bucket_bits
    # bucket b holds the postings whose fingerprint starts with the bits of b,
    # as parallel arrays in document order then offset order
    buckets = [(array("Q"), array("I"), array("I")) for _ in range(1 << bucket_bits)]
    add_fp, add_ref, add_offset = ([bucket[i].append for bucket in buckets] for i in range(3))
    seen = set()  # only to refuse a repeated doc id; the index does not keep it
    for ref, doc in enumerate(corpus):
        if not is_text(doc.doc_id):
            raise CorpusFormatError(f"doc {doc.doc_id!r}: doc_id must be a string UTF-8 can encode")
        if doc.doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        index._doc_ids.append(doc.doc_id)
        tokens = doc.tokens
        if ref > _MAX_U32 or len(tokens) > _MAX_U32:  # the length bounds the offsets too
            raise CapacityError(f"doc {doc.doc_id!r}: its doc ref or length exceeds 32 bits")
        try:
            index.tokens.extend(array("I", tokens))
        except OverflowError:
            raise CapacityError(f"doc {doc.doc_id!r}: token ids must be integers in [0, 2**32)") from None
        index.starts.append(len(index.tokens))
        for offset, h in enumerate(gram_fingerprints(tokens, n, fingerprint_bits)):
            b = h >> low_bits
            add_fp[b](h)
            add_ref[b](ref)
            add_offset[b](offset)
    del add_fp, add_ref, add_offset, seen  # the appenders hold the buckets too
    # buckets in ascending order, each sorted stably, are the global order
    for b, (fps, refs, offsets) in enumerate(buckets):
        buckets[b] = None  # each bucket is freed once it has been copied out
        order = sorted(range(len(fps)), key=fps.__getitem__)  # stable: ties keep document then offset order
        index._fps.extend(map(fps.__getitem__, order))
        index._refs.extend(map(refs.__getitem__, order))
        index._offsets.extend(map(offsets.__getitem__, order))
    return index
