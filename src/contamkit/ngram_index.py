"""Exact n-gram location index over tokenized corpora.

Every position ``p`` of every document with ``len >= n`` contributes exactly
one posting, keyed by the polynomial fingerprint of the n-gram starting at
``p``, cut to ``min(bits, 32)`` bits:

    h(g) = sum_i g[i] * BASE^(n-1-i)  mod 2^64,  BASE = 0x100000001B3

One function computes these keys, for :func:`build_index` and for
:meth:`NGramIndex.probe` (the lookup of every gram of a field, and the
index's one lookup) alike: :func:`_key_blocks`, a block of grams at a time.
Gram j of a block is 64-bit lane j of one Python int, and about
``2 * log2(n)`` big-int steps over all the lanes give every key of the block.
Fingerprints can collide, so a probe entry is only the fingerprint lookup,
and the matcher's span search verifies each candidate location token by
token against the stored documents — results are exact regardless of
fingerprint width. A weakened ``fingerprint_bits`` (e.g. 8) makes collisions
frequent on purpose, which is useful for exercising the verification path.

An index is a handful of flat arrays: every document's tokens concatenated
into one ``array("I")`` with ``array("Q")`` start offsets, every document's
id as UTF-8 bytes concatenated into one ``array("B")`` with ``array("Q")``
end offsets (as the file stores them; :meth:`NGramIndex.doc_id` decodes one
when asked), and one posting per n-gram as two parallel ``array("I")``: the
gram's key and its global position in the token array. The key is the
gram's fingerprint cut to 32 bits, that is its fingerprint at
``min(bits, 32)`` bits. It keeps the low bits, not the top ones: a
one-token gram's fingerprint is the token itself, so its top 32 bits are
always 0, and at every order the last token of a gram barely reaches them.
A 32-bit key leaves about postings ÷ 2**32 false candidates per lookup,
which the matcher's token comparison rejects. Postings are sorted by (key,
position), and the position rises with (document, offset), so building
twice from the same corpus yields identical arrays and identical files. A
built index is immutable and safe to share across threads.

:func:`build_index` keeps memory flat too. While it reads the corpus it
computes each document's postings, packed as one integer
``key << 32 | position``, 4,096 grams at a time, and appends each to one of
``2**min(6, bits)`` ``array("Q")`` buckets chosen by the top bits of its
key. It then sorts the buckets one at a time, in ascending order, and
splits each into the two index arrays, which gives the global order
exactly. A bucket of more than ``2**16`` postings is split again by its
key range before it is sorted, so no sort holds more ints than that; at
n <= 2 the top key bits are 0 for vocabularies below about 150k tokens,
and the first bucket holds every posting. ``contamkit index`` builds 1M
postings peaking at about 29 B per posting above the interpreter.

File layout (version 4, little-endian): a 32-byte header — magic ``CTKX``,
u32 version, u32 ngram order, u32 fingerprint bits, u64 posting count, u64
doc count — then the index's arrays whole, in this order: u32 keys, u32
positions, u32 document lengths, u32 id byte lengths, u32 tokens, and last
the UTF-8 doc ids back to back. So every numeric section starts at a
multiple of its item size, and the file is written front to back. One
index holds at most ``2**32 - 1`` tokens, so that every position fits its
u32. The header bounds the file size and the two length arrays fix it, so
a damaged count or length is refused before the tokens are read, and a
file that is not regular (a pipe), which has no size, is refused. A
position at or past the token count is refused at load, so no posting can
point outside the documents. Versions 1 to 3 are refused; rebuild them.
"""

import os
import stat
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, pairwise
from operator import sub
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .conditions import CapacityError
from .corpus_io import (
    CorpusDocument, CorpusFormatError, array_to_int, int_to_array, is_text, output_file, read_array, write_array,
)

FINGERPRINT_BASE = 0x100000001B3
_INDEX_MAGIC = b"CTKX"
_INDEX_VERSION = 4
_HEADER = Struct("<4sIIIQQ")
_POSTING_BYTES = 8  # u32 key + u32 position
_DOC_BYTES = 8  # u32 document length + u32 id byte length
_MAX_U32 = (1 << 32) - 1
_KEY_BITS = 32  # a posting's key is its gram's fingerprint cut to this many bits
_BUCKET_BITS = 6  # the build sorts 2**6 buckets of postings one at a time
_SPLIT_POSTINGS = 1 << 16  # a bucket of more postings is split again by its key range before it is sorted
_GRAM_BLOCK = 4096  # the keys of this many grams are computed at once
# which native u32 word of a u64 holds its top 32 bits
_HIGH_WORD = array("I", array("Q", [1 << 32]).tobytes()).index(1)


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


class NGramIndex:
    """Fingerprint-sorted postings from every corpus n-gram to its positions.

    Document ``r`` is ``tokens[starts[r]:starts[r + 1]]``, so position ``p``
    lies in document ``bisect_right(starts, p) - 1``; treat both arrays as
    read-only. Its id is held the same way, as the file stores it: the UTF-8
    bytes ``_ids[_id_ends[r]:_id_ends[r + 1]]``.
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
        self.tokens = array("I")
        self.starts = array("Q", [0])
        self._ids = array("B")
        self._id_ends = array("Q", [0])
        self._keys = array("I")
        self._positions = array("I")

    # -- queries -----------------------------------------------------------

    def probe(self, field: Sequence[int]) -> Iterator[array]:
        """The fingerprint candidates of every n-gram of ``field``, in offset order.

        Entry ``j`` is the global position of every posting whose key
        equals that of ``field[j:j + n]``: an ``array("I")`` slice,
        ascending. The keys come from :func:`_key_blocks`, as the build's
        do. They are NOT verified: under a key collision they hold postings
        of other n-grams too, so a caller must compare tokens before
        trusting a candidate. Lazy per block of grams, so memory follows the
        block, not the field, and a caller that stops early neither keys
        nor looks up the blocks it did not reach. A token id outside
        ``[0, 2**32)``, which no index can hold, raises ``ValueError``; an
        ``array("I")`` field is read in place, not copied.
        """
        if not (isinstance(field, array) and field.typecode == "I"):
            try:
                field = array("I", field)
            except OverflowError:
                raise ValueError("field token ids must be integers in [0, 2**32)") from None
        keys, positions = self._keys, self._positions
        size = len(keys)
        for _, count, block in _key_blocks(field, 0, self.ngram_order, min(self.fingerprint_bits, _KEY_BITS)):
            for key in int_to_array(block, "Q", count):
                lo = bisect_left(keys, key)
                hi = bisect_right(keys, key, lo) if lo < size and keys[lo] == key else lo  # most grams have no posting
                yield positions[lo:hi]

    def doc_id(self, doc_ref: int) -> str:
        """Document ``doc_ref``'s id, decoded from its UTF-8 bytes; ``IndexError`` outside ``[0, doc_count)``."""
        if not 0 <= doc_ref < self.doc_count:
            raise IndexError(f"doc_ref {doc_ref} is not in [0, {self.doc_count})")
        return str(self._ids[self._id_ends[doc_ref] : self._id_ends[doc_ref + 1]], "utf-8")

    @property
    def doc_count(self) -> int:
        return len(self.starts) - 1

    @property
    def posting_count(self) -> int:
        return len(self._positions)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Write the index to a single file, bit-exact across platforms, one section after another.

        The index holds its doc ids as the file stores them, UTF-8 bytes back
        to back, so every section is an array written whole; only the two
        length sections are computed, each from its array of ends.
        """
        lengths, id_lengths = (
            array("I", map(sub, islice(ends, 1, None), ends)) for ends in (self.starts, self._id_ends)
        )
        with output_file(path, "wb") as f:
            f.write(_HEADER.pack(
                _INDEX_MAGIC, _INDEX_VERSION, self.ngram_order, self.fingerprint_bits, self.posting_count, self.doc_count
            ))
            for values in (self._keys, self._positions, lengths, id_lengths, self.tokens, self._ids):
                write_array(f, values)

    @classmethod
    def load(cls, path) -> "NGramIndex":
        """Read an index written by :meth:`save`; raises :class:`CorpusFormatError` on any other file.

        The doc ids are kept as the section that stores them; each is decoded
        once here, only to refuse one that is not UTF-8 or that repeats.
        """
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
            index._keys = read_array(f, "I", posting_count, path, "keys")
            index._positions = read_array(f, "I", posting_count, path, "positions")
            lengths = read_array(f, "I", doc_count, path, "document lengths")
            id_lengths = read_array(f, "I", doc_count, path, "id lengths")
            token_count, id_bytes = sum(lengths), sum(id_lengths)
            size += 4 * token_count + id_bytes
            if size != file_size:
                raise CorpusFormatError(f"{path}: file size differs from the {size} bytes its header and lengths describe")
            if posting_count and max(index._positions) >= token_count:
                raise CorpusFormatError(f"{path}: a posting points outside the indexed documents; rebuild the index")
            index.tokens = read_array(f, "I", token_count, path, "tokens")
            index.starts = array("Q", accumulate(lengths, initial=0))
            index._ids = read_array(f, "B", id_bytes, path, "doc ids")
        index._id_ends = array("Q", accumulate(id_lengths, initial=0))
        seen = set()  # only to refuse a repeated doc id; the index does not keep it
        with memoryview(index._ids) as ids:
            for ref, (start, end) in enumerate(pairwise(index._id_ends)):
                try:
                    doc_id = str(ids[start:end], "utf-8")
                except UnicodeDecodeError as e:
                    raise CorpusFormatError(f"{path}: doc #{ref} id is not UTF-8") from e
                if doc_id in seen:
                    raise CorpusFormatError(f"{path}: doc #{ref}: duplicate doc_id {doc_id!r}")
                seen.add(doc_id)
        return index


def build_index(corpus: Iterable[CorpusDocument], config: ScanConfig, fingerprint_bits: int = 64) -> NGramIndex:
    """Index a document stream; deterministic for a given corpus order.

    Documents shorter than the n-gram order contribute no postings but stay
    in the doc table. Each doc id is kept as its UTF-8 bytes, appended to
    the index's id section. A doc id that repeats or is not text UTF-8 can
    encode (no reader yields one) raises :class:`CorpusFormatError`; a
    document that would take the index past ``2**32 - 1`` tokens raises
    :class:`CapacityError` before its tokens are read. A posting's key is
    its gram's fingerprint at ``min(fingerprint_bits, 32)`` bits, so a
    ``fingerprint_bits`` above 32 no longer narrows the candidates, and a
    narrower one (down to 1) makes collisions more frequent. Postings are
    gathered into flat buckets by the top bits of their key, each packed as
    one integer, and each bucket is sorted on its own; a bucket of more than
    ``2**16`` postings is first split again by the key range it holds. So the
    build never holds a Python object per posting of the whole corpus, at
    any n: at n >= 3, where the keys spread over the buckets, it peaks at
    about 14 B per posting (``tracemalloc``, 1M postings), 12 B of them kept;
    at n = 1, where every key lands in one bucket, at about 21 B (1,000 x 100
    tokens, vocabulary 32,000). A document's postings are computed at most
    ``_GRAM_BLOCK`` grams at a time (:func:`_key_blocks`), so one 200k-token
    document peaks as short ones do; 148k postings (300 x 500 tokens, n = 8)
    build in about 68 ms in process (2 vCPUs, CPython 3.11).
    """
    index = NGramIndex(config.ngram_order, fingerprint_bits)
    n = index.ngram_order
    key_bits = min(fingerprint_bits, _KEY_BITS)
    bucket_bits = min(_BUCKET_BITS, key_bits)
    shift = 32 + key_bits - bucket_bits  # a packed posting's bucket is its top key bits
    ramp = array_to_int(array("Q", range(_GRAM_BLOCK)))  # j in lane j
    # bucket b holds the postings whose key starts with the bits of b, each
    # packed as key << 32 | position, in position order
    buckets = [array("Q") for _ in range(1 << bucket_bits)]
    add = [bucket.append for bucket in buckets]
    seen = set()  # only to refuse a repeated doc id; the index does not keep it
    for doc in corpus:
        if not is_text(doc.doc_id):
            raise CorpusFormatError(f"doc {doc.doc_id!r}: doc_id must be a string UTF-8 can encode")
        if doc.doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        index._ids.frombytes(doc.doc_id.encode("utf-8"))
        index._id_ends.append(len(index._ids))
        tokens = doc.tokens
        start = len(index.tokens)
        if start + len(tokens) > _MAX_U32:  # every position, and so every length, fits a u32
            raise CapacityError(f"doc {doc.doc_id!r}: the index would hold more than 2**32 - 1 tokens")
        try:
            index.tokens.extend(array("I", tokens))
        except OverflowError:
            raise CapacityError(f"doc {doc.doc_id!r}: token ids must be integers in [0, 2**32)") from None
        index.starts.append(len(index.tokens))
        for first, count, keys in _key_blocks(index.tokens, start, n, key_bits):
            # lane j of ramp >> drop is j + _GRAM_BLOCK - count; the sum moves it to first + j
            drop = 64 * (_GRAM_BLOCK - count)
            ones = array_to_int(array("Q", [1]) * count)
            packed = (keys << 32 | ramp >> drop) + (first - _GRAM_BLOCK + count) * ones
            for posting in int_to_array(packed, "Q", count):
                add[posting >> shift](posting)
    del add, seen  # the appenders hold the buckets too
    # buckets in ascending order, each sorted, are the global (key, position) order
    for b, bucket in enumerate(buckets):
        buckets[b] = None  # each bucket is freed once it has been copied out
        for run in _sorted_runs(bucket):
            words = array("I")  # each packed posting as its two native u32 words
            words.frombytes(run.tobytes())
            index._keys.extend(words[_HIGH_WORD::2])
            index._positions.extend(words[1 - _HIGH_WORD :: 2])
    return index


def _gram_steps(n: int, key_bits: int) -> list[tuple[bool, int, int]]:
    """How the keys of a block's n-grams follow from its tokens, as ``(doubles, shift, factor)`` steps.

    Mod ``2**key_bits``, the key of the width-w gram at offset p is
    h of ``tokens[p:p + w]``. Reading the bits of n after its top
    one, each bit doubles the width as ``key(p) * BASE**w + key(p + w)``,
    and a set bit then adds one token as ``key(p) * BASE + token(p + w)``:
    so ``n`` takes about ``2 * log2(n)`` steps, not ``n - 1``. ``shift`` is
    ``64 * w``, the lanes to move, and ``factor`` is below ``2**key_bits``,
    so ``key * factor`` plus a key or token stays below ``2**64`` in its lane.
    """
    modulus, width, steps = 1 << key_bits, 1, []
    for bit in bin(n)[3:]:
        steps.append((True, 64 * width, pow(FINGERPRINT_BASE, width, modulus)))
        width *= 2
        if bit == "1":
            steps.append((False, 64 * width, FINGERPRINT_BASE % modulus))
            width += 1
    return steps


def _key_blocks(tokens: array, start: int, n: int, key_bits: int) -> Iterator[tuple[int, int, int]]:
    """The key of every n-gram of ``tokens[start:]``, ``_GRAM_BLOCK`` grams at a time, in position order.

    Yields ``(first, count, keys)`` per block: for j below ``count``, 64-bit
    lane j of the int ``keys`` holds h of the gram at ``first + j``, cut to
    ``key_bits`` (at most 32). Each of the :func:`_gram_steps` is a few
    big-int operations over the whole block. ``tokens`` is an ``array("I")``;
    a block reads only its grams' tokens, ``n - 1`` more than it has grams,
    so memory follows the block, not ``tokens``.
    """
    steps = _gram_steps(n, key_bits)
    lane_mask = array("Q", [(1 << key_bits) - 1])
    end = len(tokens) - n + 1  # past the last gram
    for first in range(start, end, _GRAM_BLOCK):
        count = min(_GRAM_BLOCK, end - first)
        width = count + n - 1  # the tokens the block reads, one per lane
        words = array("I", bytes(8 * width))
        words[::2] = tokens[first : first + width]  # the low word of each lane
        window = array_to_int(words)
        mask = array_to_int(lane_mask * width)
        keys = window & mask
        for doubles, shift, factor in steps:
            keys = (keys * factor + ((keys if doubles else window) >> shift)) & mask
        yield first, count, keys & mask >> 64 * (n - 1)  # the block's grams; the last n - 1 lanes ran past its tokens


def _sorted_runs(bucket: array) -> Iterator[array]:
    """The packed postings of ``bucket``, appended in position order, as consecutive sorted runs.

    A bucket of more than ``_SPLIT_POSTINGS`` postings is split by the key
    range it holds into at most 65 parts and emptied, and each part is taken
    the same way, so ``sorted()`` never holds more ints than that; a part of
    one key is in position order, so sorted already. Copy each run out
    before asking for the next.
    """
    if len(bucket) <= _SPLIT_POSTINGS:
        yield array("Q", sorted(bucket))
        return
    low, high = min(bucket) >> 32, max(bucket) >> 32
    if low == high:
        yield bucket
        return
    parts = [array("Q") for _ in range(65)]
    add = [part.append for part in parts]
    span = high - low
    for packed in bucket:
        add[((packed >> 32) - low) * 64 // span](packed)
    del bucket[:]
    for part in parts:
        yield from _sorted_runs(part)
        del part[:]
