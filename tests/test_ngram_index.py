import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from contamkit import ngram_index
from contamkit.corpus_io import CorpusDocument, CorpusFormatError, DuplicateIdError
from contamkit.matcher import MatchSpan, longest_span
from contamkit.ngram_index import (
    IndexCapacityError,
    NGramIndex,
    ScanConfig,
    build_index,
    fingerprint,
    gram_fingerprints,
)

from helpers import docs_from_tokens, index_of, random_tokens


def linear_scan(token_lists, gram):
    """Reference search: positions of gram by direct comparison."""
    hits = []
    n = len(gram)
    for ref, tokens in enumerate(token_lists):
        for off in range(len(tokens) - n + 1):
            if tokens[off : off + n] == list(gram):
                hits.append((ref, off))
    return hits


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(ngram_order=0)
    with pytest.raises(ValueError):
        ScanConfig(threshold=0.0)
    with pytest.raises(ValueError):
        ScanConfig(threshold=1.2)
    assert ScanConfig().ngram_order == 8
    assert ScanConfig().threshold == 0.7


@pytest.mark.parametrize("n, bits, message", [
    (0, 64, "ngram_order must be >= 1"),
    (2**32, 64, r"ngram_order must be < 2\*\*32"),
    (8, 0, r"fingerprint_bits must be in \[1, 64\]"),
    (8, 65, r"fingerprint_bits must be in \[1, 64\]"),
])
def test_index_refuses_an_order_or_width_it_cannot_hold(n, bits, message):
    with pytest.raises(ValueError, match=message):
        NGramIndex(n, bits)


def test_nine_token_doc_has_two_postings():
    index = index_of([[1, 2, 3, 4, 5, 6, 7, 8, 9]])
    assert index.posting_count == 2
    assert list(zip(*next(index.probe([1, 2, 3, 4, 5, 6, 7, 8])))) == [(0, 0)]
    assert list(zip(*next(index.probe([2, 3, 4, 5, 6, 7, 8, 9])))) == [(0, 1)]


def test_short_doc_registered_but_unposted():
    index = index_of([[1, 2, 3, 4, 5, 6, 7]])
    assert index.posting_count == 0
    assert index.doc_count == 1
    assert list(index.starts) == [0, 7]


def test_posting_count_matches_counting_oracle():
    rng = random.Random(7)
    token_lists = [random_tokens(rng, 100, 16) for _ in range(100)]
    index = index_of(token_lists)
    expected = sum(max(0, len(t) - 8 + 1) for t in token_lists)
    assert expected == 9300
    assert index.posting_count == expected
    assert index.posting_count <= sum(len(t) for t in token_lists)  # linear, c=1


def test_absent_gram_returns_empty():
    index = index_of([[1] * 20])
    assert list(zip(*next(index.probe([2] * 8)))) == []


def test_planted_gram_found_at_exactly_its_positions():
    rng = random.Random(11)
    gram = [100 + i for i in range(8)]
    token_lists = [random_tokens(rng, 60, 16) for _ in range(5)]
    token_lists[0][10:18] = gram
    token_lists[2][0:8] = gram
    token_lists[4][52:60] = gram
    index = index_of(token_lists)
    assert list(zip(*next(index.probe(gram)))) == [(0, 10), (2, 0), (4, 52)]


def test_weakened_fingerprints_collide_but_queries_stay_exact():
    # find two distinct grams sharing an 8-bit fingerprint
    rng = random.Random(3)
    gram_a = random_tokens(rng, 8, 1000)
    fp_a = fingerprint(gram_a, bits=8)
    while True:
        gram_b = random_tokens(rng, 8, 1000)
        if gram_b != gram_a and fingerprint(gram_b, bits=8) == fp_a:
            break
    index = index_of([gram_a, gram_b], bits=8)
    # the fingerprint lookup holds both grams; the span search keeps only the equal one
    assert list(zip(*next(index.probe(gram_a)))) == [(0, 0), (1, 0)]
    assert longest_span(gram_a, index, ScanConfig()) == MatchSpan(doc_ref=0, corpus_start=0, example_start=0, length=8)
    assert longest_span(gram_b, index, ScanConfig()) == MatchSpan(doc_ref=1, corpus_start=0, example_start=0, length=8)


def test_token_at_and_doc_len():
    # a document's tokens and length are read from the shared buffer at its start
    index = index_of([[9, 8, 7]])
    assert index.doc_count == 1
    assert list(index.starts) == [0, 3]
    assert index.tokens[index.starts[0]] == 9
    assert index.tokens[index.starts[0] + 2] == 7
    assert index.tokens[index.starts[0] : index.starts[1]].tolist() == [9, 8, 7]


def test_token_at_spot_checks_against_source():
    # the stored documents, read back to back, equal the input documents
    rng = random.Random(5)
    token_lists = [random_tokens(rng, rng.randrange(0, 200), 1000) for _ in range(50)]
    index = index_of(token_lists)
    assert index.tokens.tolist() == [token for tokens in token_lists for token in tokens]
    assert [index.starts[r + 1] - index.starts[r] for r in range(index.doc_count)] == list(map(len, token_lists))


def test_duplicate_doc_id_rejected():
    docs = [CorpusDocument("same", [1] * 8), CorpusDocument("same", [2] * 8)]
    with pytest.raises(DuplicateIdError, match="^duplicate doc_id 'same'$"):
        build_index(docs, ScanConfig())


def _kept_bytes(make):
    """``(object, bytes still allocated after make() returned it)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_index_keeps_no_set_of_its_doc_ids(tmp_path):
    # one token per doc and no postings: a doc costs a list slot, a start offset and a token,
    # about 20 B; a set of the ids kept to refuse a repeat would add over 50 B more
    count = 20_000
    docs = [CorpusDocument(f"doc{i}", [i % 7]) for i in range(count)]
    built, kept = _kept_bytes(lambda: build_index(docs, ScanConfig()))
    assert kept < 32 * count, f"a built index of {count} docs keeps {kept} bytes"
    built.save(tmp_path / "i.ctkx")
    del built
    loaded, kept = _kept_bytes(lambda: NGramIndex.load(tmp_path / "i.ctkx"))
    ids = sum(sys.getsizeof(loaded.doc_id(ref)) for ref in range(count))  # a loaded index owns its id strings
    assert kept - ids < 32 * count, f"a loaded index of {count} docs keeps {kept - ids} bytes beyond its ids"


def test_offsets_beyond_32_bits_are_a_capacity_error():
    # 2**32 + 1 postings need offset 2**32; the build refuses the doc before reading its tokens
    with pytest.raises(IndexCapacityError, match="'huge'"):
        build_index([CorpusDocument("huge", range(2**32 + 8))], ScanConfig())


class _Tokens:
    """A document of 2**32 tokens that are never read: only its length is asked for."""

    def __len__(self):
        return 2**32

    def __getitem__(self, key):  # also what iterating it calls
        raise AssertionError("the build read a token of a document it must refuse")


@pytest.mark.parametrize("n", [1, 2, 8])
def test_a_document_longer_than_a_u32_length_is_a_capacity_error(n):
    # its length cannot be written in the file, whatever the n-gram order
    with pytest.raises(IndexCapacityError, match=r"^doc 'huge': its doc ref or length exceeds 32 bits$"):
        build_index([CorpusDocument("huge", _Tokens())], ScanConfig(n))


@pytest.mark.parametrize("token", [-1, 2**32])
def test_token_id_outside_32_bits_is_a_capacity_error(token):
    # the readers refuse such an id first; this guards documents built in memory
    with pytest.raises(IndexCapacityError, match=r"^doc 'wide': token ids must be integers in \[0, 2\*\*32\)$"):
        build_index([CorpusDocument("wide", [1, 2, token, 3] * 4)], ScanConfig())


@pytest.mark.parametrize("bits", [64, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_probe_entry_j_is_the_candidates_of_the_gram_at_j(bits, data):
    # 4-bit fingerprints put postings of other grams in most entries; -1 and
    # 2**40 are tokens no index holds, fingerprinted all the same
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    tokens = st.integers(min_value=0, max_value=3) | st.sampled_from([-1, 2**40])
    token_lists = data.draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=20), min_size=1, max_size=5),
        label="corpus",
    )
    index = index_of(token_lists, n=n, bits=bits)
    field = data.draw(st.lists(tokens, max_size=20), label="field")
    grams = [field[j : j + n] for j in range(len(field) - n + 1)]
    assert list(gram_fingerprints(field, n, bits)) == [fingerprint(gram, bits) for gram in grams]
    entries = list(index.probe(field))
    assert entries == [next(index.probe(gram)) for gram in grams]
    if bits == 64:  # no collisions among grams this small: each entry is exactly the gram's postings
        assert [list(zip(refs, offsets)) for refs, offsets in entries] == [linear_scan(token_lists, g) for g in grams]


def test_gram_fingerprints_rolls_lazily():
    # as a list, a million fingerprints would take about 44 MB; the first one takes only the roll's state
    tokens = array("I", range(1 << 20))
    tracemalloc.start()
    try:
        first = next(iter(gram_fingerprints(tokens, 8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == fingerprint(range(8))
    assert peak < 1 << 20, f"the first fingerprint took {peak} bytes"


# -- persistence and determinism ---------------------------------------------


def test_save_is_deterministic_and_load_round_trips(tmp_path):
    rng = random.Random(9)
    token_lists = [random_tokens(rng, rng.randrange(0, 40), 8) for _ in range(30)]
    a, b = tmp_path / "a.ctkx", tmp_path / "b.ctkx"
    index_of(token_lists).save(a)
    index_of(token_lists).save(b)
    assert a.read_bytes() == b.read_bytes()

    loaded = NGramIndex.load(a)
    original = index_of(token_lists)
    assert loaded.ngram_order == original.ngram_order
    assert loaded.doc_count == original.doc_count
    assert loaded.posting_count == original.posting_count
    for name in ("tokens", "starts", "_fps", "_refs", "_offsets"):
        assert getattr(loaded, name) == getattr(original, name), name
    loaded.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_save_and_load_round_trip_on_a_swapping_host(tmp_path, monkeypatch):
    # every index section goes through write_array and read_array, which swap
    # each item on a host whose native order is not the file's
    from contamkit import corpus_io

    rng = random.Random(10)
    original = index_of([random_tokens(rng, rng.randrange(0, 40), 8) for _ in range(30)])
    monkeypatch.setattr(corpus_io, "_SWAP", True)
    original.save(tmp_path / "i.ctkx")
    loaded = NGramIndex.load(tmp_path / "i.ctkx")
    for name in ("tokens", "starts", "_fps", "_refs", "_offsets"):
        assert getattr(loaded, name) == getattr(original, name), name
    assert [loaded.doc_id(r) for r in range(loaded.doc_count)] == [original.doc_id(r) for r in range(original.doc_count)]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.ctkx"
    path.write_bytes(b"WRNG" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        NGramIndex.load(path)


def test_every_strict_prefix_of_an_index_file_is_rejected(tmp_path):
    rng = random.Random(13)
    path = tmp_path / "full.ctkx"
    index_of([random_tokens(rng, 12, 50) for _ in range(3)] + [[], [1, 2]]).save(path)
    data = path.read_bytes()
    short = tmp_path / "short.ctkx"
    for size in range(len(data)):
        short.write_bytes(data[:size])
        with pytest.raises(CorpusFormatError, match="short.ctkx"):
            NGramIndex.load(short)
    assert NGramIndex.load(path).posting_count == 3 * 5


def _lengths_at(data) -> int:
    """Where the document lengths of an index file start: after the 32-byte header and 16 bytes per posting."""
    return ngram_index._HEADER.size + 16 * ngram_index._HEADER.unpack_from(data)[4]


def test_doc_table_length_past_the_end_of_file_is_truncation(tmp_path):
    # a damaged document or id length is refused before the tokens are read, however large it claims to be
    path = tmp_path / "full.ctkx"
    index_of([[1] * 20]).save(path)  # doc id "d0"
    data = path.read_bytes()
    lengths = _lengths_at(data)
    assert data[lengths : lengths + 8] == bytes([20, 0, 0, 0, 2, 0, 0, 0])  # 20 tokens, a 2-byte id
    for offset, grown in ((lengths, 4 * 0xFF000000), (lengths + 4, 0xFF000000)):
        damaged = bytearray(data)
        damaged[offset + 3] = 0xFF
        bad = tmp_path / "bad.ctkx"
        bad.write_bytes(bytes(damaged))
        size = len(data) + grown
        with pytest.raises(CorpusFormatError,
                           match=f"bad.ctkx: file size differs from the {size} bytes its header and lengths describe$"):
            NGramIndex.load(bad)


@pytest.mark.parametrize("field", ["posting count", "doc count", "document length", "id length"])
def test_a_damaged_count_or_length_allocates_nothing(tmp_path, field):
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20, [2] * 30]).save(path)
    data = bytearray(path.read_bytes())
    lengths = _lengths_at(data)
    at, width = {"posting count": (16, 8), "doc count": (24, 8),
                 "document length": (lengths + 4, 4), "id length": (lengths + 8 + 4, 4)}[field]
    data[at : at + width] = b"\xff" * width
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(CorpusFormatError, match=r"x\.ctkx: file size "):
            NGramIndex.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"a damaged {field} allocated {peak} bytes"


def test_load_rejects_other_format_versions(tmp_path):
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    for version in (1, 2, 4):
        _with_header(path, version=lambda v: version)
        with pytest.raises(CorpusFormatError, match=r"x.ctkx: not a version 3 index; rebuild the index$"):
            NGramIndex.load(path)


def _with_header(path, **changes):
    """Apply ``changes`` (field name -> function of the old value) to the header of the index file at ``path``."""
    data = bytearray(path.read_bytes())
    names = ("magic", "version", "n", "bits", "posting_count", "doc_count")
    header = dict(zip(names, ngram_index._HEADER.unpack_from(data)))
    header.update((name, change(header[name])) for name, change in changes.items())
    ngram_index._HEADER.pack_into(data, 0, *header.values())
    path.write_bytes(data)


def test_load_names_the_file_of_a_header_with_n_zero(tmp_path):
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    _with_header(path, n=lambda n: 0)
    with pytest.raises(CorpusFormatError, match=r"x.ctkx: ngram_order must be >= 1$"):
        NGramIndex.load(path)


def test_load_refuses_a_doc_table_size_that_differs_from_the_header(tmp_path):
    # the header and the lengths describe the file exactly: one token more in
    # a document length, or 4 bytes more at the end of the file, is refused
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    data = path.read_bytes()
    longer = bytearray(data)
    longer[_lengths_at(data)] += 1
    for damaged, size in ((longer, len(data) + 4), (data + bytes(4), len(data))):
        path.write_bytes(damaged)
        with pytest.raises(CorpusFormatError,
                           match=f"x.ctkx: file size differs from the {size} bytes its header and lengths describe$"):
            NGramIndex.load(path)


# sha256 of the version 3 .ctkx file of _golden_corpus() for each (n,
# fingerprint_bits). Each file loads to the same arrays and ids as the version 2
# file of the same corpus, whose digests were recorded from a build that sorted
# every posting at once; so the bucketed build writes the global posting order,
# also when fewer than six fingerprint bits leave fewer bucket bits (bits 5 and 1)
INDEX_DIGESTS = {
    (1, 64): "1bcaaa4052ffc1c48e13e4fe90f6e3b08b16a0912331c8adfcbd7ae90b164574",
    (1, 8): "38e4ff63003bd928ae9516c5201aa942451ea6ffb7d2f155bf41a25e6789a3c7",
    (1, 5): "cba684c15bd90fcd6b7bf2b8d558eda17fa95c69f05183399941173ac5956475",
    (1, 1): "089c8c33d6790a173a6237cd3c40779a308bac40a26f377338cec177413b5a22",
    (3, 64): "573080e9cbc9c4150c2b78e4bd0f68c9b08b46dbd5a9e311a784720adda394dd",
    (3, 8): "858e7e903711ebd405dc9dea657ae354819310cecaa34b5bffe28fef799e3b28",
    (3, 5): "b52f21311a277da3e0e4ede1a09c7842fd15285d1d5909e5e9506b668fca7d6d",
    (3, 1): "24387f47669197d741a6fc106e26f1cf90bf27047f77d8060d2f65cd07508c16",
    (8, 64): "85bad4b39191dae69712336970c34306d5343aa339e9b184eeeadc54bc947523",
    (8, 8): "6712248967e155a5b0023426b98c7d7ae80b006f24307904c447a258d715525a",
    (8, 5): "6f3becef9d707fd7478185fcd1f613455ac85fe4b24d89a517219c6c614f0520",
    (8, 1): "7577e87975ae03389bebe49be3aaf42d0efdde666abb5161df7b0ff0ce2182f5",
}


def _golden_corpus():
    """Empty and shorter-than-n documents, and grams that repeat within and across documents."""
    rng = random.Random(41)
    token_lists = [[], [7], [7, 7], [3, 1, 4, 1, 5, 9, 2]]
    token_lists += [random_tokens(rng, rng.randrange(0, 60), 5) for _ in range(40)]
    token_lists += [[2**32 - 1, 0] * 10, list(range(30)) * 2, []]
    return docs_from_tokens(token_lists)


def _digest(index, path):
    index.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_index_files_match_recorded_digests(tmp_path):
    docs = _golden_corpus()
    path = tmp_path / "i.ctkx"
    digests = {
        (n, bits): _digest(build_index(docs, ScanConfig(n), bits), path)
        for n, bits in itertools.product((1, 3, 8), (64, 8, 5, 1))
    }
    assert digests == INDEX_DIGESTS
