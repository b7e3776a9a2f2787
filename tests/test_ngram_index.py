import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from contamkit import ngram_index
from contamkit.conditions import CapacityError
from contamkit.corpus_io import CorpusDocument, CorpusFormatError
from contamkit.matcher import MatchSpan, longest_span
from contamkit.ngram_index import NGramIndex, ScanConfig, build_index

from helpers import docs_from_tokens, fingerprint, index_of, random_tokens


def linear_scan(token_lists, gram):
    """Reference search: (doc ref, offset) of gram by direct comparison."""
    hits = []
    n = len(gram)
    for ref, tokens in enumerate(token_lists):
        for off in range(len(tokens) - n + 1):
            if tokens[off : off + n] == list(gram):
                hits.append((ref, off))
    return hits


def positions_of(index, locations):
    """The global positions of ``(doc ref, offset)`` locations, through the index's document starts."""
    return [index.starts[ref] + off for ref, off in locations]


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
    assert next(index.probe([1, 2, 3, 4, 5, 6, 7, 8])).tolist() == positions_of(index, [(0, 0)])
    assert next(index.probe([2, 3, 4, 5, 6, 7, 8, 9])).tolist() == positions_of(index, [(0, 1)])


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
    assert next(index.probe([2] * 8)).tolist() == []


def test_planted_gram_found_at_exactly_its_positions():
    rng = random.Random(11)
    gram = [100 + i for i in range(8)]
    token_lists = [random_tokens(rng, 60, 16) for _ in range(5)]
    token_lists[0][10:18] = gram
    token_lists[2][0:8] = gram
    token_lists[4][52:60] = gram
    index = index_of(token_lists)
    assert next(index.probe(gram)).tolist() == positions_of(index, [(0, 10), (2, 0), (4, 52)])


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
    assert next(index.probe(gram_a)).tolist() == positions_of(index, [(0, 0), (1, 0)])
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
    with pytest.raises(CorpusFormatError, match="^duplicate doc_id 'same'$"):
        build_index(docs, ScanConfig())


def test_build_index_refuses_a_doc_id_utf8_cannot_encode():
    # the readers refuse such an id first; this guards documents built in memory, which save could not write
    docs = [CorpusDocument("a", [1]), CorpusDocument("x\ud800", [2])]
    with pytest.raises(CorpusFormatError, match=r"^doc 'x\\ud800': doc_id must be a string UTF-8 can encode$"):
        build_index(docs, ScanConfig(1))
    assert build_index([CorpusDocument("x\U0001f600", [2])], ScanConfig(1)).doc_id(0) == "x\U0001f600"


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
    # one token per doc and no postings: a doc costs its id bytes, an id end, a start offset
    # and a token, about 21 B beside the id bytes; a set of the ids kept to refuse a repeat
    # would add over 50 B more, and a str object per id about 50 B
    count = 20_000
    docs = [CorpusDocument(f"doc{i}", [i % 7]) for i in range(count)]
    built, kept = _kept_bytes(lambda: build_index(docs, ScanConfig()))
    assert kept < 32 * count, f"a built index of {count} docs keeps {kept} bytes"
    built.save(tmp_path / "i.ctkx")
    del built
    loaded, kept = _kept_bytes(lambda: NGramIndex.load(tmp_path / "i.ctkx"))
    ids = sum(len(doc.doc_id.encode("utf-8")) for doc in docs)
    assert kept - ids < 32 * count, f"a loaded index of {count} docs keeps {kept - ids} bytes beyond its id bytes"
    assert [loaded.doc_id(ref) for ref in range(count)] == [doc.doc_id for doc in docs]


def test_doc_id_refuses_a_ref_outside_the_documents():
    index = build_index([CorpusDocument("a", [1]), CorpusDocument("b", [2])], ScanConfig(1))
    assert [index.doc_id(0), index.doc_id(1)] == ["a", "b"]
    for ref in (-1, index.doc_count):
        with pytest.raises(IndexError):
            index.doc_id(ref)


def test_high_word_is_the_native_word_of_a_u64s_top_bits():
    assert ngram_index._HIGH_WORD == int(sys.byteorder == "little")


def test_offsets_beyond_32_bits_are_a_capacity_error():
    # 2**32 + 1 postings need position 2**32, past what a u32 position holds;
    # the build refuses the doc before reading its tokens
    with pytest.raises(CapacityError, match="'huge'"):
        build_index([CorpusDocument("huge", range(2**32 + 8))], ScanConfig())


class _Tokens:
    """A document of ``length`` tokens that are never read: only its length is asked for."""

    def __init__(self, length=2**32):
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, key):  # also what iterating it calls
        raise AssertionError("the build read a token of a document it must refuse")


_TOO_MANY_TOKENS = r"^doc 'huge': the index would hold more than 2\*\*32 - 1 tokens$"


@pytest.mark.parametrize("n", [1, 2, 8])
def test_a_document_longer_than_a_u32_length_is_a_capacity_error(n):
    # its length cannot be written in the file, whatever the n-gram order
    with pytest.raises(CapacityError, match=_TOO_MANY_TOKENS):
        build_index([CorpusDocument("huge", _Tokens())], ScanConfig(n))


def test_a_document_taking_the_index_past_2_to_the_32_tokens_is_a_capacity_error():
    # each document fits a u32 length, but together they hold 2**32 tokens, one
    # more than an index holds; the second doc's tokens are never read
    first = CorpusDocument("small", [1, 2, 3])
    with pytest.raises(CapacityError, match=_TOO_MANY_TOKENS):
        build_index([first, CorpusDocument("huge", _Tokens(2**32 - 3))], ScanConfig())


@pytest.mark.parametrize("token", [-1, 2**32])
def test_token_id_outside_32_bits_is_a_capacity_error(token):
    # the readers refuse such an id first; this guards documents built in memory
    with pytest.raises(CapacityError, match=r"^doc 'wide': token ids must be integers in \[0, 2\*\*32\)$"):
        build_index([CorpusDocument("wide", [1, 2, token, 3] * 4)], ScanConfig())


@pytest.mark.parametrize("block", [1, 3, ngram_index._GRAM_BLOCK])
@pytest.mark.parametrize("bits", [64, 32, 4, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_probe_entry_j_is_the_candidates_of_the_gram_at_j(bits, block, data):
    # entry j is every stored posting whose key is the gram's fingerprint at min(bits, 32) bits: below
    # 32 bits most entries hold postings of other grams too. Blocks of 1 and 3 grams put most of a
    # field's grams at a block's edge. -1 and 2**40 are tokens no index holds, so a field refuses them
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    tokens = st.integers(min_value=0, max_value=3) | st.sampled_from([-1, 2**40])
    token_lists = data.draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=20), min_size=1, max_size=5),
        label="corpus",
    )
    field = data.draw(st.lists(tokens, max_size=20), label="field")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngram_index, "_GRAM_BLOCK", block)
        index = index_of(token_lists, n=n, bits=bits)
        if not all(0 <= t < 2**32 for t in field):
            with pytest.raises(ValueError, match=r"^field token ids must be integers in \[0, 2\*\*32\)$"):
                list(index.probe(field))
            return
        entries = [entry.tolist() for entry in index.probe(field)]
    grams = [field[j : j + n] for j in range(len(field) - n + 1)]
    stored = list(zip(index._keys, index._positions))
    assert entries == [[p for k, p in stored if k == fingerprint(gram, min(bits, 32))] for gram in grams]
    if bits >= 32:  # no collisions among grams this small: each entry is exactly the gram's postings
        assert entries == [positions_of(index, linear_scan(token_lists, gram)) for gram in grams]


def test_probe_is_lazy_per_block():
    # the first entry keys one block of grams; a copy of the million-token field alone would take 4 MB
    field = array("I", range(1 << 20))
    index = index_of([range(8)])
    tracemalloc.start()
    try:
        first = next(index.probe(field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.tolist() == [0]
    assert peak < 1 << 20, f"the first entry took {peak} bytes"


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
    for name in ("tokens", "starts", "_keys", "_positions"):
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
    for name in ("tokens", "starts", "_keys", "_positions"):
        assert getattr(loaded, name) == getattr(original, name), name
    assert [loaded.doc_id(r) for r in range(loaded.doc_count)] == [original.doc_id(r) for r in range(original.doc_count)]


def _docs_with_ids(ids):
    return [CorpusDocument(doc_id=doc_id, tokens=[k % 5, 1, 2], category="monolingual", lang="") for k, doc_id in enumerate(ids)]


def test_save_writes_the_doc_ids_without_holding_them_all(tmp_path):
    # 50,000 ids of 30 bytes are 1.5 MB encoded; the index holds them encoded,
    # so save holds about the two u32 length sections (0.4 MB) and no copy of the ids
    ids = [f"doc-{k:026d}" for k in range(50_000)]
    index = build_index(_docs_with_ids(ids), ScanConfig(ngram_order=2))
    id_bytes = sum(map(len, ids))
    tracemalloc.start()
    try:
        index.save(tmp_path / "i.ctkx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < id_bytes // 2, f"save held {peak} bytes for {id_bytes} bytes of doc ids"
    assert NGramIndex.load(tmp_path / "i.ctkx").doc_id(49_999) == ids[-1]


def test_save_writes_each_doc_id_as_utf8(tmp_path):
    # ASCII ids and ids ending in two-, three- and four-byte characters
    ids = [f"d{k}" + "é€😀"[: k % 4] for k in range(12)]
    build_index(_docs_with_ids(ids), ScanConfig(ngram_order=2)).save(tmp_path / "i.ctkx")
    encoded = [doc_id.encode("utf-8") for doc_id in ids]
    data = (tmp_path / "i.ctkx").read_bytes()
    assert data.endswith(b"".join(encoded))
    tail = data[: -sum(map(len, encoded))]
    token_bytes = 4 * 3 * len(ids)
    assert tail[len(tail) - token_bytes - 4 * len(ids) : len(tail) - token_bytes] == b"".join(len(e).to_bytes(4, "little") for e in encoded)
    loaded = NGramIndex.load(tmp_path / "i.ctkx")
    assert [loaded.doc_id(r) for r in range(loaded.doc_count)] == ids


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
    """Where the document lengths of an index file start: after the 32-byte header and 8 bytes per posting."""
    return ngram_index._HEADER.size + 8 * ngram_index._HEADER.unpack_from(data)[4]


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
    for version in (1, 2, 3, 5):
        _with_header(path, version=lambda v: version)
        with pytest.raises(CorpusFormatError, match=r"x.ctkx: not a version 4 index; rebuild the index$"):
            NGramIndex.load(path)


def test_load_refuses_a_position_outside_the_indexed_documents(tmp_path):
    # the positions follow the 32-byte header and the u32 keys; the last token is position 19
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    data = bytearray(path.read_bytes())
    postings = ngram_index._HEADER.unpack_from(data)[4]
    last = ngram_index._HEADER.size + 4 * postings + 4 * (postings - 1)
    assert data[last : last + 4] == (20 - 8).to_bytes(4, "little")
    for position, loads in ((19, True), (20, False), (2**32 - 1, False)):
        data[last : last + 4] = position.to_bytes(4, "little")
        path.write_bytes(data)
        if loads:
            assert NGramIndex.load(path)._positions[-1] == position
        else:
            with pytest.raises(CorpusFormatError,
                               match=r"x.ctkx: a posting points outside the indexed documents; rebuild the index$"):
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


# sha256 of the version 4 .ctkx file of _golden_corpus() for each (n,
# fingerprint_bits). Each was recorded after checking that the file holds the
# postings of the version 3 file of the same corpus as (key, position): the v3
# fingerprint cut to 32 bits and starts[doc ref] + offset, sorted, with the
# lengths, tokens and ids byte for byte. The v3 digests had been checked the
# same way against version 2, recorded from a build that sorted every posting
# at once; so the bucketed build writes the global posting order, also when
# fewer than six key bits leave fewer bucket bits (bits 5 and 1).
# test_index_file_holds_each_gram_as_its_key_and_position checks the same
# postings against fingerprints computed gram by gram.
INDEX_DIGESTS = {
    (1, 64): "5d2981b6e0f5369210c5094fde03bba0e9ca43f0ee1c52a8dd4e063e88c80a5f",
    (1, 8): "789de188dab82c30c424503e0584b0197e0cecf84f46eeb1f5518b2e3bfa8e61",
    (1, 5): "f67319e444c10efa0dbc27994a08f4fe8f0b5795b6b0e06ea76a3f15f1ee4799",
    (1, 1): "aebbee9d367892dea4aa591f0f5c0be913f4b016d38c127348dc232bb944eab4",
    (3, 64): "fa91e5c05f69e0aa385b990e4a418d09b032152d80e303a2ebd5d878406cf7ba",
    (3, 8): "eab6ccaa1c2c56ff2520584c9931185cea2f483fc4609b3464c9e80f213ff1b5",
    (3, 5): "308fa32dc7ed2681d0592652fe62549cef73d083c30700213141baf2d96f1f51",
    (3, 1): "ee60de4fcd8adf57af0dfbab19f46baf318a213a2eb4267b7ccf92ac92777fb4",
    (8, 64): "abd1d658ab68633ac56891286c82ba8f01a8f0826c64187351851eaa3ee86f88",
    (8, 8): "3061d3e06feb6fe71825cf892a227af5aefa4bf69843972ba4595cb79ed78dbb",
    (8, 5): "37b281444f57bd9ea88af2e8ab25681f4e366b1d012205597568b672f8da3c4b",
    (8, 1): "e2d956b43472c9d674f4864bac52b8c583041ff8382ac31b6f7be8497cc1b1f4",
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


def test_buckets_split_by_key_range_write_the_recorded_files(tmp_path, monkeypatch):
    # every bucket of more than two postings is split again, down to parts of one key
    monkeypatch.setattr(ngram_index, "_SPLIT_POSTINGS", 2)
    test_index_files_match_recorded_digests(tmp_path)


@pytest.mark.parametrize("block", [1, 3])
def test_gram_blocks_of_one_write_the_recorded_files(tmp_path, monkeypatch, block):
    # every document's keys computed one or three grams at a time, so most grams sit at a block's edge
    monkeypatch.setattr(ngram_index, "_GRAM_BLOCK", block)
    test_index_files_match_recorded_digests(tmp_path)


def _block_crossing_docs(n):
    """Documents whose grams end just before, at and just past a block's end, or fill three blocks,
    of tokens that include 0 and 2**32 - 1."""
    rng = random.Random(n)
    block = ngram_index._GRAM_BLOCK
    lengths = [block + n - 2, block + n - 1, block + n, 3 * block + n - 1, 2 * block + n]
    return docs_from_tokens([rng.choice((0, 2**32 - 1, rng.getrandbits(32))) for _ in range(k)] for k in lengths)


def _gram_postings(docs, index, n, bits):
    """Every gram's (key, position), from :func:`fingerprint` of the gram at min(bits, 32) bits, sorted."""
    return sorted(
        (fingerprint(doc.tokens[off : off + n], min(bits, 32)), index.starts[ref] + off)
        for ref, doc in enumerate(docs)
        for off in range(len(doc.tokens) - n + 1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_postings_across_block_edges_are_the_fingerprints_of_their_grams(n):
    docs = _block_crossing_docs(n)
    for bits in (1, 5, 8, 32, 33, 64):
        index = build_index(docs, ScanConfig(n), bits)
        assert list(zip(index._keys, index._positions)) == _gram_postings(docs, index, n, bits), bits


def _build_peak_per_posting(docs, n):
    tracemalloc.start()
    try:
        postings = len(build_index(docs, ScanConfig(n))._keys)
        return tracemalloc.get_traced_memory()[1] / postings
    finally:
        tracemalloc.stop()


def test_build_peak_per_posting_at_n_1_stays_near_that_at_n_8():
    # at n = 1 a key is its token, below 2**26, so every posting lands in the first of 64 buckets;
    # sorted whole, that bucket would take an int per posting (about 60 B, against 14 B at n = 8)
    rng = random.Random(16)
    docs = docs_from_tokens(random_tokens(rng, 100, 32_000) for _ in range(1000))
    assert _build_peak_per_posting(docs, 1) < 2.5 * _build_peak_per_posting(docs, 8)


@pytest.mark.parametrize("n, bits", [*itertools.product((1, 3, 8), (64, 8, 5, 1)), (8, 33), (8, 32)])
def test_index_file_holds_each_gram_as_its_key_and_position(tmp_path, n, bits):
    # the key is the gram's fingerprint at min(bits, 32) bits, and postings are sorted by (key, position)
    docs = _golden_corpus()
    build_index(docs, ScanConfig(n), bits).save(tmp_path / "i.ctkx")
    index = NGramIndex.load(tmp_path / "i.ctkx")
    assert list(zip(index._keys, index._positions)) == _gram_postings(docs, index, n, bits)


def test_build_peak_per_posting_of_one_long_document_stays_near_that_of_short_ones():
    # the build computes a document's keys a block of grams at a time; in one block, the big ints
    # of a 200k-token document would peak at about 70 B per posting, against 14 B for short ones
    rng = random.Random(35)
    long_doc = docs_from_tokens([random_tokens(rng, 200_000, 32_000)])
    short_docs = docs_from_tokens(random_tokens(rng, 100, 32_000) for _ in range(2000))
    assert _build_peak_per_posting(long_doc, 8) < 1.5 * _build_peak_per_posting(short_docs, 8)
