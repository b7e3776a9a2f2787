import hashlib
import itertools
import random
import sys
import tracemalloc

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


def test_doc_table_length_past_the_end_of_file_is_truncation(tmp_path):
    # a damaged length is refused before it is read, however large it claims to be
    path = tmp_path / "full.ctkx"
    index_of([[1] * 20]).save(path)  # doc id "d0"
    table = 32 + 8  # header, then the doc table's magic and count
    for offset, what in ((table, "doc #0 id"), (table + 4 + 2, "doc #0 tokens")):
        data = bytearray(path.read_bytes())
        data[offset + 3] = 0xFF
        bad = tmp_path / "bad.ctkx"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorpusFormatError, match=f"bad.ctkx: truncated while reading {what}$"):
            NGramIndex.load(bad)


def test_load_rejects_other_format_versions(tmp_path):
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    data = bytearray(path.read_bytes())
    data[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError, match="rebuild the index"):
        NGramIndex.load(path)


def _with_header(path, **changes):
    """Apply ``changes`` (field name -> function of the old value) to the header of the index file at ``path``."""
    data = bytearray(path.read_bytes())
    names = ("magic", "version", "n", "bits", "posting_count", "table_bytes")
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
    # one posting fewer and 16 table bytes more: the file size still matches the header
    path = tmp_path / "x.ctkx"
    index_of([[1] * 20]).save(path)
    _with_header(path, posting_count=lambda c: c - 1, table_bytes=lambda b: b + 16)
    with pytest.raises(CorpusFormatError, match=r"x.ctkx: doc table size differs from its header$"):
        NGramIndex.load(path)


# sha256 of the .ctkx file of _golden_corpus() for each (n, fingerprint_bits),
# recorded from the build that sorted every posting of the corpus at once: the
# bucketed build must write the same bytes, also when fewer than six
# fingerprint bits leave fewer bucket bits (bits 5 and 1)
INDEX_DIGESTS = {
    (1, 64): "eb15d6c00e4dc9f474f998e41d79c0fd6731df2ac4c9b3261db65c6399a047e2",
    (1, 8): "94c20b1577e17c6f40d7b495018918a1382226fcd8ba650bb6edc37a271c8edf",
    (1, 5): "3284947e08634a6044c5274cc3777b59a05e8f59ec5ebed1bba934946c429111",
    (1, 1): "26a0560b31a23f4519790349280ecd3e7d624c7e1c8c967d020a932cfdf5f9da",
    (3, 64): "8d2dfc8ec7e5197f8739d0e8c5dbc6b811de188366a8a9feab8638a981fbc862",
    (3, 8): "ed2f5426c8e70160362e1ed6258ffd912aaeda13f2f31bcce251aeeafe42f302",
    (3, 5): "9a7f0b011bde2b6d5e1d847b5e8e4bdfce130503c4b89acac03e45a5de35eba8",
    (3, 1): "929e0b4766df7eeec217a6aec4377750afc7e51dd6a127a6b9c650ae2908894c",
    (8, 64): "76bcb14e45c75d5855a8077afc6ea0058ad386c748c372dcb6ab42328e11a459",
    (8, 8): "2efb04e7f9bbc2f3699a9d59af4710c3e4b5ce6e45e3c5f9da70f2c37542cf83",
    (8, 5): "e50e13ca68d9f3970d508a4563bb772f8f997b806bc70226611c0eec2f8e7315",
    (8, 1): "a50442589b2a20699ec542f2be5afb811eedf517b0943fd4d29458e483217e35",
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


def test_index_files_match_recorded_digests_when_documents_roll_in_small_chunks(tmp_path, monkeypatch):
    # chunks of 4 grams split most golden documents, and the roll restarts at each chunk
    monkeypatch.setattr(ngram_index, "_ROLL_CHUNK", 4)
    docs = _golden_corpus()
    path = tmp_path / "i.ctkx"
    for n, bits in itertools.product((1, 3, 8), (64, 8, 5, 1)):
        assert _digest(build_index(docs, ScanConfig(n), bits), path) == INDEX_DIGESTS[(n, bits)]
