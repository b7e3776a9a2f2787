import random

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.corpus_io import CorpusDocument, CorpusFormatError, DuplicateIdError
from contamkit.ngram_index import (
    Location,
    NGramIndex,
    ScanConfig,
    build_index,
    fingerprint,
    merge_indexes,
)

from helpers import index_of, random_tokens


def linear_scan(token_lists, gram):
    """Reference search: positions of gram by direct comparison."""
    hits = []
    n = len(gram)
    for ref, tokens in enumerate(token_lists):
        for off in range(len(tokens) - n + 1):
            if tokens[off : off + n] == list(gram):
                hits.append(Location(ref, off))
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


def test_nine_token_doc_has_two_postings():
    index = index_of([[1, 2, 3, 4, 5, 6, 7, 8, 9]])
    assert index.posting_count == 2
    assert index.query([1, 2, 3, 4, 5, 6, 7, 8]) == [Location(0, 0)]
    assert index.query([2, 3, 4, 5, 6, 7, 8, 9]) == [Location(0, 1)]


def test_short_doc_registered_but_unposted():
    index = index_of([[1, 2, 3, 4, 5, 6, 7]])
    assert index.posting_count == 0
    assert index.doc_count == 1
    assert index.doc_len(0) == 7


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
    assert index.query([2] * 8) == []


def test_planted_gram_found_at_exactly_its_positions():
    rng = random.Random(11)
    gram = [100 + i for i in range(8)]
    token_lists = [random_tokens(rng, 60, 16) for _ in range(5)]
    token_lists[0][10:18] = gram
    token_lists[2][0:8] = gram
    token_lists[4][52:60] = gram
    index = index_of(token_lists)
    assert index.query(gram) == [Location(0, 10), Location(2, 0), Location(4, 52)]


def test_wrong_gram_length_rejected():
    index = index_of([[1] * 20])
    with pytest.raises(ValueError, match="expected 8"):
        index.query([1, 2, 3])


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
    assert index.query(gram_a) == [Location(0, 0)]
    assert index.query(gram_b) == [Location(1, 0)]


def test_token_at_and_doc_len():
    index = index_of([[9, 8, 7]])
    assert index.token_at(0, 0) == 9
    assert index.token_at(0, 2) == 7
    assert index.doc_len(0) == 3
    with pytest.raises(IndexError, match="offset 3"):
        index.token_at(0, 3)
    with pytest.raises(IndexError, match="doc ref"):
        index.token_at(1, 0)


def test_token_at_spot_checks_against_source():
    rng = random.Random(5)
    token_lists = [random_tokens(rng, rng.randrange(1, 200), 1000) for _ in range(50)]
    index = index_of(token_lists)
    for _ in range(10_000):
        ref = rng.randrange(len(token_lists))
        off = rng.randrange(len(token_lists[ref]))
        assert index.token_at(ref, off) == token_lists[ref][off]


def test_duplicate_doc_id_rejected():
    docs = [CorpusDocument("same", [1] * 8), CorpusDocument("same", [2] * 8)]
    with pytest.raises(DuplicateIdError):
        build_index(docs, ScanConfig())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_query_matches_linear_scan(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    token_lists = data.draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=20), min_size=1, max_size=5),
        label="corpus",
    )
    index = index_of(token_lists, n=n)
    gram = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n), label="gram")
    assert index.query(gram) == linear_scan(token_lists, gram)


def test_query_matches_linear_scan_on_corpus_grams():
    rng = random.Random(23)
    token_lists = [random_tokens(rng, 80, 6) for _ in range(8)]
    index = index_of(token_lists)
    for tokens in token_lists:
        for off in range(0, len(tokens) - 8 + 1, 7):
            gram = tokens[off : off + 8]
            assert index.query(gram) == linear_scan(token_lists, gram)


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
    for tokens in token_lists:
        if len(tokens) >= 8:
            gram = tokens[:8]
            assert loaded.query(gram) == original.query(gram)
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


def test_merge_equals_direct_build(tmp_path):
    rng = random.Random(31)
    shard_lists = [[random_tokens(rng, 30, 8) for _ in range(10)] for _ in range(3)]
    parts = []
    offset = 0
    for tokens in shard_lists:
        docs = [CorpusDocument(f"d{offset + i}", t) for i, t in enumerate(tokens)]
        parts.append(build_index(docs, ScanConfig()))
        offset += len(tokens)
    merged = merge_indexes(parts)
    flat = [t for shard in shard_lists for t in shard]
    direct = index_of(flat)
    a, b = tmp_path / "m.ctkx", tmp_path / "d.ctkx"
    merged.save(a)
    direct.save(b)
    assert a.read_bytes() == b.read_bytes()
