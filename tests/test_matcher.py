import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.matcher import MatchSpan, longest_span, score_example, score_field
from contamkit.ngram_index import ScanConfig

from helpers import (
    best_overlap,
    index_of,
    lcs_substring_length,
    longest_common_span,
    make_example,
    plant,
    random_tokens,
)

CFG = ScanConfig()


def test_contained_field_yields_one_full_span():
    rng = random.Random(0)
    doc = random_tokens(rng, 40, 100)
    field = doc[5:17]
    index = index_of([doc])
    assert longest_span(field, index, CFG) == MatchSpan(doc_ref=0, corpus_start=5, example_start=0, length=12)


def test_disjoint_field_yields_no_spans():
    index = index_of([[1] * 30])
    assert longest_span([2] * 12, index, CFG) is None


def test_two_planted_substrings_match_dp_oracle():
    rng = random.Random(1)
    doc = random_tokens(rng, 200, 1000)
    field = random_tokens(rng, 30, 1000)
    plant(field, doc[20:29], 0)    # length 9
    plant(field, doc[100:114], 12)  # length 14
    index = index_of([doc])
    span = longest_span(field, index, CFG)
    assert span == MatchSpan(doc_ref=0, corpus_start=100, example_start=12, length=14)
    assert span == longest_common_span(field, [doc], 8)


def test_score_source_present_target_absent():
    rng = random.Random(2)
    doc = random_tokens(rng, 50, 1000)
    ex = make_example("e", source_tokens=doc[10:30], target_tokens=[10_000 + i for i in range(20)])
    index = index_of([doc])
    score = score_example(ex, index, CFG)
    assert score.s_source == 1.0
    assert score.s_target == 0.0
    assert score.longest_source.length == 20
    assert score.longest_target is None
    assert score.combined == 1.0


def test_overlap_fraction_from_planted_substring():
    rng = random.Random(3)
    doc = random_tokens(rng, 100, 1000)
    field = random_tokens(rng, 20, 1000)
    plant(field, doc[40:52], 4)  # 12 of 20 tokens
    index = index_of([doc])
    s, span = score_field(field, index, CFG)
    assert span.length == 12 == lcs_substring_length(field, doc)
    assert s == 0.6


def test_example_identical_to_doc_pair_scores_one_one():
    rng = random.Random(4)
    source = random_tokens(rng, 25, 1000)
    target = random_tokens(rng, 30, 1000)
    ex = make_example("e", source, target)
    index = index_of([source, target])
    score = score_example(ex, index, CFG)
    assert (score.s_source, score.s_target) == (1.0, 1.0)


def test_field_swap_swaps_scores():
    rng = random.Random(5)
    doc = random_tokens(rng, 80, 50)
    a = random_tokens(rng, 20, 50)
    b = random_tokens(rng, 24, 50)
    plant(a, doc[0:10], 0)
    index = index_of([doc])
    fwd = score_example(make_example("e", a, b), index, CFG)
    rev = score_example(make_example("e", b, a), index, CFG)
    assert (fwd.s_source, fwd.s_target) == (rev.s_target, rev.s_source)


def test_empty_field_rejected():
    with pytest.raises(ValueError):
        longest_span([], index_of([[1] * 10]), CFG)


def test_mismatched_config_rejected():
    with pytest.raises(ValueError, match="ngram_order"):
        longest_span([1] * 10, index_of([[1] * 10], n=4), CFG)


# -- short-field fallback -------------------------------------------------------


def test_short_field_scores_one_when_planted():
    rng = random.Random(6)
    doc = random_tokens(rng, 50, 1000)
    field = doc[30:35]  # 5 tokens < n
    index = index_of([doc])
    s, span = score_field(field, index, CFG)
    assert s == 1.0
    assert span == MatchSpan(doc_ref=0, corpus_start=30, example_start=0, length=5)


def test_short_field_scores_zero_when_only_partially_present():
    doc = [1, 2, 3, 4, 9, 9, 9, 9, 9, 9]
    field = [1, 2, 3, 4, 5]  # 4-of-5 prefix present, whole field absent
    index = index_of([doc])
    assert score_field(field, index, CFG) == (0.0, None)


def test_short_field_dp_oracle_agreement():
    rng = random.Random(7)
    for _ in range(50):
        doc = random_tokens(rng, 60, 4)
        field = random_tokens(rng, rng.randrange(1, 8), 4)
        index = index_of([doc])
        s, _ = score_field(field, index, CFG)
        contained = lcs_substring_length(field, doc) == len(field)
        assert s == (1.0 if contained else 0.0)


def test_short_field_is_searched_without_copying_the_corpus():
    # 1,000 documents of 1,000 tokens under n = 1001: a 1M-token buffer (4 MB)
    # with no postings, in which a 2-token field is one whole-field gram
    doc = list(range(1000))
    index = index_of([doc] * 1000, n=1001)
    assert len(index.tokens) == 1_000_000
    tracemalloc.start()
    try:
        span = longest_span([7, 7], index, ScanConfig(ngram_order=1001))  # in no document: the whole buffer is read
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert span is None
    assert peak < 1_000_000
    index.tokens.append(0)  # no view of the buffer is left open, so it can still grow


def test_short_field_never_matches_across_documents_or_token_bytes():
    # 256 followed by 0 holds the bytes of token 1 one byte in; [2, 3] spans a document boundary
    index = index_of([[256, 0, 2], [3, 1]])
    assert longest_span([1], index, CFG) == MatchSpan(doc_ref=1, corpus_start=1, example_start=0, length=1)
    assert longest_span([2, 3], index, CFG) is None
    assert longest_span([2], index, CFG) == MatchSpan(doc_ref=0, corpus_start=2, example_start=0, length=1)


# -- maximality and oracle properties -------------------------------------------


def _assert_maximal(span, field, index):
    starts = index.starts
    tokens = index.tokens[starts[span.doc_ref] : starts[span.doc_ref + 1]].tolist()
    i, j, length = span.corpus_start, span.example_start, span.length
    assert tokens[i : i + length] == field[j : j + length]
    if i > 0 and j > 0:
        assert tokens[i - 1] != field[j - 1]
    if i + length < len(tokens) and j + length < len(field):
        assert tokens[i + length] != field[j + length]


def test_spans_are_maximal_on_random_inputs():
    rng = random.Random(8)
    for _ in range(100):
        docs = [random_tokens(rng, rng.randrange(8, 60), 5) for _ in range(4)]
        field = random_tokens(rng, rng.randrange(8, 40), 5)
        index = index_of(docs)
        span = longest_span(field, index, CFG)
        if span is not None:
            _assert_maximal(span, field, index)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_score_matches_dp_oracle_when_at_least_n(data):
    vocab = data.draw(st.integers(min_value=2, max_value=6))
    docs = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=vocab - 1), min_size=0, max_size=60),
            min_size=1,
            max_size=4,
        )
    )
    field = data.draw(st.lists(st.integers(min_value=0, max_value=vocab - 1), min_size=8, max_size=40))
    index = index_of(docs)
    s, span = score_field(field, index, CFG)
    best = best_overlap(field, docs)
    if best >= 8:
        assert span is not None and span.length == best
        assert s == best / len(field)
    else:
        assert (s, span) == (0.0, None)


@pytest.mark.parametrize("bits", [64, 33, 32, 4])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_longest_span_equals_dp_oracle_union_over_documents(bits, data):
    # the span over all documents is the longest of the spans searched in each
    # document alone, each equal to the DP oracle on that document; a 2-5
    # token vocabulary repeats grams, so one diagonal carries several spans,
    # and 4-bit fingerprints make most candidates collisions
    vocab = data.draw(st.integers(min_value=2, max_value=5))
    tokens = st.integers(min_value=0, max_value=vocab - 1)
    docs = data.draw(st.lists(st.lists(tokens, max_size=60), min_size=1, max_size=4))
    field = data.draw(st.lists(tokens, min_size=8, max_size=40))
    per_doc = []
    for ref, doc in enumerate(docs):
        span = longest_span(field, index_of([doc], bits=bits), CFG)
        assert span == longest_common_span(field, [doc], 8)
        if span is not None:
            per_doc.append((-span.length, ref, span.corpus_start, span.example_start))
    want = None
    if per_doc:
        neg_length, ref, i, j = min(per_doc)
        want = MatchSpan(ref, i, j, -neg_length)
    assert longest_span(field, index_of(docs, bits=bits), CFG) == want


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("empty_docs_between", [0, 2])
def test_span_at_document_start_after_a_document_ending_in_the_preceding_field_token(n, empty_docs_between):
    # the token buffer holds doc 0's last token 9 right before the matched
    # document, and 9 also precedes the match in the field: the span must
    # still start at 0. At n = 1 the 9 has a posting of its own; empty
    # documents between give the matched document's start several refs.
    field = [9] + list(range(1, 13))
    ref = 1 + empty_docs_between
    index = index_of([[4] * 10 + [9], *[[]] * empty_docs_between, list(range(1, 13)) + [7]], n=n)
    want = MatchSpan(doc_ref=ref, corpus_start=0, example_start=1, length=12)
    assert longest_span(field, index, ScanConfig(ngram_order=n)) == want


def test_monotonicity_appending_tokens_never_decreases_score():
    rng = random.Random(9)
    for _ in range(30):
        docs = [random_tokens(rng, 40, 6) for _ in range(3)]
        field = random_tokens(rng, 20, 6)
        before, _ = score_field(field, index_of(docs), CFG)
        grow = rng.randrange(len(docs))
        docs[grow] = docs[grow] + field[: rng.randrange(0, len(field) + 1)]
        after, _ = score_field(field, index_of(docs), CFG)
        assert after >= before


# -- longest-only search ---------------------------------------------------------


@pytest.mark.parametrize("bits", [64, 33, 32, 4])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_longest_span_equals_longest_of_all_spans(bits, data):
    # the longest of all maximal spans, found by the DP oracle. Fields of 1-40
    # tokens cover the whole-field scan below n; a 2-5 token vocabulary repeats
    # grams, so one diagonal carries several spans and equal-length ties are
    # common, and 4-bit fingerprints make most candidates collisions. At n <= 2
    # a span often starts at a document start right after a token equal to the
    # field token before it.
    n = data.draw(st.sampled_from([1, 2, 3, 8]))
    vocab = data.draw(st.integers(min_value=2, max_value=5))
    tokens = st.integers(min_value=0, max_value=vocab - 1)
    docs = data.draw(st.lists(st.lists(tokens, max_size=60), min_size=1, max_size=4))
    field = data.draw(st.lists(tokens, min_size=1, max_size=40))
    index = index_of(docs, n=n, bits=bits)
    assert longest_span(field, index, ScanConfig(ngram_order=n)) == longest_common_span(field, docs, n)


def test_longest_span_tie_across_documents_goes_to_the_smaller_doc_found_later():
    a = list(range(100, 108))
    b = list(range(200, 208))
    # a is in doc 1, found from field offset 0; b fills doc 0 and ends the
    # field, so its room and the tokens left both equal the best length
    index = index_of([b, [1] + a + [2]])
    assert longest_span(a + b, index, CFG) == MatchSpan(doc_ref=0, corpus_start=0, example_start=8, length=8)


def test_longest_span_tie_within_a_document_goes_to_the_smaller_corpus_start():
    a = list(range(100, 108))
    b = list(range(200, 208))
    index = index_of([[1] + b + [2] + a + [3]])
    assert longest_span(a + b, index, CFG) == MatchSpan(doc_ref=0, corpus_start=1, example_start=8, length=8)


def test_longest_span_tie_at_one_corpus_position_goes_to_the_smaller_field_start():
    a = list(range(100, 108))
    index = index_of([[1] + a + [2]])
    field = [3] + a + [4] + a
    assert longest_span(field, index, CFG) == MatchSpan(doc_ref=0, corpus_start=1, example_start=1, length=8)


@pytest.mark.parametrize("bits", [1, 4, 32])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_longest_span_over_copies_of_one_run_equals_dp_oracle(bits, data):
    # One run of the field copied into many documents, each copy agreeing
    # with the field for L - 1, L or L + 1 tokens and then broken by one
    # token, so the token after the break agrees again: a copy shorter than
    # the best passes the one-token test and must fail the slice. Doc 0
    # holds a later part of the field as long as the longest copy, a tie at
    # the smallest position that the walk meets at a later field offset. The
    # last copy ends on the last token of the token array. At 1 bit every
    # gram shares a key with half the postings.
    n = data.draw(st.sampled_from([2, 8]))
    vocab = data.draw(st.sampled_from([3, 50]))
    tokens = st.integers(min_value=0, max_value=vocab - 1)
    L = n + data.draw(st.integers(min_value=1, max_value=6))
    run = data.draw(st.lists(tokens, min_size=L + 2, max_size=L + 6))
    agree = data.draw(st.lists(st.sampled_from([L - 1, L, L + 1]), min_size=2, max_size=12))
    longest = max(agree)
    later = data.draw(st.lists(tokens, min_size=longest, max_size=longest))
    field = data.draw(st.lists(tokens, max_size=4)) + run + [1000] + later + data.draw(st.lists(tokens, max_size=4))
    brk = 1001  # in no field
    docs = [[brk] + later + [brk]]
    docs += [[brk] + run[:k] + [brk] + run[k + 1 :] + [brk] for k in agree[:-1]]
    docs.append([brk] + run[: agree[-1]])
    index = index_of(docs, n=n, bits=bits)
    assert longest_span(field, index, ScanConfig(ngram_order=n)) == longest_common_span(field, docs, n)


class _CountingTokens(array):
    """A token array that counts the slices read from it."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("long_doc", [1, 199])
def test_longest_span_slices_few_candidates_of_a_repeated_run(long_doc):
    # 200 documents share the field's first 40 tokens, doc ``long_doc`` its
    # first 45; the field's other 55 tokens are in no document. Each of the
    # run's 33 offsets has 200 candidates, and comparing each as a slice
    # would read about 6,600 slices. At offset 0 only docs 0 and ``long_doc``
    # are sliced: a candidate past the kept span that cannot be longer is
    # skipped on its token at offset 45. After offset 0, a candidate before
    # the kept span (doc 0, or all of docs 0 to 198) is skipped on its token
    # at offset 44, so it is sliced only when it could still tie.
    run = list(range(100, 145))
    docs = [[k] + run[:40] + [99] for k in range(200)]
    docs[long_doc] = [1] + run + [99]
    field = run + list(range(1000, 1055))
    index = index_of(docs)
    index.tokens = tokens = _CountingTokens("I", index.tokens)
    span = longest_span(field, index, CFG)
    assert span == MatchSpan(doc_ref=long_doc, corpus_start=1, example_start=0, length=45)
    walked = len(field) - span.length + 1  # offsets up to the first with fewer tokens left than the span
    assert tokens.slices <= walked, f"{tokens.slices} slices over {walked} offsets"


@pytest.mark.parametrize("token", [-1, 2**32, 2**40])
@pytest.mark.parametrize("length", [3, 12])
def test_longest_span_refuses_a_token_id_no_index_holds(token, length):
    # every reader refuses such an id first; a direct caller gets a ValueError,
    # on the whole-field search below n and on the n-gram walk alike
    field = [1] * (length - 1) + [token]
    with pytest.raises(ValueError, match=r"^field token ids must be integers in \[0, 2\*\*32\)$"):
        longest_span(field, index_of([[1] * 20]), CFG)


def test_longest_span_of_a_short_field_is_its_first_hit_across_documents():
    index = index_of([[5, 6, 7], [9, 1, 2, 3, 1, 2], [1, 2, 8]])
    assert longest_span([1, 2], index, CFG) == MatchSpan(doc_ref=1, corpus_start=1, example_start=0, length=2)
    assert longest_span([2, 8], index, CFG) == MatchSpan(doc_ref=2, corpus_start=1, example_start=0, length=2)
    assert longest_span([7, 9], index, CFG) is None  # only across the boundary of docs 0 and 1
