import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.metrics import EvalRecord, corpus_bleu

from helpers import brute_bleu, counter_bleu


def test_identity_scores_exactly_one_hundred():
    segments = [[1, 2, 3, 4, 5], [9, 8], [4, 4, 4, 4, 4, 4]]
    assert corpus_bleu(segments, segments) == 100.0


def test_classic_clipping_construction_scores_zero():
    hyp = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    assert corpus_bleu([hyp], [ref]) == 0.0
    # unigram clipping alone: "the" appears twice in the reference -> 2/7,
    # and the 7-token hypothesis is longer than the 6-token reference (BP=1)
    assert corpus_bleu([hyp], [ref], max_order=1) == pytest.approx(100.0 * 2 / 7)


def test_closed_form_single_pair():
    hyp = ["a", "b", "c", "d"]
    ref = ["a", "b", "c", "d", "e"]
    # p1..p4 all 1, brevity penalty exp(1 - 5/4)
    expected = 100.0 * math.exp(-0.25)
    assert corpus_bleu([hyp], [ref]) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(77.8800783, abs=1e-6)


def test_brevity_penalty_is_one_when_hypothesis_is_longer():
    hyp = [1, 2, 3, 4, 5, 6]
    ref = [1, 2, 3, 4]
    score = corpus_bleu([hyp], [ref])
    # precisions: 4/6, 3/5, 2/4, 1/3; no brevity penalty
    expected = 100.0 * math.exp(sum(math.log(p) for p in (4 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4)
    assert score == pytest.approx(expected, abs=1e-9)


def test_permutation_invariance():
    rng = random.Random(0)
    pairs = [
        ([rng.randrange(5) for _ in range(rng.randrange(1, 12))],
         [rng.randrange(5) for _ in range(rng.randrange(1, 12))])
        for _ in range(10)
    ]
    hyps, refs = zip(*pairs)
    base = corpus_bleu(list(hyps), list(refs))
    for _ in range(5):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == pytest.approx(base, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match="hypotheses"):
        corpus_bleu([[1]], [[1], [2]])
    with pytest.raises(ValueError, match="at least one"):
        corpus_bleu([], [])
    with pytest.raises(ValueError, match="reference segment 1"):
        corpus_bleu([[1], [2]], [[1], []])
    with pytest.raises(ValueError, match="smoothing"):
        corpus_bleu([[1]], [[1]], smoothing="floor")


def test_empty_hypothesis_scores_zero():
    assert corpus_bleu([[]], [[1, 2, 3]]) == 0.0


def test_add_one_smoothing_lifts_short_segments_off_zero():
    hyp = [1, 2, 3]
    ref = [1, 2, 4]
    assert corpus_bleu([hyp], [ref]) == 0.0  # no common trigram/4-gram
    smoothed = corpus_bleu([hyp], [ref], smoothing="add_one")
    assert 0.0 < smoothed < 100.0
    # p1 stays unsmoothed: 2/3; higher orders get +1/+1
    expected = 100.0 * math.exp(
        (math.log(2 / 3) + math.log(2 / 3) + math.log(1 / 2) + math.log(1 / 1)) / 4
    )
    assert smoothed == pytest.approx(expected, abs=1e-9)


def test_brute_force_equivalence_on_random_corpora():
    rng = random.Random(1)
    for _ in range(200):
        count = rng.randrange(1, 5)
        hyps = [[rng.randrange(4) for _ in range(rng.randrange(0, 12))] for _ in range(count)]
        refs = [[rng.randrange(4) for _ in range(rng.randrange(1, 12))] for _ in range(count)]
        assert corpus_bleu(hyps, refs) == pytest.approx(brute_bleu(hyps, refs), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_brute_force_equivalence_property(data):
    count = data.draw(st.integers(min_value=1, max_value=4))
    hyps = data.draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=10), min_size=count, max_size=count)
    )
    refs = data.draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10), min_size=count, max_size=count)
    )
    assert corpus_bleu(hyps, refs) == pytest.approx(brute_bleu(hyps, refs), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_counting_equals_the_per_gram_oracle_exactly(data):
    # hypotheses (down to empty) both shorter and longer than orders up to 40, so some orders have no k-grams
    max_order = data.draw(st.integers(min_value=1, max_value=40))
    smoothing = data.draw(st.sampled_from(["none", "add_one"]))
    count = data.draw(st.integers(min_value=1, max_value=4))
    # a small alphabet repeats grams (clipped through Counters), a large one rarely does (set intersections)
    alphabet = data.draw(st.sampled_from([2, 4, 1000, 2**32 - 1]))
    token = st.integers(min_value=0, max_value=alphabet - 1)
    if data.draw(st.booleans()):
        token = token.map(lambda t: f"w{t}")  # words, as text mode splits them
    hyps = data.draw(st.lists(st.lists(token, max_size=45), min_size=count, max_size=count))
    refs = data.draw(st.lists(st.lists(token, min_size=1, max_size=45), min_size=count, max_size=count))
    expected = counter_bleu(hyps, refs, max_order=max_order, smoothing=smoothing)
    assert corpus_bleu(hyps, refs, max_order=max_order, smoothing=smoothing) == expected


def test_one_pass_counting_equals_the_per_gram_oracle_on_a_generated_corpus():
    # shaped like the benchmark's segments: 10-30 tokens from a vocabulary of 1,000, each kept with p 0.8
    rng = random.Random(31)
    refs = [[rng.randrange(1000) for _ in range(rng.randrange(10, 31))] for _ in range(2500)]
    hyps = [[t if rng.random() < 0.8 else rng.randrange(1000) for t in ref] for ref in refs]
    for max_order, smoothing in ((4, "none"), (6, "add_one")):
        expected = counter_bleu(hyps, refs, max_order=max_order, smoothing=smoothing)
        assert corpus_bleu(hyps, refs, max_order=max_order, smoothing=smoothing) == expected


def test_bleu_memory_follows_the_longest_hypothesis_not_max_order():
    hyp, ref = [1, 2, 3], [1, 2, 9, 3]
    tracemalloc.start()
    try:
        plain = corpus_bleu([hyp], [ref], max_order=10**6)
        smoothed = corpus_bleu([hyp], [ref], max_order=10**6, smoothing="add_one")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plain == 0.0  # the one 3-gram does not match
    # add_one: precisions 3/3, 2/3 and 1/2, then (0+1)/(0+1) for each of the other orders
    log_mean = (math.log(2 / 3) + math.log(1 / 2)) / 10**6
    assert smoothed == pytest.approx(100 * math.exp(1 - 4 / 3) * math.exp(log_mean))
    # two count lists of a million orders would take 16 MB
    assert peak < 1_000_000, f"scoring traced a peak of {peak} bytes"


def test_eval_record_validation():
    with pytest.raises(ValueError):
        EvalRecord("s", "de-en", "t", bleu=101.0, segment_count=1)
    with pytest.raises(ValueError):
        EvalRecord("s", "de-en", "t", bleu=10.0, segment_count=0)
