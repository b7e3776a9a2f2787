import copy
import json
import random
from dataclasses import fields

import pytest

from contamkit.decontam import (
    ContaminationLabel,
    DecontamReport,
    classify,
    decontaminate,
    histogram_bin,
    render_report,
)
from contamkit.matcher import ContaminationScore
from contamkit.ngram_index import ScanConfig

from helpers import index_of, make_example, random_tokens

CFG = ScanConfig()


def _score(s_source, s_target):
    return ContaminationScore(s_source=s_source, s_target=s_target, longest_source=None, longest_target=None)


def test_classify_source_only():
    assert classify(_score(0.71, 0.20), CFG) is ContaminationLabel.SOURCE_ONLY


def test_classify_exactly_at_threshold_is_clean():
    # "more than" is strict: 0.70 at threshold 0.70 stays clean
    assert classify(_score(0.70, 0.70), CFG) is ContaminationLabel.CLEAN


def test_classify_both():
    assert classify(_score(0.9, 0.9), CFG) is ContaminationLabel.BOTH


def test_classify_target_only():
    assert classify(_score(0.1, 0.95), CFG) is ContaminationLabel.TARGET_ONLY


def test_exact_seventy_percent_plus_one_token_flips():
    # 10-token fields; a 7-token longest match is exactly 70% -> clean,
    # an 8-token match is 80% -> contaminated
    assert classify(_score(7 / 10, 0.0), CFG) is ContaminationLabel.CLEAN
    assert classify(_score(8 / 10, 0.0), CFG) is ContaminationLabel.SOURCE_ONLY


def _testset_with_plants(rng, total, planted_count, field_len=20):
    """Examples over a huge vocab; the first `planted_count` get both fields
    planted verbatim into corpus docs."""
    examples = [
        make_example(
            f"ex{i:03d}",
            random_tokens(rng, field_len, 10**6),
            random_tokens(rng, field_len, 10**6),
            pair=("de", "en") if i % 2 == 0 else ("en", "cs"),
        )
        for i in range(total)
    ]
    corpus = [random_tokens(rng, 100, 10**6) for _ in range(20)]
    for ex in examples[:planted_count]:
        host = random_tokens(rng, 60, 10**6)
        at = rng.randrange(0, 60 - field_len)
        host[at : at + field_len] = ex.source_tokens
        corpus.append(host)
        host2 = random_tokens(rng, 60, 10**6)
        host2[at : at + field_len] = ex.target_tokens
        corpus.append(host2)
    return examples, corpus


def test_decontaminate_removes_exactly_the_planted_example():
    rng = random.Random(0)
    examples, corpus = _testset_with_plants(rng, total=10, planted_count=1)
    kept, report = decontaminate(examples, index_of(corpus), CFG)
    assert len(kept) == 9
    assert report.label_counts["both"] == 1
    assert report.label_counts["clean"] == 9
    assert report.removed_ids == ["ex000"]
    assert [ex.example_id for ex in kept] == [f"ex{i:03d}" for i in range(1, 10)]


def test_decontaminate_all_clean_when_nothing_shared():
    rng = random.Random(1)
    examples = [
        make_example(f"e{i}", random_tokens(rng, 15, 10**6), random_tokens(rng, 15, 10**6))
        for i in range(8)
    ]
    corpus = [random_tokens(rng, 80, 10**6) for _ in range(10)]
    kept, report = decontaminate(examples, index_of(corpus), CFG)
    assert kept == examples
    assert report.removed == 0
    assert report.label_counts["clean"] == 8


def test_partition_and_idempotence():
    rng = random.Random(2)
    examples, corpus = _testset_with_plants(rng, total=30, planted_count=5)
    index = index_of(corpus)
    kept, report = decontaminate(examples, index, CFG)
    assert len(kept) + report.removed == len(examples)
    kept_again, report_again = decontaminate(kept, index, CFG)
    assert kept_again == kept
    assert report_again.removed == 0


def test_decontaminate_leaves_the_index_as_built():
    rng = random.Random(3)
    examples, corpus = _testset_with_plants(rng, total=6, planted_count=3)
    index = index_of(corpus)
    built = copy.deepcopy(vars(index))  # copies, so a change in place shows too
    decontaminate(examples, index, CFG)
    assert vars(index) == built


def test_threshold_monotonicity():
    rng = random.Random(3)
    examples, corpus = _testset_with_plants(rng, total=20, planted_count=4, field_len=20)
    index = index_of(corpus)
    kept_sizes = []
    for threshold in (0.3, 0.5, 0.7, 0.9, 1.0):
        config = ScanConfig(ngram_order=8, threshold=threshold)
        kept, _ = decontaminate(examples, index, config)
        kept_sizes.append(len(kept))
    assert kept_sizes == sorted(kept_sizes)


def test_per_pair_breakdown_sums_to_total():
    rng = random.Random(4)
    examples, corpus = _testset_with_plants(rng, total=12, planted_count=3)
    _, report = decontaminate(examples, index_of(corpus), CFG)
    per_pair_total = sum(sum(counts.values()) for counts in report.per_pair.values())
    assert per_pair_total == report.total == 12
    assert sorted(report.per_pair) == ["de-en", "en-cs"]


def test_decontaminate_of_no_examples_is_an_error():
    with pytest.raises(ValueError, match="testset must be non-empty"):
        decontaminate([], index_of([[1] * 10]), CFG)


@pytest.mark.parametrize("bin_width", [0, 1.5])
def test_decontaminate_refuses_a_bin_width_outside_zero_to_one(bin_width):
    rng = random.Random(0)
    examples, corpus = _testset_with_plants(rng, total=2, planted_count=1)
    with pytest.raises(ValueError, match=r"bin_width must be in \(0, 1\]"):
        decontaminate(examples, index_of(corpus), CFG, bin_width=bin_width)


# -- histogram ------------------------------------------------------------------


def test_histogram_bin_edges():
    assert histogram_bin(0.0) == 0
    assert histogram_bin(0.049) == 0
    assert histogram_bin(0.05) == 1
    assert histogram_bin(0.70) == 14
    assert histogram_bin(3 / 20) == 3  # 0.15 exactly on an edge
    assert histogram_bin(1.0) == 19


def test_histogram_of_uniform_scores():
    rng = random.Random(5)
    histogram = [0] * 20
    for _ in range(100):
        histogram[histogram_bin(rng.random())] += 1
    assert sum(histogram) == 100
    assert max(histogram) < 20  # ~5 expected per bin


# -- reports --------------------------------------------------------------------


def _headline_report():
    removed = 681
    return DecontamReport(
        threshold=0.7,
        total=10_172,
        label_counts={"clean": 9_491, "source_only": 400, "target_only": 200, "both": 81},
        per_pair={},
        histogram=[9_491] + [0] * 18 + [removed],
        bin_width=0.05,
        removed_ids=[f"removed-{i}" for i in range(removed)],
    )


def test_headline_numbers_render_as_six_point_seven_percent():
    report = _headline_report()
    text = render_report(report, "text")
    assert "total examples : 10172" in text
    assert "kept           : 9491" in text
    assert "681 (6.7% removed)" in text


def test_report_json_round_trips():
    report = _headline_report()
    payload = json.loads(report.to_json())
    again = DecontamReport(**{f.name: payload[f.name] for f in fields(DecontamReport) if f.init})
    assert again == report
    assert json.loads(render_report(report, "json")) == json.loads(report.to_json())


def test_two_label_breakdown_sums():
    report = DecontamReport(
        threshold=0.7,
        total=10,
        label_counts={"clean": 9, "source_only": 0, "target_only": 0, "both": 1},
        per_pair={"de-en": {"clean": 9, "source_only": 0, "target_only": 0, "both": 1}},
        histogram=[9] + [0] * 18 + [1],
        bin_width=0.05,
        removed_ids=["x"],
    )
    text = render_report(report)
    assert "clean        9" in text
    assert "both         1" in text


def test_empty_report_renders():
    report = DecontamReport(
        threshold=0.7, total=0, label_counts={}, per_pair={}, histogram=[0] * 20,
        bin_width=0.05, removed_ids=[],
    )
    text = render_report(report)
    assert "total examples : 0" in text
    assert "(0.0% removed)" in text


@pytest.mark.parametrize("bin_width, last_bin", [(0.3, "[0.60, 1.00]"), (0.4, "[0.40, 1.00]"), (0.05, "[0.95, 1.00]")])
def test_last_histogram_bin_closes_at_one(bin_width, last_bin):
    rng = random.Random(6)
    examples, corpus = _testset_with_plants(rng, total=4, planted_count=1)
    _, report = decontaminate(examples, index_of(corpus), CFG, bin_width=bin_width)
    assert report.histogram[-1] == 1  # the planted example scores 1.0
    assert f"    {last_bin}  1\n" in render_report(report)
