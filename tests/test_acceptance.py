"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds (run with ``-s`` to see
them); the assertions pin the stated tolerances and runtime bounds.
"""

import itertools
import math
import random
import statistics
import time

import pytest

from contamkit import analytics
from contamkit.analytics import impact_table
from contamkit.corpus_io import BatchStream, CorpusDocument, iter_batches, write_batches
from contamkit.decontam import ContaminationLabel, classify, decontaminate
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    apply_schedule,
    plan_schedule,
    verify_schedule,
    write_schedule,
)
from contamkit.matcher import score_field
from contamkit.metrics import corpus_bleu
from contamkit.ngram_index import ScanConfig, build_index

from helpers import (
    ENV,
    brute_bleu,
    best_overlap,
    direction_group,
    index_of,
    load_table,
    make_example,
    plant,
    random_tokens,
    table_records,
)

CFG = ScanConfig()  # n=8, threshold 0.7


def _passed(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_matcher_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    instances = 0
    checked_at_least_n = 0
    for corpus_round in range(40):
        vocab = 16 if corpus_round % 2 == 0 else 10_000
        docs = [random_tokens(rng, 500, vocab) for _ in range(20)]  # 10^4 tokens
        index = index_of(docs)
        for _ in range(5):
            fields = []
            for _field in range(2):  # behaves as (source, target) of one example
                field = random_tokens(rng, rng.randrange(2, 101), vocab)
                if rng.random() < 0.6 and len(field) >= 8:
                    length = rng.randrange(8, min(80, len(field)) + 1)
                    doc = docs[rng.randrange(len(docs))]
                    start = rng.randrange(0, len(doc) - length + 1)
                    plant(field, doc[start : start + length], rng.randrange(0, len(field) - length + 1))
                fields.append(field)
            for field in fields:
                s, span = score_field(field, index, CFG)
                dp_best = best_overlap(field, docs)
                if dp_best >= 8:
                    checked_at_least_n += 1
                    assert span is not None
                    assert span.length == dp_best  # exact integer agreement
                    assert s == dp_best / len(field)
            instances += 1
    elapsed = time.monotonic() - started
    assert instances == 200
    assert checked_at_least_n >= 150  # the >=8 branch is exercised heavily
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, "matcher oracle equivalence")


def test_criterion_2_threshold_semantics_exact_seventy_percent():
    rng = random.Random(102)

    def example_with_match(match_len):
        # 20-token fields over a huge vocab; a maximal match_len-token run of
        # the source is planted into one corpus doc
        source = random_tokens(rng, 20, 10**6)
        target = random_tokens(rng, 20, 10**6)
        host = random_tokens(rng, 60, 10**6)
        plant(host, source[:match_len], 10)
        ex = make_example("probe", source, target)
        return ex, [host]

    # longest match exactly 70% of 20 tokens -> clean (strict "more than")
    ex, corpus = example_with_match(14)
    index = index_of(corpus)
    from contamkit.matcher import score_example

    score = score_example(ex, index, CFG)
    assert score.s_source == 14 / 20 == 0.7
    assert classify(score, CFG) is ContaminationLabel.CLEAN

    # one more matched token flips it
    ex, corpus = example_with_match(15)
    score = score_example(ex, index_of(corpus), CFG)
    assert score.s_source == 15 / 20
    assert classify(score, CFG) is ContaminationLabel.SOURCE_ONLY

    kept, report = decontaminate([ex], index_of(corpus), CFG)
    assert kept == [] and report.removed_ids == ["probe"]
    _passed(2, "strict threshold semantics")


def test_criterion_3_planted_decontamination_recovery():
    started = time.monotonic()
    rng = random.Random(103)
    total, planted_count, field_len = 500, 50, 20
    examples = [
        make_example(
            f"x{i:03d}",
            random_tokens(rng, field_len, 10**6),
            random_tokens(rng, field_len, 10**6),
        )
        for i in range(total)
    ]
    planted_ids = {ex.example_id for ex in rng.sample(examples, planted_count)}
    corpus = [CorpusDocument(f"bg{i}", random_tokens(rng, 200, 10**6)) for i in range(100)]
    for ex in examples:
        if ex.example_id in planted_ids:
            for side, field in (("s", ex.source_tokens), ("t", ex.target_tokens)):
                host = random_tokens(rng, 80, 10**6)
                at = rng.randrange(0, 80 - field_len)
                host[at : at + field_len] = field
                corpus.append(CorpusDocument(f"host-{side}-{ex.example_id}", host))
    index = build_index(corpus, CFG)
    kept, report = decontaminate(examples, index, CFG)
    removed = set(report.removed_ids)
    assert removed == planted_ids  # precision and recall both 1.0
    assert len(kept) == total - planted_count
    assert report.label_counts["both"] == planted_count
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 3 took {elapsed:.1f}s"
    _passed(3, "planted decontamination recovery")


def test_criterion_4_schedule_invariants_for_all_sixty_conditions():
    started = time.monotonic()
    config = TrainingConfig(total_steps=1000, batch_size=64, seed=104)
    assert config.replace_cap() == 3
    rng = random.Random(104)
    examples = [make_example("only", random_tokens(rng, 12, 10**6), random_tokens(rng, 12, 10**6))]
    plans = 0
    for mode, temporal, copies in itertools.product(ContaminationMode, Temporal, (1, 10, 100)):
        condition = ContaminationCondition(mode, temporal, copies)
        schedule = plan_schedule(examples, condition, config)
        report = verify_schedule(schedule)
        assert report.ok, (condition, report.violations)

        entries = schedule.entries
        assert len(entries) == 1 * copies * condition.arity
        per_batch = {}
        for e in entries:
            per_batch[e.step] = per_batch.get(e.step, 0) + 1
        assert max(per_batch.values()) <= 3
        if temporal is Temporal.LATE:
            assert all(e.step >= 900 for e in entries)
        if temporal is Temporal.UNIFORM:
            assert all(300 <= e.step <= 900 for e in entries)
        halves = {}
        for e in entries:
            halves.setdefault((e.example_id, e.copy_index), []).append(e.step)
        if mode is ContaminationMode.BATCHED_PAIR:
            assert all(len(set(steps)) == 1 for steps in halves.values())
        if mode is ContaminationMode.SPLIT_PAIR:
            assert all(len(set(steps)) == 2 for steps in halves.values())
        plans += 1
    assert plans == 60
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    _passed(4, "schedule invariants for 60 condition cells")


_DETERMINISM_RUN = """
import random, sys
sys.path.insert(0, {tests_dir!r})
from helpers import index_of, make_example, random_tokens
from contamkit.injector import (
    ContaminationCondition, ContaminationMode, Temporal, TrainingConfig,
    plan_schedule, write_schedule,
)

rng = random.Random(105)
examples = [
    make_example(f"d{{i}}", random_tokens(rng, 10, 10**6), random_tokens(rng, 10, 10**6))
    for i in range(4)
]
condition = ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.UNIFORM, 10)
config = TrainingConfig(total_steps=1000, batch_size=64, seed=105)
write_schedule(plan_schedule(examples, condition, config), sys.argv[1])
docs = [random_tokens(rng, rng.randrange(0, 60), 32) for _ in range(50)]
index_of(docs).save(sys.argv[2])
"""


def test_criterion_5_determinism(tmp_path):
    import os
    import subprocess
    import sys

    script = _DETERMINISM_RUN.format(tests_dir=os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for run, hash_seed in enumerate(("1", "31337")):
        plan = tmp_path / f"plan{run}.jsonl"
        index = tmp_path / f"index{run}.ctkx"
        subprocess.run(
            [sys.executable, "-c", script, str(plan), str(index)],
            check=True,
            env=dict(ENV, PYTHONHASHSEED=hash_seed),
        )
        outputs.append((plan.read_bytes(), index.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "schedule files differ across independent runs"
    assert outputs[0][1] == outputs[1][1], "index files differ across independent runs"
    _passed(5, "byte-identical schedules and index builds across processes")


def test_criterion_6_bleu_oracle():
    rng = random.Random(106)
    for _ in range(500):
        count = rng.randrange(1, 6)
        hyps = [[rng.randrange(5) for _ in range(rng.randrange(0, 15))] for _ in range(count)]
        refs = [[rng.randrange(5) for _ in range(rng.randrange(1, 15))] for _ in range(count)]
        assert corpus_bleu(hyps, refs) == pytest.approx(brute_bleu(hyps, refs), abs=1e-9)

    closed_form = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert closed_form == pytest.approx(100.0 * math.exp(-0.25), abs=1e-6)

    identity = [[1, 2, 3], [4, 5, 6, 7, 8], [9]]
    assert corpus_bleu(identity, identity) == 100.0
    _passed(6, "BLEU brute-force oracle, closed form, and identity")


def test_criterion_7_fixture_analytics_reproduce_reference_numbers():
    w23 = load_table("bleu_wmt23.json")
    w24 = load_table("bleu_wmt24.json")

    # delta 3.39 for (8B, en-de, late, 1 copy, full)
    condition_1 = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1)
    cells_1 = impact_table(
        table_records(w23, "8b", "late", 1, "baseline"),
        table_records(w23, "8b", "late", 1, "full_prompted"),
        condition_1,
    ).cells
    assert {c.lang_pair: c for c in cells_1}["en-de"].delta == pytest.approx(3.39, abs=1e-9)

    # testset gap 14.47 for (8B, en-de, late, 100 copies)
    condition_100 = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 100)
    contaminated_cells = impact_table(
        table_records(w23, "8b", "late", 100, "baseline"),
        table_records(w23, "8b", "late", 100, "full_prompted"),
        condition_100,
    ).cells
    clean_cells = impact_table(
        table_records(w24, "8b", "late", 100, "baseline"),
        table_records(w24, "8b", "late", 100, "full_prompted"),
        condition_100,
    ).cells
    gaps = {g.lang_pair: g for g in analytics.testset_gap(contaminated_cells, clean_cells)}
    assert gaps["en-de"].gap == pytest.approx(14.47, abs=1e-9)

    # En->X mean pct above X->En for late/full conditions, on the headline pairs
    headline = set(w23["headline_pairs"])
    for copies in (1, 10, 100):
        base = [r for r in table_records(w23, "8b", "late", copies, "baseline") if r.lang_pair in headline]
        cont = [
            r for r in table_records(w23, "8b", "late", copies, "full_prompted") if r.lang_pair in headline
        ]
        groups = direction_group(impact_table(base, cont).cells)
        assert groups["en_to_x"] > groups["x_to_en"], copies

    # mean-delta ordering: full above source-only and target-only for every copy count
    for model in ("1b", "8b"):
        for copies in (1, 10, 100):
            baseline = table_records(w23, model, "late", copies, "baseline")
            mean_delta = {}
            for variant in ("full_prompted", "source_only", "target_only"):
                cells = impact_table(baseline, table_records(w23, model, "late", copies, variant)).cells
                mean_delta[variant] = statistics.fmean(c.delta for c in cells)
            assert mean_delta["full_prompted"] > mean_delta["source_only"], (model, copies)
            assert mean_delta["full_prompted"] > mean_delta["target_only"], (model, copies)
    _passed(7, "fixture analytics reproduce reference numbers")


def test_criterion_8_stream_application(tmp_path):
    rng = random.Random(108)
    examples = [
        make_example(f"s{i}", random_tokens(rng, 10, 10**6), random_tokens(rng, 10, 10**6))
        for i in range(5)
    ]
    condition = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 10)
    config = TrainingConfig(total_steps=1000, batch_size=64, seed=108)
    schedule = plan_schedule(examples, condition, config)
    assert len(schedule.entries) == 50

    # synthetic 1000x64 stream whose parallel slots sit where the plan injects,
    # plus a constant quota elsewhere (slot 0) in every batch
    targets = {(e.step, e.slot) for e in schedule.entries}
    steps = []
    for step in range(1000):
        batch = []
        for slot in range(64):
            parallel = (step, slot) in targets or slot == 0
            batch.append(
                CorpusDocument(
                    doc_id=f"doc-{step}-{slot}",
                    tokens=[rng.randrange(1000) for _ in range(3)],
                    category="parallel" if parallel else "monolingual",
                    lang="en",
                )
            )
        steps.append(batch)
    stream = BatchStream(batch_size=64, steps=steps)

    out = apply_schedule(stream, schedule, require_parallel_slots=True)
    changed = [
        (s, i)
        for s in range(1000)
        for i in range(64)
        if out.steps[s][i] != stream.steps[s][i]
    ]
    assert len(changed) == 50
    assert set(changed) == targets
    for s in range(1000):
        budget_before = sum(d.category in ("parallel", "contamination") for d in stream.steps[s])
        budget_after = sum(d.category in ("parallel", "contamination") for d in out.steps[s])
        assert budget_before == budget_after

    # file I/O round trip is bit-exact
    first, second = tmp_path / "out1.jsonl", tmp_path / "out2.jsonl"
    write_batches(out.steps, first)
    write_batches(iter_batches(first), second)
    assert first.read_bytes() == second.read_bytes()
    _passed(8, "stream application and bit-exact round trip")
