import dataclasses
import hashlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from contamkit.conditions import PART_SOURCE_HALF, PART_TARGET_HALF, PART_WHOLE
from contamkit.corpus_io import BatchStream
from contamkit.injector import (
    CapacityError,
    ContaminationCondition,
    ContaminationMode,
    CounterRng,
    PromptTemplate,
    ScheduleEntry,
    ScheduleError,
    StreamShapeError,
    Temporal,
    TemplateError,
    TrainingConfig,
    _sample_slots,
    apply_batches,
    apply_schedule,
    plan_schedule,
    read_schedule,
    render,
    verify_schedule,
    write_schedule,
)
from contamkit.corpus_io import TestExample

from helpers import _synth_stream, array_sample_slots, make_example, splitmix64, verify_schedule_per_entry

DIEGO = TestExample(
    example_id="diego",
    src_lang="de",
    tgt_lang="en",
    source_text="Diego Cocca wird neuer Nationaltrainer von Mexiko",
    target_text="Diego Cocca will become the new national team trainer for Mexico",
    source_tokens=[1, 2, 3, 4, 5, 6, 7],
    target_tokens=[8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
)


# -- rendering -----------------------------------------------------------------


def test_render_full_prompted_prepends_english_language_names():
    docs = render(DIEGO, ContaminationMode.FULL_PROMPTED)
    assert len(docs) == 1
    assert docs[0].text == (
        "German: Diego Cocca wird neuer Nationaltrainer von Mexiko\n"
        "English: Diego Cocca will become the new national team trainer for Mexico"
    )
    assert docs[0].part == PART_WHOLE
    assert docs[0].lang == "de-en"


def test_render_source_only_is_bare_text():
    docs = render(DIEGO, ContaminationMode.SOURCE_ONLY)
    assert [d.text for d in docs] == ["Diego Cocca wird neuer Nationaltrainer von Mexiko"]
    assert docs[0].part == PART_WHOLE
    assert docs[0].lang == "de"


def test_render_target_only_is_bare_text():
    docs = render(DIEGO, ContaminationMode.TARGET_ONLY)
    assert [d.text for d in docs] == ["Diego Cocca will become the new national team trainer for Mexico"]
    assert docs[0].lang == "en"


@pytest.mark.parametrize("mode", [ContaminationMode.SPLIT_PAIR, ContaminationMode.BATCHED_PAIR])
def test_render_pair_modes_emit_two_bare_documents(mode):
    docs = render(DIEGO, mode)
    assert [d.part for d in docs] == [PART_SOURCE_HALF, PART_TARGET_HALF]
    assert docs[0].text == DIEGO.source_text
    assert docs[1].text == DIEGO.target_text


def test_render_unknown_language_tag_rejected():
    template = PromptTemplate(names={"de": "German"})  # no English
    with pytest.raises(TemplateError, match="'en'"):
        render(DIEGO, ContaminationMode.FULL_PROMPTED, template)


# -- config types ----------------------------------------------------------------


def test_condition_validation():
    with pytest.raises(ValueError):
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 0)
    condition = ContaminationCondition("full_prompted", "late", 1)
    assert condition.mode is ContaminationMode.FULL_PROMPTED
    assert condition.arity == 1
    assert ContaminationCondition("split_pair", "early", 2).arity == 2


def test_replace_cap():
    assert TrainingConfig(1000, 64).replace_cap() == 3
    assert TrainingConfig(1000, 512).replace_cap() == 25
    assert TrainingConfig(1000, 512, strict_cap=True).replace_cap() == 25
    assert TrainingConfig(1000, 100).replace_cap() == 5
    assert TrainingConfig(1000, 100, strict_cap=True).replace_cap() == 4
    with pytest.raises(ValueError):
        TrainingConfig(0, 64)
    with pytest.raises(ValueError):
        TrainingConfig(10, 64, max_replace_frac=1.5)


@pytest.mark.parametrize("field, message", [
    ("batch_size", "batch_size must be >= 1"),
    ("window_frac", r"window_frac must be in \(0, 1\]"),
])
def test_training_config_refuses_an_empty_batch_or_window(field, message):
    with pytest.raises(ValueError, match=message):
        TrainingConfig(**{"total_steps": 10, "batch_size": 64, field: 0})


def test_counter_rng_is_reproducible_and_bounded():
    a = CounterRng(42)
    b = CounterRng(42)
    assert [a.draw64() for _ in range(5)] == [b.draw64() for _ in range(5)]
    c = CounterRng(43)
    assert a.draw64() != c.draw64()
    rng = CounterRng(7)
    values = [rng.below(10) for _ in range(1000)]
    assert set(values) <= set(range(10))
    assert len(set(values)) == 10


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**64, 0x9E3779B97F4A7C15])
@settings(max_examples=20, deadline=None)
@given(pattern=st.lists(st.sampled_from([None, 1, 3, 2**63 + 1, 2**64]), min_size=1, max_size=12),
       skip=st.integers(min_value=0, max_value=1100))
@example(pattern=[2**63 + 1], skip=0)
def test_counter_rng_draws_equal_the_scalar_splitmix64_formula(seed, pattern, skip):
    # after ``skip`` plain draws, ``pattern`` repeats for 2,600 calls: at least
    # 2,600 draws, so at least two block ends, each met at a varied call; a
    # None calls draw64, an n calls below(n), which at 2**63 + 1 rejects about
    # half its draws, so a rejection also runs across block ends (the explicit
    # example does so at every seed here)
    rng, i = CounterRng(seed), 0
    for n in itertools.chain(itertools.repeat(None, skip), itertools.islice(itertools.cycle(pattern), 2600)):
        if n is None:
            assert rng.draw64() == splitmix64(seed, i)
            i += 1
        else:
            while (v := splitmix64(seed, i)) >= 2**64 - 2**64 % n:  # rejected
                i += 1
            i += 1
            assert rng.below(n) == v % n
        assert rng.counter == i


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_sampled_slots_equal_a_shuffle_of_the_whole_batch(batch_size, seed, data):
    k = data.draw(st.integers(min_value=0, max_value=batch_size))
    rng, oracle = CounterRng(seed), CounterRng(seed)
    assert _sample_slots(rng, batch_size, k) == array_sample_slots(oracle, batch_size, k)
    assert rng.counter == oracle.counter


def test_planning_memory_follows_the_entries_not_the_batch_size():
    # 100 entries over a 20-step window of a million-slot batch
    config = TrainingConfig(total_steps=200, batch_size=10**6, seed=3)
    condition = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 10)
    examples = _examples(10)
    tracemalloc.start()
    try:
        schedule = plan_schedule(examples, condition, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule.entries) == 100
    # a list of every slot of one batch would take over 8 MB
    assert peak < 1_000_000, f"planning traced a peak of {peak} bytes"


@pytest.mark.parametrize("temporal", [Temporal.UNIFORM, Temporal.LATE])
def test_planning_memory_follows_the_entries_not_the_window_width(temporal):
    # 20 entries in a window of more than 2**56 steps: fill counts held per step
    # of the window would take far more than the bound
    config = TrainingConfig(total_steps=2**62, batch_size=64, seed=3)
    condition = ContaminationCondition(ContaminationMode.SPLIT_PAIR, temporal, 1)
    examples = _examples(10)
    tracemalloc.start()
    try:
        schedule = plan_schedule(examples, condition, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule.entries) == 20
    assert schedule.window_end - schedule.window_start > 2**56
    assert peak < 1_000_000, f"planning traced a peak of {peak} bytes"


# -- planning ---------------------------------------------------------------------


def _examples(count, seed=0):
    rng = random.Random(seed)
    return [
        make_example(
            f"ex{i}",
            [rng.randrange(1000) for _ in range(10)],
            [rng.randrange(1000) for _ in range(10)],
        )
        for i in range(count)
    ]


CONFIG = TrainingConfig(total_steps=1000, batch_size=64, seed=11)


def test_entry_count_is_examples_times_copies_times_arity():
    schedule = plan_schedule(
        _examples(5),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 10),
        CONFIG,
    )
    assert len(schedule.entries) == 50
    assert schedule.example_count == 5


def test_late_plan_stays_at_or_after_ninety_percent_under_cap():
    schedule = plan_schedule(
        _examples(3),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 20),
        CONFIG,
    )
    per_step = {}
    for e in schedule.entries:
        assert e.step >= 900
        assert e.step < 1000
        per_step[e.step] = per_step.get(e.step, 0) + 1
    assert max(per_step.values()) <= 3
    assert schedule.branch_step == 900


def test_uniform_plan_spans_thirty_to_ninety_percent():
    schedule = plan_schedule(
        _examples(4),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.UNIFORM, 25),
        CONFIG,
    )
    steps = [e.step for e in schedule.entries]
    assert all(300 <= s <= 900 for s in steps)
    assert len(schedule.entries) == 100


def test_early_and_middle_window_starts():
    for temporal, start in ((Temporal.EARLY, 300), (Temporal.MIDDLE, 600)):
        schedule = plan_schedule(
            _examples(2),
            ContaminationCondition(ContaminationMode.FULL_PROMPTED, temporal, 5),
            CONFIG,
        )
        assert schedule.window_start == start
        assert all(start <= e.step < schedule.window_end for e in schedule.entries)
        assert schedule.window_end <= start + 20  # default 2% window of 1000 steps


def test_batched_pair_halves_share_step_split_halves_do_not():
    batched = plan_schedule(
        _examples(3),
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.MIDDLE, 4),
        CONFIG,
    )
    split = plan_schedule(
        _examples(3),
        ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.MIDDLE, 4),
        CONFIG,
    )
    for schedule, same_step in ((batched, True), (split, False)):
        groups = {}
        for e in schedule.entries:
            groups.setdefault((e.example_id, e.copy_index), []).append(e)
        assert all(len(g) == 2 for g in groups.values())
        for group in groups.values():
            steps = {e.step for e in group}
            assert (len(steps) == 1) == same_step
            slots = [(e.step, e.slot) for e in group]
            assert len(set(slots)) == 2


def test_schedule_is_deterministic_and_seed_changes_placement(tmp_path):
    condition = ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.UNIFORM, 10)
    a = plan_schedule(_examples(4), condition, CONFIG)
    b = plan_schedule(_examples(4), condition, CONFIG)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_schedule(a, pa)
    write_schedule(b, pb)
    assert pa.read_bytes() == pb.read_bytes()

    other = plan_schedule(_examples(4), condition, TrainingConfig(1000, 64, seed=12))
    assert len(other.entries) == len(a.entries)
    assert (other.window_start, other.window_end) == (a.window_start, a.window_end)
    assert [(e.step, e.slot) for e in other.entries] != [(e.step, e.slot) for e in a.entries]


# sha256 of the schedule file of 3 examples x 4 copies on 200 steps x 64, seed 7,
# as written by the contamkit-planner/1 generator: a plan is byte-stable across
# code versions for as long as GENERATOR_VERSION stays the same
PLAN_DIGESTS = {
    ("full_prompted", "early"): "eb2516fa0bdce34412653da70466f8abed12e9cfdbff4f8f4e97ff4c8bc354cd",
    ("full_prompted", "middle"): "ce6205d1815948a5ed375aa7f2fba43e0725fd98e2f090c4ab0091975cb608c9",
    ("full_prompted", "late"): "a9532045a6aea8d9f060b2e20d15c9c6f41ef3079f1b8214cecc66b5cc383a9b",
    ("full_prompted", "uniform"): "258350171eaa1cdc73a1677a897e25e03e58b1df842e2e746f3be4ebc17a552e",
    ("source_only", "early"): "1ee68ba128c485f2553840652f2fc4792cb65b9474d2ffbf229ddbc83246dc53",
    ("source_only", "middle"): "50161112b999da4b2a86b549457fff9f5689d7ac09188c6416e52fb97c3e44b8",
    ("source_only", "late"): "83fa0e459d6760fdfd62fb068870823e61bf19f15238f90e2fb6a1ab8f4a2ab8",
    ("source_only", "uniform"): "72bb53346c302cd15bc9580014436b717ae23e4821d0d381f9928d5eaddd812d",
    ("target_only", "early"): "ee13ea3c9a2b1ae92621382e02c4efdfff5a4c7a8e002f742fdd08c0013ebc6d",
    ("target_only", "middle"): "d574be92bcb2e49c561aeba3fde8ce460129462c008d563b3ea55785b01bce08",
    ("target_only", "late"): "059de1ff0b709070916ee3c1b5c237df709077431f12c461c7395e02cae2cdb6",
    ("target_only", "uniform"): "b22bb867f27f7a8b88704b3edac375ddd335e86b388082a01075b75b88db5ac7",
    ("split_pair", "early"): "d56d21852818eb60c542804533db5bc3e252317c8b080d36cd63b492f7f0d288",
    ("split_pair", "middle"): "6ff40f1cfadb9f3ede831d3aecd1d6563e4704758046ec54ce560a67a269d657",
    ("split_pair", "late"): "ba2caae50c6aab6ca84368bbe1bda904909be41e16c0498b3f6fefef82192287",
    ("split_pair", "uniform"): "d3faa5e4ca5c3a0efd47f910d5a47d5e9d127473b96293c6ce528c0f013c7537",
    ("batched_pair", "early"): "c5adea73ec0f1d1ca6c7b2109ff068312be2898fd97356df7e8f1be6310f7268",
    ("batched_pair", "middle"): "d3a6559111c48886c1ba49abe23545aa7aea907412d38f4a483e215aa02534c2",
    ("batched_pair", "late"): "7e2903b563723b14b04e167e05df5404dd67c7702df6e7951159fb2142030180",
    ("batched_pair", "uniform"): "eeffa76a595cb6c8f317499566b2bedf9561bf6fb93ce328683ee7c99d212cbb",
}


def test_schedule_files_match_recorded_digests(tmp_path):
    config = TrainingConfig(total_steps=200, batch_size=64, seed=7)
    path = tmp_path / "plan.jsonl"
    digests = {}
    for mode, temporal in itertools.product(ContaminationMode, Temporal):
        write_schedule(plan_schedule(_examples(3), ContaminationCondition(mode, temporal, 4), config), path)
        digests[(mode.value, temporal.value)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PLAN_DIGESTS


# sha256 of the schedule files of plans that draw past several 1,024-draw
# blocks and fill their windows so nearly that placement falls back to the
# scan, as written by the contamkit-planner/1 generator
BLOCK_PLAN_DIGESTS = {
    # 40 examples x 50 copies, window of 400 steps x cap 5 filled exactly: 6,694 draws
    ("full_prompted", "late", 40, 50, 10000, 100): "b88d0b6f53838437d5d475e5b32f16226c4adfc8e5e43c18cf08fe555f447771",
    # 600 halves in 601 steps x cap 1: 3,332 draws
    ("split_pair", "uniform", 30, 10, 1000, 20): "4261af82eb4721b7c7471cd624d31aac7ce570374b0b9a399ea6f0a444df5bd6",
    # 600 pairs in 300 steps x 2 pairs: 3,193 draws
    ("batched_pair", "middle", 30, 20, 10000, 100): "f3ca1c6132f04e72eb0fe2cd2652d16ae22dbbd6a64c1b9a0b76abf53d3cd09c",
}


@pytest.mark.parametrize("case", BLOCK_PLAN_DIGESTS)
def test_block_crossing_plans_match_recorded_digests(tmp_path, case):
    mode, temporal, count, copies, total_steps, batch_size = case
    condition = ContaminationCondition(mode, temporal, copies)
    config = TrainingConfig(total_steps=total_steps, batch_size=batch_size, seed=5)
    path = tmp_path / "plan.jsonl"
    write_schedule(plan_schedule(_examples(count), condition, config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BLOCK_PLAN_DIGESTS[case]


def _sweep_configs(count, seed):
    """Random small plan configs over every mode and temporal setting: about
    half of them are capacity errors, and a few wedge a split_pair window."""
    rng = random.Random(seed)
    for _ in range(count):
        condition = ContaminationCondition(
            rng.choice(list(ContaminationMode)), rng.choice(list(Temporal)), rng.randint(1, 6)
        )
        config = TrainingConfig(
            total_steps=rng.randint(2, 60),
            batch_size=rng.randint(1, 40),
            max_replace_frac=rng.choice((0.05, 0.1, 0.125, 0.2, 0.25, 0.5)),
            window_frac=rng.choice((0.001, 0.02, 0.05, 0.1, 0.3, 1.0)),
            seed=rng.randrange(1 << 32),
            strict_cap=rng.random() < 0.5,
        )
        yield rng.randint(1, 8), condition, config


# sha256 over 5,000 swept configs (seed 2) of each plan's window, cap and
# entries, or each CapacityError's message and counts, as planned by the
# contamkit-planner/1 generator
PLAN_SWEEP_DIGEST = "e980fb9055c7084da832a993e522430240ef5ebaee7cd38026e11b688cca44a8"


def test_plan_sweep_matches_recorded_digest():
    examples = _examples(8)
    digest = hashlib.sha256()
    for count, condition, config in _sweep_configs(5000, seed=2):
        try:
            schedule = plan_schedule(examples[:count], condition, config)
        except CapacityError as e:
            digest.update(f"error {e} {e.required} {e.available}\n".encode())
            continue
        digest.update(f"plan {schedule.window_start} {schedule.window_end} {schedule.cap}\n".encode())
        for entry in schedule.entries:
            digest.update(f"{dataclasses.astuple(entry)!r}\n".encode())
    assert digest.hexdigest() == PLAN_SWEEP_DIGEST


def test_capacity_error_reports_required_vs_available():
    config = TrainingConfig(total_steps=100, batch_size=64, seed=1)  # late window: steps 90..99, cap 3
    with pytest.raises(CapacityError) as err:
        plan_schedule(
            _examples(2),
            ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 100),
            config,
        )
    assert err.value.required == 200
    assert err.value.available == 30
    assert "200" in str(err.value) and "30" in str(err.value)


def test_split_pair_in_a_one_step_window_is_a_capacity_error():
    config = TrainingConfig(total_steps=10, batch_size=64, seed=1)  # late window: step 9 only
    with pytest.raises(CapacityError) as err:
        plan_schedule(_examples(1), ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.LATE, 1), config)
    assert str(err.value) == "split_pair needs a window of at least 2 steps, window has 1"
    assert (err.value.required, err.value.available) == (2, 1)


def test_duplicate_example_ids_rejected():
    examples = _examples(2)
    examples[1].example_id = examples[0].example_id
    with pytest.raises(ValueError, match="unique"):
        plan_schedule(
            examples,
            ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1),
            CONFIG,
        )


def test_cap_of_zero_is_an_error():
    with pytest.raises(CapacityError):
        plan_schedule(
            _examples(1),
            ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1),
            TrainingConfig(total_steps=100, batch_size=10, max_replace_frac=0.05, seed=1),
        )


def test_plan_of_no_examples_is_an_error():
    with pytest.raises(ValueError, match="examples must be non-empty"):
        plan_schedule([], ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1), CONFIG)


def test_split_pair_repair_looks_past_a_step_its_own_copy_took():
    # 20 halves fill the 4-step window exactly; the copy that needs a repair
    # already holds the window's first step, so a half is moved off a later one
    config = TrainingConfig(total_steps=5, batch_size=10, max_replace_frac=0.5, seed=2)
    condition = ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.UNIFORM, 5)
    schedule = plan_schedule(_examples(2), condition, config)
    assert (schedule.window_start, schedule.window_end, schedule.cap) == (1, 5, 5)
    assert len(schedule.entries) == 20
    assert verify_schedule(schedule).ok


def test_schedule_file_round_trip(tmp_path):
    condition = ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.LATE, 3)
    schedule = plan_schedule(_examples(2), condition, CONFIG)
    path = tmp_path / "plan.jsonl"
    write_schedule(schedule, path)
    again = read_schedule(path)
    assert again.condition == schedule.condition
    assert again.config == schedule.config
    assert again.entries == schedule.entries
    assert (again.cap, again.window_start, again.window_end) == (
        schedule.cap, schedule.window_start, schedule.window_end,
    )
    write_schedule(again, tmp_path / "copy.jsonl")
    assert (tmp_path / "copy.jsonl").read_bytes() == path.read_bytes()


# -- verification ------------------------------------------------------------------


def _all_conditions():
    for mode, temporal, copies in itertools.product(ContaminationMode, Temporal, (1, 10, 100)):
        yield ContaminationCondition(mode, temporal, copies)


def test_verify_passes_for_every_condition_cell():
    examples = _examples(1)
    for condition in _all_conditions():
        schedule = plan_schedule(examples, condition, CONFIG)
        report = verify_schedule(schedule)
        assert report.ok, (condition, report.violations)


def test_verify_flags_window_violation():
    schedule = plan_schedule(
        _examples(2),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 5),
        CONFIG,
    )
    e, *rest = schedule.entries
    moved = ScheduleEntry(10, e.slot, e.example_id, e.copy_index, e.part, e.rendered_text, e.lang)
    schedule = dataclasses.replace(schedule, entries=[moved, *rest])
    report = verify_schedule(schedule)
    assert not report.ok
    assert sum("outside window" in v for v in report.violations) == 1
    assert "ok" not in report.summary().splitlines()[0]


def test_verify_flags_cap_violation():
    schedule = plan_schedule(
        _examples(2),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 5),
        CONFIG,
    )
    step = schedule.entries[0].step
    schedule = dataclasses.replace(schedule, entries=[
        ScheduleEntry(step, i, e.example_id, e.copy_index, e.part, e.rendered_text, e.lang)
        for i, e in enumerate(schedule.entries)
    ])
    report = verify_schedule(schedule)
    assert any("cap" in v for v in report.violations)


def test_verify_flags_missing_half():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.MIDDLE, 2),
        CONFIG,
    )
    schedule = dataclasses.replace(schedule, entries=schedule.entries[:-1])
    report = verify_schedule(schedule)
    assert any("entry count" in v for v in report.violations)
    assert any("parts" in v for v in report.violations)


# each damage returns the damaged schedule and the violations verify must report


def _cap_too_high(schedule):
    return dataclasses.replace(schedule, cap=schedule.cap + 1), ["header cap 4 does not match config cap 3"]


def _window_past_the_end(schedule):
    return dataclasses.replace(schedule, window_end=1001), ["window [900, 1001) outside training range [0, 1000)"]


def _slot_past_the_batch(schedule):
    e, *rest = schedule.entries
    e = dataclasses.replace(e, slot=64)
    return (
        dataclasses.replace(schedule, entries=[e, *rest]),
        [f"entry at step {e.step} has slot 64 outside batch of 64"],
    )


def _slot_taken_twice(schedule):
    first, second, *rest = schedule.entries
    second = dataclasses.replace(second, step=first.step, slot=first.slot)
    return (
        dataclasses.replace(schedule, entries=[first, second, *rest]),
        [f"slot collision at (step {first.step}, slot {first.slot})"],
    )


def _copy_index_skipped(schedule):
    entries = [dataclasses.replace(e, copy_index=2) if e.copy_index == 1 else e for e in schedule.entries]
    return dataclasses.replace(schedule, entries=entries), ["ex0: copy indexes [0, 2] do not cover 0..1"]


DAMAGES = [_cap_too_high, _window_past_the_end, _slot_past_the_batch, _slot_taken_twice, _copy_index_skipped]


@pytest.mark.parametrize("damage", DAMAGES)
def test_verify_flags_each_damaged_header_or_entry(damage):
    schedule = plan_schedule(
        _examples(1), ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 2), CONFIG
    )
    assert (schedule.window_start, schedule.cap) == (900, 3)
    schedule, expected = damage(schedule)
    assert verify_schedule(schedule).violations == expected
    assert verify_schedule(schedule) == verify_schedule_per_entry(schedule)  # the seed cases of the oracle test below


def test_verify_work_follows_the_entries_not_the_header_copies():
    # 3 entries under a header of 10**7 copies: the uncovered copies are
    # reported without a list of every copy index the header names
    schedule = plan_schedule(
        _examples(1), ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 3), CONFIG
    )
    copies = 10**7
    schedule = dataclasses.replace(
        schedule, condition=ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, copies)
    )
    tracemalloc.start()
    try:
        violations = verify_schedule(schedule).violations
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == [
        f"entry count 3 != examples x copies x arity = {copies}",
        f"ex0: copy indexes [0, 1, 2] do not cover 0..{copies - 1}",
    ]
    assert peak < 1 << 20, f"verify of 3 entries peaked at {peak} bytes"


@pytest.mark.parametrize("damage", DAMAGES)
def test_apply_batches_refuses_each_schedule_verify_flags_before_pulling_a_batch(damage):
    schedule = plan_schedule(
        _examples(1), ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 2), CONFIG
    )
    schedule, (violation,) = damage(schedule)
    pulled = []

    def source():
        for batch in _synth_stream(1000, 64).steps:
            pulled.append(batch)
            yield batch

    with pytest.raises(ScheduleError) as err:
        next(apply_batches(source(), schedule))
    assert str(err.value) == f"schedule check: 1 violation(s), the first: {violation}"
    assert pulled == []


def _move_one_half(schedule, to_step):
    """Move the second half of the first copy whose ``to_step(first)`` step has
    room under the cap to that step's first free slot; returns the damaged
    schedule and the copy's key."""
    load = {}
    for e in schedule.entries:
        load[e.step] = load.get(e.step, 0) + 1
    used = {(e.step, e.slot) for e in schedule.entries}
    first = {}
    for i, e in enumerate(schedule.entries):
        key = (e.example_id, e.copy_index)
        if key not in first:
            first[key] = e
            continue
        step = to_step(first[key])
        if step != e.step and load.get(step, 0) < schedule.cap:
            slot = next(s for s in range(schedule.config.batch_size) if (step, s) not in used)
            entries = list(schedule.entries)
            entries[i] = dataclasses.replace(e, step=step, slot=slot)
            return dataclasses.replace(schedule, entries=entries), key
    raise AssertionError("no copy can be moved")


def test_verify_flags_batched_half_in_another_step():
    schedule = plan_schedule(
        _examples(3),
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.MIDDLE, 4),
        CONFIG,
    )
    steps = range(schedule.window_start, schedule.window_end)
    schedule, (example_id, copy) = _move_one_half(
        schedule, lambda e: steps[(e.step - schedule.window_start + 1) % len(steps)]
    )
    assert verify_schedule(schedule).violations == [
        f"({example_id}, copy {copy}): batched halves are not in the same step"
    ]


def test_verify_flags_split_halves_in_one_step():
    schedule = plan_schedule(
        _examples(3),
        ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.MIDDLE, 4),
        CONFIG,
    )
    schedule, (example_id, copy) = _move_one_half(schedule, lambda e: e.step)
    assert verify_schedule(schedule).violations == [f"({example_id}, copy {copy}): split halves share a step"]


SMALL = TrainingConfig(total_steps=100, batch_size=8, max_replace_frac=0.5)  # cap 4, late window [90, 96) at most
PARTS = (PART_WHOLE, PART_SOURCE_HALF, PART_TARGET_HALF)


def _damage(data, schedule, entries):
    """Apply one drawn damage to ``entries`` (a list, edited in place); returns the schedule header to use."""
    kind = data.draw(st.sampled_from(
        ["step", "slot", "duplicate", "drop", "append", "copy", "part", "same_step", "cap"]
    ), label="damage")
    if kind == "cap":
        return dataclasses.replace(schedule, cap=schedule.cap + data.draw(st.sampled_from([-1, 1])))
    if kind == "append" or not entries:
        entries.append(ScheduleEntry(
            step=data.draw(st.integers(schedule.window_start, schedule.window_end - 1)),
            slot=data.draw(st.integers(0, SMALL.batch_size - 1)),
            example_id=data.draw(st.sampled_from(["ex0", "ex1", "ghost"])),
            copy_index=data.draw(st.integers(0, schedule.condition.copies)),
            part=data.draw(st.sampled_from(PARTS)),
            rendered_text="appended",
            lang="de-en",
        ))
        return schedule
    i = data.draw(st.integers(0, len(entries) - 1), label="entry")
    e = entries[i]
    if kind == "step":
        step = data.draw(st.sampled_from([schedule.window_start - 1, schedule.window_end, -1, SMALL.total_steps]))
        entries[i] = dataclasses.replace(e, step=step)
    elif kind == "slot":
        entries[i] = dataclasses.replace(e, slot=data.draw(st.sampled_from([-1, SMALL.batch_size, 50])))
    elif kind == "duplicate":
        entries.insert(data.draw(st.integers(0, len(entries))), e)
    elif kind == "drop":
        del entries[i]
    elif kind == "copy":
        entries[i] = dataclasses.replace(e, copy_index=data.draw(st.integers(-1, schedule.condition.copies + 1)))
    elif kind == "part":
        entries[i] = dataclasses.replace(e, part=data.draw(st.sampled_from([*PARTS, "bogus"])))
    else:  # same_step: put the entry on the step of another half of its copy (of any entry when it has none)
        unit = (e.example_id, e.copy_index)
        others = [o for j, o in enumerate(entries) if j != i and (o.example_id, o.copy_index) == unit]
        other = data.draw(st.sampled_from(others or entries))
        entries[i] = dataclasses.replace(e, step=other.step, slot=data.draw(st.integers(0, SMALL.batch_size - 1)))
    return schedule


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_matches_the_per_entry_oracle_on_damaged_plans(data):
    # small plans of every mode with up to three damages: the same report, each violation in the same order
    condition = ContaminationCondition(
        data.draw(st.sampled_from(list(ContaminationMode)), label="mode"),
        data.draw(st.sampled_from(list(Temporal)), label="temporal"),
        data.draw(st.integers(1, 3), label="copies"),
    )
    config = dataclasses.replace(SMALL, seed=data.draw(st.integers(0, 2**16), label="seed"))
    schedule = plan_schedule(_examples(data.draw(st.integers(1, 3), label="examples")), condition, config)
    entries = list(schedule.entries)
    for _ in range(data.draw(st.integers(0, 3), label="damages")):
        schedule = _damage(data, schedule, entries)
    schedule = dataclasses.replace(schedule, entries=entries)
    report = verify_schedule(schedule)
    assert report == verify_schedule_per_entry(schedule)
    assert list(schedule.entries) == entries


def test_verify_memory_follows_integer_keys_not_tuples(tmp_path):
    # a read 100,000-entry plan (1,000 examples x 100 copies at 155,000 x 512); its columns hold
    # about 5.9 MB, and sets of (step, slot) and (example, copy, ...) tuples added a 14.6 MB peak
    path = tmp_path / "plan.jsonl"
    condition = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 100)
    write_schedule(plan_schedule(_examples(1000), condition, TrainingConfig(total_steps=155_000, batch_size=512)),
                   path)
    schedule = read_schedule(path)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        report = verify_schedule(schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.entry_count == 100_000
    assert peak - held < 7_000_000, f"verify traced {peak - held} bytes over what it started with"
    assert report == verify_schedule_per_entry(schedule)


# -- application --------------------------------------------------------------------


def _diff_slots(a: BatchStream, b: BatchStream):
    return [
        (step, slot)
        for step in range(len(a.steps))
        for slot in range(a.batch_size)
        if a.steps[step][slot] != b.steps[step][slot]
    ]


def test_apply_empty_schedule_is_identity():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1),
        CONFIG,
    )
    schedule = dataclasses.replace(schedule, example_count=0, entries=[])
    stream = _synth_stream(1000, 64)
    assert apply_schedule(stream, schedule) == stream


def test_apply_single_entry_changes_one_slot():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.TARGET_ONLY, Temporal.MIDDLE, 1),
        CONFIG,
    )
    stream = _synth_stream(1000, 64)
    out = apply_schedule(stream, schedule)
    entry = schedule.entries[0]
    assert _diff_slots(stream, out) == [(entry.step, entry.slot)]
    doc = out.steps[entry.step][entry.slot]
    assert doc.category == "contamination"
    assert doc.text == entry.rendered_text
    assert doc.tokens == []


def test_apply_with_tokenizer_populates_tokens():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.SOURCE_ONLY, Temporal.EARLY, 1),
        CONFIG,
    )
    stream = _synth_stream(1000, 64)
    out = apply_schedule(stream, schedule, tokenizer=lambda text: [len(w) for w in text.split()])
    entry = schedule.entries[0]
    doc = out.steps[entry.step][entry.slot]
    assert doc.tokens == [len(w) for w in entry.rendered_text.split()]


def test_apply_dimension_mismatch_rejected():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1),
        CONFIG,
    )
    with pytest.raises(ValueError, match="batch_size"):
        apply_schedule(_synth_stream(1000, 32), schedule)
    with pytest.raises(ValueError, match="steps"):
        apply_schedule(_synth_stream(10, 64), schedule)


def test_apply_rejects_a_short_batch_at_any_step():
    config = TrainingConfig(total_steps=20, batch_size=10, max_replace_frac=0.5, seed=3)
    schedule = plan_schedule(
        _examples(3), ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1), config
    )
    stream = _synth_stream(20, 10)
    last = schedule.entries[-1]
    assert last.step > 0
    del stream.steps[last.step][last.slot :]  # the batch ends before its slot
    message = f"stream batch_size {last.slot} does not match schedule batch_size 10"
    with pytest.raises(StreamShapeError, match=message):
        apply_schedule(stream, schedule)


def test_apply_refuses_a_slot_past_the_batch_on_a_step_the_stream_reaches():
    config = TrainingConfig(total_steps=20, batch_size=10, max_replace_frac=0.5, seed=3)
    schedule = plan_schedule(
        _examples(1), ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1), config
    )
    e, *rest = schedule.entries
    e = dataclasses.replace(e, slot=10)
    schedule = dataclasses.replace(schedule, entries=[e, *rest])
    message = rf"^schedule check: 1 violation\(s\), the first: entry at step {e.step} has slot 10 outside batch of 10$"
    with pytest.raises(ValueError, match=message):
        apply_schedule(_synth_stream(20, 10), schedule)


def test_apply_require_parallel_slots():
    schedule = plan_schedule(
        _examples(2),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.UNIFORM, 5),
        CONFIG,
    )
    targets = [(e.step, e.slot) for e in schedule.entries]
    coordinated = _synth_stream(1000, 64, parallel_slots=targets)
    out = apply_schedule(coordinated, schedule, require_parallel_slots=True)
    # parallel-budget count per batch (contamination counts toward it) is unchanged
    for step in range(1000):
        before = sum(d.category in ("parallel", "contamination") for d in coordinated.steps[step])
        after = sum(d.category in ("parallel", "contamination") for d in out.steps[step])
        assert before == after

    uncoordinated = _synth_stream(1000, 64)
    if any(slot != 0 for _, slot in targets):
        with pytest.raises(ValueError, match="parallel"):
            apply_schedule(uncoordinated, schedule, require_parallel_slots=True)


def test_apply_untouched_slots_are_identical_objects():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.SPLIT_PAIR, Temporal.LATE, 2),
        CONFIG,
    )
    stream = _synth_stream(1000, 64)
    out = apply_schedule(stream, schedule)
    touched = {(e.step, e.slot) for e in schedule.entries}
    for step in range(1000):
        for slot in range(64):
            if (step, slot) not in touched:
                assert out.steps[step][slot] is stream.steps[step][slot]


def test_apply_batches_holds_one_batch_at_a_time():
    schedule = plan_schedule(
        _examples(2),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.UNIFORM, 5),
        CONFIG,
    )
    stream = _synth_stream(1000, 64)
    pulled = []

    def source():
        for step, batch in enumerate(stream.steps):
            pulled.append(step)
            yield batch

    expected = apply_schedule(stream, schedule)
    for step, batch in enumerate(apply_batches(source(), schedule)):
        assert pulled[-1] == step
        assert batch == expected.steps[step]
    assert len(pulled) == 1000


def test_apply_batches_checks_targets_before_and_after_the_stream():
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 2),
        CONFIG,
    )
    first = schedule.entries[0]
    schedule = dataclasses.replace(schedule, entries=[*schedule.entries, first])
    message = r"3 violation\(s\), the first: entry count 3 != examples x copies x arity = 2"
    with pytest.raises(ValueError, match=message):
        next(apply_batches(iter(()), schedule))

    schedule = dataclasses.replace(schedule, entries=[*schedule.entries[:-1], dataclasses.replace(first, step=1000)])
    with pytest.raises(ValueError, match=message):
        next(apply_batches(_synth_stream(1000, 64).steps, schedule))


# an appended entry breaks the entry count and its copy's parts besides its own fault
REFUSAL = r"schedule check: 3 violation\(s\), the first: entry count 3 != examples x copies x arity = 2"


@pytest.mark.parametrize("change, message, flagged", [
    (dict(step=-1), REFUSAL, r"entry \(ex0, copy 1, whole\) at step -1 outside window \[900, 920\)"),
    (dict(step=1000), REFUSAL, r"entry \(ex0, copy 1, whole\) at step 1000 outside window \[900, 920\)"),
    (dict(slot=-1), REFUSAL, r"entry at step \d+ has slot -1 outside batch of 64"),
    (dict(slot=64), REFUSAL, r"entry at step \d+ has slot 64 outside batch of 64"),
    ({}, REFUSAL, r"slot collision at \(step \d+, slot \d+\)"),
])
def test_apply_batches_refuses_a_faulty_schedule_before_pulling_a_batch(change, message, flagged):
    schedule = plan_schedule(
        _examples(1),
        ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 2),
        CONFIG,
    )
    schedule = dataclasses.replace(
        schedule, entries=[*schedule.entries, dataclasses.replace(schedule.entries[0], **change)]
    )
    pulled = []

    def source():
        for batch in _synth_stream(1000, 64).steps:
            pulled.append(batch)
            yield batch

    with pytest.raises(ValueError, match=f"^{message}$"):
        next(apply_batches(source(), schedule))
    assert pulled == []
    # the count and the first violation are the same for every case; verify names each fault
    assert any(re.fullmatch(flagged, v) for v in verify_schedule(schedule).violations)
