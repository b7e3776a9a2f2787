"""Inject -> detect round trip: the detector finds exactly what the injector planted.

A random test set has a random subset of its examples planted by
`plan_schedule` and `apply_schedule` under one of the five modes. A lookup
tokenizer gives each rendered document the token ids of the fields it
carries: a `whole` document both fields (or the one field of `source_only`
and `target_only`), a half its own field. `build_index` over the applied
stream and `decontaminate` must then label each planted example as its mode
says and every other example `clean`, and find each planted field's longest
span in one of that example's injected documents, at a step inside the
schedule's window.
"""

from hypothesis import given, settings, strategies as st

from contamkit.conditions import MODE_LAYOUT, PART_SOURCE_HALF, PART_TARGET_HALF, PART_WHOLE
from contamkit.decontam import ContaminationLabel, classify, decontaminate
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    apply_schedule,
    plan_schedule,
)
from contamkit.ngram_index import ScanConfig, build_index

from helpers import make_example
from test_injector import _synth_stream

STEPS = 200
BATCH = 16
# background documents hold token ids below 500, test fields ids from FIELD_IDS up
STREAM = _synth_stream(STEPS, BATCH)
FIELD_IDS = 1000

# the fields a `whole` document carries, per mode; a half carries its own
WHOLE_FIELDS = {
    ContaminationMode.FULL_PROMPTED: ("source", "target"),
    ContaminationMode.SOURCE_ONLY: ("source",),
    ContaminationMode.TARGET_ONLY: ("target",),
}
HALF_FIELDS = {PART_SOURCE_HALF: ("source",), PART_TARGET_HALF: ("target",)}
LABEL = {
    ContaminationMode.SOURCE_ONLY: ContaminationLabel.SOURCE_ONLY,
    ContaminationMode.TARGET_ONLY: ContaminationLabel.TARGET_ONLY,
}


@st.composite
def example_sets(draw):
    """Examples whose fields share no token id with each other or the background, and the planted mask."""
    lengths = draw(st.lists(st.tuples(st.integers(1, 24), st.integers(1, 24)), min_size=1, max_size=8))
    ids = draw(st.permutations(range(FIELD_IDS, FIELD_IDS + sum(s + t for s, t in lengths))))
    examples, at = [], 0
    for i, (s, t) in enumerate(lengths):
        pair = ("de", "en") if i % 2 == 0 else ("en", "cs")
        examples.append(make_example(f"ex{i}", ids[at : at + s], ids[at + s : at + s + t], pair=pair))
        at += s + t
    planted = draw(st.lists(st.booleans(), min_size=len(examples), max_size=len(examples)).filter(any))
    return examples, planted


@settings(max_examples=60, deadline=None)
@given(
    data=example_sets(),
    mode=st.sampled_from(ContaminationMode),
    temporal=st.sampled_from(Temporal),
    copies=st.integers(1, 3),
    seed=st.integers(-(2**31), 2**31),
    n=st.integers(1, 8),
)
def test_decontam_finds_exactly_what_inject_planted(data, mode, temporal, copies, seed, n):
    examples, planted = data
    targets = [ex for ex, p in zip(examples, planted) if p]
    config = TrainingConfig(total_steps=STEPS, batch_size=BATCH, max_replace_frac=0.25, seed=seed)
    schedule = plan_schedule(targets, ContaminationCondition(mode, temporal, copies), config)

    by_id = {ex.example_id: ex for ex in examples}
    carried = {PART_WHOLE: WHOLE_FIELDS.get(mode, ()), **HALF_FIELDS}
    lookup = {}
    for e in schedule.entries:
        tokens = [t for field in carried[e.part] for t in getattr(by_id[e.example_id], f"{field}_tokens")]
        assert lookup.setdefault(e.rendered_text, tokens) == tokens
    applied = apply_schedule(STREAM, schedule, tokenizer=lookup.__getitem__)

    step_of = {doc.doc_id: step for step, batch in enumerate(applied.steps) for doc in batch}
    scan = ScanConfig(ngram_order=n)
    index = build_index((doc for batch in applied.steps for doc in batch), scan)
    _, report = decontaminate(examples, index, scan)

    parts = {part for group in MODE_LAYOUT[mode] for part in group}
    fields = {field for part in parts for field in carried[part]}
    for ex, is_planted, (example_id, score) in zip(examples, planted, report.scores):
        assert example_id == ex.example_id
        label = classify(score, scan)
        if not is_planted:
            assert label is ContaminationLabel.CLEAN, example_id
            continue
        assert label is LABEL.get(mode, ContaminationLabel.BOTH), (example_id, label)
        for field in fields:
            span = score.longest_source if field == "source" else score.longest_target
            assert span is not None and span.length == len(getattr(ex, f"{field}_tokens"))
            doc_id = index.doc_id(span.doc_ref)
            prefix, owner, copy, part = doc_id.split("/")
            assert (prefix, owner) == ("inject", example_id), doc_id
            assert int(copy) in range(copies) and part in parts and field in carried[part], doc_id
            assert schedule.window_start <= step_of[doc_id] < schedule.window_end, doc_id

