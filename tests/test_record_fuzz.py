"""Fuzz the field types of every JSON-lines format through the CLI.

One field of one record of a valid test set, corpus, batch stream, schedule
or eval-record file is set to a JSON value of another type (int, float, bool,
null, string, list or object). Whatever the value, the command that reads the
file either succeeds or exits 2 with exactly one `error:` line, which names
one of the command's input files; it never raises out of `main`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.cli import main
from contamkit.corpus_io import CorpusDocument, example_to_record, write_batches
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    plan_schedule,
    write_schedule,
)

from helpers import _synth_stream, make_example, write_corpus

STEPS = 8
BATCH = 8
INPUT_FLAGS = ("--testset", "--corpus", "--stream", "--schedule", "--baseline", "--contaminated")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory of valid inputs, one file per format."""
    d = tmp_path_factory.mktemp("record_fuzz")
    examples = [make_example(f"ex{i}", [i + 1, 7], [i + 2, 9]) for i in range(3)]
    (d / "t.jsonl").write_text("".join(json.dumps(example_to_record(ex)) + "\n" for ex in examples))
    write_corpus([
        CorpusDocument("a", [1, 2, 3], "parallel", "de"),
        CorpusDocument("b", [4, 5], "contamination", "de-en", text="German: x\nEnglish: y"),
    ], d / "c.jsonl")
    schedule = plan_schedule(
        examples,
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.UNIFORM, 1),
        TrainingConfig(total_steps=STEPS, batch_size=BATCH, max_replace_frac=0.25, seed=5),
    )
    write_schedule(schedule, d / "plan.jsonl")
    write_batches(_synth_stream(STEPS, BATCH, seed=2).steps, d / "s.jsonl")
    for name, system, bleu in (("base.jsonl", "b", 30.5), ("cont.jsonl", "c", 33.0)):
        (d / name).write_text("".join(
            json.dumps({"system_id": system, "lang_pair": pair, "testset_id": "t", "bleu": bleu, "segment_count": 4})
            + "\n" for pair in ("en-de", "de-en")
        ))
    return d


def _commands(d):
    """The file each format lives in, and the commands that read it."""
    apply = ["inject", "apply", "--stream", str(d / "s.jsonl"), "--schedule", str(d / "plan.jsonl"),
             "--out", str(d / "out.jsonl")]
    return {
        "t.jsonl": [["inject", "plan", "--testset", str(d / "t.jsonl"), "--mode", "full_prompted",
                     "--temporal", "uniform", "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH),
                     "--cap", "0.5", "--out", str(d / "plan2.jsonl")]],
        "c.jsonl": [["index", "--corpus", str(d / "c.jsonl"), "--out", str(d / "c.ctkx")]],
        "s.jsonl": [apply],
        "plan.jsonl": [["inject", "verify", "--schedule", str(d / "plan.jsonl")], apply],
        "base.jsonl": [["report", "--baseline", str(d / "base.jsonl"), "--contaminated", str(d / "cont.jsonl")]],
    }


_JSON_VALUES = {
    int: st.integers(-(2**40), 2**40),
    float: st.floats(allow_nan=True, allow_infinity=True),
    bool: st.booleans(),
    type(None): st.none(),
    str: st.text(max_size=6),
    list: st.lists(st.one_of(st.integers(-3, 10), st.text(max_size=2)), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.one_of(st.integers(-3, 10), st.text(max_size=2)), max_size=2),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mistyped_field_runs_cleanly_or_exits_two(work, data):
    name = data.draw(st.sampled_from(sorted(_commands(work))), label="file")
    path = work / name
    good = path.read_text()
    records = [json.loads(line) for line in good.splitlines()]
    line = data.draw(st.integers(0, len(records) - 1), label="line")
    target = records[line]
    if "doc" in target and data.draw(st.booleans(), label="in doc"):
        target = target["doc"]  # a stream record's document
    key = data.draw(st.sampled_from(sorted(target)), label="field")
    kind = data.draw(st.sampled_from(sorted(set(_JSON_VALUES) - {type(target[key])}, key=str)), label="type")
    value = data.draw(_JSON_VALUES[kind], label="value")
    target[key] = value
    try:
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        for argv in _commands(work)[name]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            lines = stderr.getvalue().splitlines()
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                inputs = [path for flag, path in zip(argv, argv[1:]) if flag in INPUT_FLAGS]
                assert any(path in lines[0] for path in inputs), lines
            else:  # success; `inject verify` exits 1 when it finds a violation
                assert code in ((0, 1) if argv[1] == "verify" else (0,)), (code, lines)
                assert all(text.startswith("warning: ") for text in lines), lines
    finally:
        path.write_text(good)
