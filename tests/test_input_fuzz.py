"""Fuzz the bytes of every input format through the command that reads it.

A valid test set, jsonl or `ctk` corpus, schedule, eval-record file or
`bleu --tokens` hypothesis file is truncated at a random byte or line end, or
has one to three bytes overwritten (the batch stream has its own test in
`test_stream_fuzz.py`). Whatever the damage, each command either ends with its
normal exit code or exits 2 with exactly one `error:` line, which names one
of the command's input files. The work directory never holds a `*.tmp`, a
failed run leaves no output, and a successful apply writes exactly as many
contamination documents as the undamaged plan has entries.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.cli import main
from contamkit.corpus_io import CorpusDocument, example_to_record, iter_batches, write_batches
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    plan_schedule,
    write_schedule,
)

from helpers import make_example, write_corpus
from test_injector import _synth_stream
from test_stream_fuzz import _overwrite, _truncate

STEPS = 8
BATCH = 8
OUTPUTS = ("kept.jsonl", "scores.jsonl", "report.txt", "i.ctkx", "out.jsonl")


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(work directory, undamaged bytes per format, entries in the undamaged plan)."""
    d = tmp_path_factory.mktemp("input_fuzz")
    examples = [make_example(f"ex{i}", [i + 1, 7, 8, 9], [i + 2, 9, 9, 1]) for i in range(3)]
    _write_lines(d / "t.jsonl", map(example_to_record, examples))
    docs = [
        CorpusDocument("a", [1, 7, 8, 9, 5], "parallel", "de"),
        CorpusDocument("b", [40, 41, 42, 43], "contamination", "de-en", text="German: x\nEnglish: y"),
        CorpusDocument("c", [3, 7, 8, 9, 9, 1]),
    ]
    write_corpus(docs, d / "c.jsonl")
    write_corpus(docs, d / "c.ctk", fmt="ctk")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--corpus", str(d / "c.jsonl"), "--ngram", "3", "--out", str(d / "c.ctkx")]) == 0
    schedule = plan_schedule(
        examples,
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.UNIFORM, 2),
        TrainingConfig(total_steps=STEPS, batch_size=BATCH, max_replace_frac=0.25, seed=5),
    )
    write_schedule(schedule, d / "plan.jsonl")
    write_batches(_synth_stream(STEPS, BATCH, seed=2).steps, d / "s.jsonl")
    for name, bleu in (("base.jsonl", 30.5), ("cont.jsonl", 33.0)):
        _write_lines(d / name, [
            {"system_id": name[0], "lang_pair": pair, "testset_id": "t", "bleu": bleu, "segment_count": 4}
            for pair in ("en-de", "de-en")
        ])
    _write_lines(d / "hyp.jsonl", [[1, 2, 3, 4], [5, 6, 7], [10, 11, 12, 13, 14]])
    _write_lines(d / "ref.jsonl", [[1, 2, 3, 4], [5, 6, 8], [10, 11, 12, 13]])
    good = {name: (d / name).read_bytes() for name in ("t.jsonl", "c.jsonl", "c.ctk", "plan.jsonl", "base.jsonl",
                                                      "hyp.jsonl")}
    return d, good, len(schedule.entries)


def _cut_at_line_end(data: bytes):
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    return st.sampled_from(ends or [len(data)]).map(lambda k: data[:k])


def _commands(d, damaged):
    """The commands that read each format, with the exit codes they end with on valid input."""
    return {
        "t.jsonl": [(["decontam", "--testset", damaged, "--index", str(d / "c.ctkx"),
                      "--out", str(d / "kept.jsonl"), "--scores-out", str(d / "scores.jsonl"),
                      "--report-out", str(d / "report.txt")], (0, 3))],
        "c.jsonl": [(["index", "--corpus", damaged, "--ngram", "3", "--out", str(d / "i.ctkx")], (0,))],
        "c.ctk": [(["index", "--corpus", damaged, "--corpus-format", "ctk", "--ngram", "3",
                    "--out", str(d / "i.ctkx")], (0,))],
        "plan.jsonl": [
            (["inject", "verify", "--schedule", damaged], (0, 1)),
            (["inject", "apply", "--stream", str(d / "s.jsonl"), "--schedule", damaged, "--out", str(d / "out.jsonl")],
             (0,)),
        ],
        "base.jsonl": [(["report", "--baseline", damaged, "--contaminated", str(d / "cont.jsonl")], (0,))],
        "hyp.jsonl": [(["bleu", "--hyp", damaged, "--ref", str(d / "ref.jsonl"), "--tokens"], (0,))],
    }


FORMATS = ["t.jsonl", "c.jsonl", "c.ctk", "plan.jsonl", "base.jsonl", "hyp.jsonl"]


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_input_runs_cleanly_or_exits_two(valid, name, data):
    d, good, entries = valid
    damage = st.one_of(_truncate(good[name]), _cut_at_line_end(good[name]), _overwrite(good[name]))
    damaged_bytes = data.draw(damage, label="damaged")
    damaged = d / f"damaged{name[name.index('.'):]}"
    damaged.write_bytes(damaged_bytes)
    inputs = sorted(p.name for p in d.iterdir() if p.name not in OUTPUTS)
    for argv, normal in _commands(d, str(damaged))[name]:
        for out in OUTPUTS:
            (d / out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        lines = stderr.getvalue().splitlines()
        written = sorted(set(p.name for p in d.iterdir()) - set(inputs))
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert any(a in lines[0] for a in argv if Path(a).name in inputs), lines  # names an input file
            assert written == [], written  # no output, no temporary file
            continue
        assert code in normal, (argv[:2], code, lines)
        assert all(line.startswith("warning: ") for line in lines), lines
        assert written == sorted(Path(a).name for a in argv if Path(a).name in OUTPUTS), written
        if argv[:2] == ["inject", "apply"]:
            docs = [doc for batch in iter_batches(d / "out.jsonl") for doc in batch]
            assert sum(doc.category == "contamination" for doc in docs) == entries
