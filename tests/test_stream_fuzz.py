"""Fuzz the batch-stream format through `contamkit inject apply`.

A valid stream is truncated at a random byte offset or has a few bytes
overwritten. Whatever the damage, apply either succeeds with a well-formed
output stream or exits 2 with exactly one `error:` line naming the stream or
the plan, and never leaves a partial or temporary output file behind.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from contamkit.cli import main
from contamkit.corpus_io import iter_batches, write_batches
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    plan_schedule,
    write_schedule,
)

from helpers import make_example
from test_injector import _synth_stream

STEPS = 8
BATCH = 8


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(directory, plan path, valid stream bytes); the plan injects into a 8 x 8 stream."""
    work = tmp_path_factory.mktemp("fuzz")
    schedule = plan_schedule(
        [make_example(f"ex{i}", [i + 1, 7], [i + 2, 9]) for i in range(3)],
        ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.UNIFORM, 1),
        TrainingConfig(total_steps=STEPS, batch_size=BATCH, max_replace_frac=0.25, seed=5),
    )
    plan_path = work / "plan.jsonl"
    write_schedule(schedule, plan_path)
    stream_path = work / "stream.jsonl"
    write_batches(_synth_stream(STEPS, BATCH, seed=2).steps, stream_path)
    return work, plan_path, stream_path.read_bytes()


def _truncate(data: bytes):
    return st.integers(0, len(data) - 1).map(lambda k: data[:k])


def _overwrite(data: bytes):
    def apply(edits):
        out = bytearray(data)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    edit = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=3).map(apply)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_stream_applies_cleanly_or_exits_two(valid, data):
    work, plan_path, good = valid
    damaged = data.draw(st.one_of(_truncate(good), _overwrite(good)))
    stream_path = work / "damaged.jsonl"
    stream_path.write_bytes(damaged)
    out_path = work / "out.jsonl"
    if out_path.exists():
        out_path.unlink()

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                     "--out", str(out_path)])

    files = sorted(p.name for p in work.iterdir())
    if code == 0:
        assert stderr.getvalue() == ""
        out = list(iter_batches(out_path))
        assert len(out) == STEPS and {len(batch) for batch in out} == {BATCH}
        assert files == ["damaged.jsonl", "out.jsonl", "plan.jsonl", "stream.jsonl"]
    else:
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(stream_path) in lines[0] or str(plan_path) in lines[0], lines
        assert files == ["damaged.jsonl", "plan.jsonl", "stream.jsonl"]
