"""The batch-stream line pass against the decode-every-record oracle.

`iter_batches` carries a line in the exact form `write_batches` writes as its
text, and `write_batches` writes that text back; every other line is parsed,
checked and re-encoded. These properties hold the pass to the reader and
writer that decode and encode every record (`tests/helpers.py`): the pattern
admits every line the writer emits and only lines that re-encode to
themselves, and `inject apply` gives the same bytes, errors, exit code and
files as the oracle on any stream, canonical, not canonical or damaged.
"""

import contextlib
import dataclasses
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from contamkit import cli
from contamkit.corpus_io import (
    _STREAM_LINE,
    CATEGORIES,
    CATEGORY_CONTAMINATION,
    CorpusDocument,
    EncodedDocument,
    StreamRecord,
    doc_to_record,
    from_record,
    iter_batches,
    write_batches,
)
from contamkit.injector import (
    ContaminationCondition,
    ContaminationMode,
    Temporal,
    TrainingConfig,
    apply_batches,
    plan_schedule,
    read_schedule,
    write_schedule,
)

from helpers import _CHARS, _escape_all, _synth_stream, decode_batches, encode_batches, make_example

STEPS = 4
BATCH = 4
STREAM_LINE = re.compile(_STREAM_LINE)

_TEXT = st.text(_CHARS, max_size=6)


def _docs(ids):
    return st.builds(
        CorpusDocument,
        doc_id=st.text(_CHARS, min_size=1, max_size=6),
        tokens=st.lists(ids, max_size=4),
        category=st.sampled_from(CATEGORIES),
        lang=_TEXT,
        text=st.none() | _TEXT,
    )


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(_docs(st.integers(0, 10**9 - 1)), min_size=1, max_size=8))
def test_every_record_the_writer_emits_matches_the_pattern(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("emit") / "s.jsonl"
    write_batches([docs], path)
    with open(path, encoding="utf-8") as f:
        lines = list(f)
    assert len(lines) == len(docs)
    assert all(STREAM_LINE.fullmatch(line) for line in lines)
    assert list(iter_batches(path)) == [[EncodedDocument(d.category, json.dumps(doc_to_record(d), ensure_ascii=False))
                                         for d in docs]]


@settings(max_examples=50, deadline=None)
@given(line=st.from_regex(STREAM_LINE, fullmatch=True))
def test_every_line_the_pattern_matches_reencodes_to_itself(tmp_path_factory, line):
    record = from_record(StreamRecord, json.loads(line), "line")  # valid by its form: no check refuses it
    path = tmp_path_factory.mktemp("match") / "s.jsonl"
    write_batches([[record.doc]], path)  # at (0, 0); the document's text must come back as it was
    doc = re.fullmatch(r'\{"step": 0, "slot": 0, "doc": (.*)\}\n', path.read_text(encoding="utf-8"), re.S)[1]
    assert doc == STREAM_LINE.fullmatch(line)[3]
    assert json.dumps({"step": record.step, "slot": record.slot, "doc": doc_to_record(record.doc)},
                      ensure_ascii=False) == line.rstrip("\n")


# -- inject apply: line pass against the oracle ------------------------------------


# A plan that replaces four slots of a 4 x 4 stream, and those (step, slot) pairs.
PLAN = plan_schedule(
    [make_example(f"ex{i}", [i + 1, 7], [i + 2, 9]) for i in range(2)],
    ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.UNIFORM, 1),
    TrainingConfig(total_steps=STEPS, batch_size=BATCH, max_replace_frac=0.5, seed=5),
)
REPLACED = set(zip(*PLAN.entries.columns[:2]))


@pytest.fixture(scope="module")
def plan(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan.jsonl"
    write_schedule(PLAN, path)
    return path


def _form(record: dict, form: str) -> str:
    """One line for ``record``: the writer's form, or one that a reader must decode."""
    doc = record["doc"]
    canonical = json.dumps(record, ensure_ascii=False)
    if form == "canonical":
        return canonical
    if form == "ascii":
        return json.dumps(record)
    if form == "compact":
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    if form == "padded":
        return " " + json.dumps(record, ensure_ascii=False, separators=(" , ", " :  ")) + "\t"
    if form == "sorted":
        return json.dumps(record, ensure_ascii=False, sort_keys=True)
    if form == "extra":
        return json.dumps({**record, "note": [1, "ü"], "doc": {**doc, "extra": None}}, ensure_ascii=False)
    if form == "escaped":  # \u escapes of characters the writer writes as they are
        key = f'"doc_id": {json.dumps(doc["doc_id"], ensure_ascii=False)}'
        return canonical.replace(key, f'"doc_id": "{_escape_all(doc["doc_id"])}"', 1)
    if form == "upper_hex":
        return re.sub(r"\\u00([0-9a-f]{2})", lambda m: "\\u00" + m[1].upper(), canonical)
    if form == "wide_id":  # a 10-digit token id, below 2**32
        return json.dumps({**record, "doc": {**doc, "tokens": [*doc["tokens"], 4_000_000_000]}}, ensure_ascii=False)
    if form == "null_text":
        return json.dumps({**record, "doc": {**doc, "text": doc.get("text")}}, ensure_ascii=False)
    if form == "leading_zero":
        return canonical.replace('"slot": ', '"slot": 0', 1)
    raise AssertionError(form)


FORMS = ["canonical", "ascii", "compact", "padded", "sorted", "extra", "escaped", "upper_hex", "wide_id", "null_text"]


@st.composite
def _stream_text(draw, forms=FORMS):
    """A 4 x 4 stream whose lines each take a drawn form; some blank lines, CRLF ends or no last newline.
    A slot the plan replaces holds no contamination document, which apply refuses to replace."""
    docs = draw(st.lists(_docs(st.integers(0, 2**32 - 1)), min_size=STEPS * BATCH, max_size=STEPS * BATCH))
    lines = []
    for i, doc in enumerate(docs):
        if (i // BATCH, i % BATCH) in REPLACED:
            doc = dataclasses.replace(doc, category=draw(st.sampled_from(
                [c for c in CATEGORIES if c != CATEGORY_CONTAMINATION])))
        record = {"step": i // BATCH, "slot": i % BATCH, "doc": doc_to_record(doc)}
        form = draw(st.sampled_from(["canonical"] * len(forms) + forms))
        lines.append(_form(record, form) + draw(st.sampled_from(["\n"] * 8 + ["\r\n", "\n\n", "\n \n"])))
    text = "".join(lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


def _apply(stream, plan, out, oracle: bool):
    """``inject apply`` through the CLI, with the line pass or with the decode-every-record oracle:
    (exit code, stdout, stderr, the files beside ``out``, the bytes of ``out`` or None)."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    swap = (mock.patch.object(cli, "iter_batches", decode_batches), mock.patch.object(cli, "write_batches", encode_batches))
    with contextlib.ExitStack() as stack:
        for patch in swap if oracle else ():
            stack.enter_context(patch)
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = cli.main(["inject", "apply", "--stream", str(stream), "--schedule", str(plan), "--out", str(out)])
    files = sorted(p.name for p in out.parent.iterdir())
    return code, stdout.getvalue(), stderr.getvalue(), files, out.read_bytes() if out.exists() else None


@settings(max_examples=40, deadline=None)
@given(text=_stream_text())
def test_line_pass_equals_the_oracle_on_mixed_streams(plan, tmp_path_factory, text):
    work = tmp_path_factory.mktemp("mixed")
    stream = work / "s.jsonl"
    stream.write_text(text, encoding="utf-8", newline="")
    schedule = read_schedule(plan)
    line_pass, oracle = work / "line.jsonl", work / "oracle.jsonl"
    write_batches(apply_batches(iter_batches(stream), schedule), line_pass)
    encode_batches(apply_batches(decode_batches(stream), schedule), oracle)
    assert line_pass.read_bytes() == oracle.read_bytes()
    assert _apply(stream, plan, work / "out.jsonl", oracle=False) == _apply(stream, plan, work / "out.jsonl", oracle=True)


def _damaged_line(record: dict, damage: str) -> str:
    doc = record["doc"]
    bad = {
        "negative_id": {**record, "doc": {**doc, "tokens": [-1]}},
        "wide_id": {**record, "doc": {**doc, "tokens": [2**32]}},
        "category": {**record, "doc": {**doc, "category": "other"}},
        "empty_id": {**record, "doc": {**doc, "doc_id": ""}},
        "text_number": {**record, "doc": {**doc, "text": 5}},
        "lang_null": {**record, "doc": {**doc, "lang": None}},
        "step_string": {**record, "step": str(record["step"])},
        "slot_bool": {**record, "slot": bool(record["slot"])},
        "no_doc": {"step": record["step"], "slot": record["slot"]},
        "array": [record],
    }.get(damage)
    if bad is not None:
        return json.dumps(bad, ensure_ascii=False)
    if damage == "surrogate":  # valid JSON that the output cannot hold
        return json.dumps(record, ensure_ascii=False).replace('"doc_id": "', '"doc_id": "\\ud800', 1)
    return _form(record, damage)


DAMAGES = ["negative_id", "wide_id", "category", "empty_id", "text_number", "lang_null", "step_string", "slot_bool",
           "no_doc", "array", "surrogate", "leading_zero"]


@st.composite
def _damaged_stream(draw):
    text = draw(_stream_text(forms=["canonical", "compact", "escaped"]))
    data = text.encode("utf-8")
    kind = draw(st.sampled_from(["truncate", "overwrite", "drop", "swap", "fields"]), label="damage")
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "overwrite":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    lines = data.splitlines(keepends=True)
    records = [i for i, line in enumerate(lines) if line.strip()]
    i = draw(st.sampled_from(records), label="line")
    if kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = draw(st.sampled_from(records))
        lines[i], lines[j] = lines[j], lines[i]
    else:  # one to three records with a bad field, a bad shape or an unwritable id
        for i in draw(st.lists(st.sampled_from(records), min_size=1, max_size=3, unique=True)):
            damage = draw(st.sampled_from(DAMAGES))
            lines[i] = (_damaged_line(json.loads(lines[i]), damage) + "\n").encode("utf-8")
    return b"".join(lines)


@settings(max_examples=60, deadline=None)
@given(data=_damaged_stream())
def test_damaged_stream_fails_as_the_oracle_does(plan, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("damaged")
    stream = work / "s.jsonl"
    stream.write_bytes(data)
    assert _apply(stream, plan, work / "out.jsonl", oracle=False) == _apply(stream, plan, work / "out.jsonl", oracle=True)


@pytest.mark.parametrize("damage", DAMAGES)
def test_each_damaged_record_fails_as_the_oracle_does(plan, tmp_path, damage):
    stream = tmp_path / "s.jsonl"
    write_batches(_synth_stream(STEPS, BATCH).steps, stream)
    lines = stream.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = _damaged_line(json.loads(lines[5]), damage) + "\n"
    stream.write_text("".join(lines), encoding="utf-8")
    line_pass = _apply(stream, plan, tmp_path / "out.jsonl", oracle=False)
    assert line_pass == _apply(stream, plan, tmp_path / "out.jsonl", oracle=True)
    assert line_pass[0] == 2 and ("s.jsonl:6: " in line_pass[2] or "out.jsonl:6: " in line_pass[2]), line_pass[2]
