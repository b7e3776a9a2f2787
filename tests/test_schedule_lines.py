"""The schedule entry line template and pattern against the per-entry oracle.

`write_schedule` builds each entry line from one template and `read_schedule`
reads a line in that exact form by one full-line pattern; every other line is
decoded and checked field by field. These properties hold both to the writer
and reader that encode and decode every entry as a JSON object
(`tests/helpers.py`): the same bytes out, and the same header, columns and
errors in, on canonical, non-canonical and damaged files.
"""

import dataclasses
import json
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from contamkit.corpus_io import CorpusFormatError, record_values
from contamkit.injector import (
    _SCHEDULE_LINE,
    ContaminationCondition,
    ContaminationMode,
    ScheduleEntry,
    Temporal,
    TrainingConfig,
    plan_schedule,
    read_schedule,
    write_schedule,
)

from helpers import decode_schedule, encode_schedule, make_example, schedule_header
from test_stream_lines import _CHARS, _escape_all

SCHEDULE_LINE = re.compile(_SCHEDULE_LINE, re.S)
_TEXT = st.text(_CHARS, max_size=6)
# around the 18-digit limit of the pattern and the 2**63 limit of the columns
_INT64 = st.one_of(st.integers(0, 20), st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63 - 1]),
                   st.integers(0, 2**63 - 1))

BASE = plan_schedule(
    [make_example(f"ex{i}", [i + 1, 7], [i + 2, 9]) for i in range(2)],
    ContaminationCondition(ContaminationMode.BATCHED_PAIR, Temporal.UNIFORM, 1),
    TrainingConfig(total_steps=4, batch_size=4, max_replace_frac=0.5, seed=5),
)

_ENTRIES = st.lists(st.builds(ScheduleEntry, step=_INT64, slot=_INT64, example_id=_TEXT, copy_index=_INT64,
                              part=st.sampled_from(["whole", "source", "target"]) | _TEXT,
                              rendered_text=_TEXT, lang=_TEXT), max_size=6)


def _outcome(read, path):
    """What ``read`` gives for ``path``: the schedule's fields and columns, or its error."""
    try:
        schedule = read(path)
    except CorpusFormatError as e:
        return "error", str(e)
    own = {key: value for key, value in vars(schedule).items() if key != "entries"}
    return own, [list(column) for column in schedule.entries.columns]


@settings(max_examples=100, deadline=None)
@given(entries=_ENTRIES)
def test_the_template_writes_what_the_per_entry_encoder_writes(tmp_path_factory, entries):
    work = tmp_path_factory.mktemp("write")
    schedule = dataclasses.replace(BASE, entries=entries)
    assert write_schedule(schedule, work / "t.jsonl") == encode_schedule(schedule, work / "o.jsonl") == len(entries)
    assert (work / "t.jsonl").read_bytes() == (work / "o.jsonl").read_bytes()
    assert _outcome(read_schedule, work / "t.jsonl") == _outcome(decode_schedule, work / "t.jsonl")
    assert list(read_schedule(work / "t.jsonl").entries) == entries


@settings(max_examples=100, deadline=None)
@given(line=st.from_regex(SCHEDULE_LINE, fullmatch=True))
def test_every_line_the_pattern_admits_reads_as_json_loads_does(line):
    m = SCHEDULE_LINE.fullmatch(line)
    try:
        text = json.loads(f'"{m[5]}"')
    except ValueError:
        assume(False)  # read field by field
    copy_index, example_id, lang, part, _, slot, step = m.groups()
    assert record_values(ScheduleEntry, json.loads(line), "line") == [
        int(step), int(slot), example_id, int(copy_index), part, text, lang]


# -- reading: the pattern and the field-by-field path against the oracle ------


def _form(record: dict, form: str) -> str:
    """One entry line for ``record``: the writer's form, or one that a reader must decode."""
    canonical = json.dumps(record, ensure_ascii=False, sort_keys=True)
    if form == "canonical":
        return canonical
    if form == "ascii":
        return json.dumps(record, sort_keys=True)
    if form == "unsorted":
        return json.dumps(record, ensure_ascii=False)
    if form == "compact":
        return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    if form == "padded":
        return " " + json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(" , ", " :  ")) + "\t"
    if form == "extra":
        return json.dumps({**record, "note": [1, "ü"]}, ensure_ascii=False, sort_keys=True)
    if form == "escaped":  # \u escapes of characters the writer writes as they are
        key = f'"example_id": {json.dumps(record["example_id"], ensure_ascii=False)}'
        return canonical.replace(key, f'"example_id": "{_escape_all(record["example_id"])}"', 1)
    if form == "upper_hex":
        return re.sub(r"\\u00([0-9a-f]{2})", lambda m: "\\u00" + m[1].upper(), canonical)
    raise AssertionError(form)


FORMS = ["canonical", "ascii", "unsorted", "compact", "padded", "extra", "escaped", "upper_hex"]


@st.composite
def _schedule_text(draw, forms=FORMS):
    """A schedule whose entry lines each take a drawn form; some blank lines, CRLF ends or no last newline."""
    entries = draw(_ENTRIES)
    header = schedule_header(dataclasses.replace(BASE, entries=entries))
    lines = [json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n"]
    for entry in entries:
        form = draw(st.sampled_from(["canonical"] * len(forms) + forms))
        lines.append(_form(vars(entry), form) + draw(st.sampled_from(["\n"] * 8 + ["\r\n", "\n\n", "\n \n"])))
    text = "".join(lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


@settings(max_examples=60, deadline=None)
@given(text=_schedule_text())
def test_the_reader_equals_the_oracle_on_mixed_schedules(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mixed") / "plan.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_schedule, path) == _outcome(decode_schedule, path)


@st.composite
def _damaged_schedule(draw):
    data = draw(_schedule_text(forms=["canonical", "compact", "escaped"])).encode("utf-8")
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "drop", "swap"]), label="damage")
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind in ("overwrite", "insert"):
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(out)))
            byte = draw(st.sampled_from(b'"\\\x00\x1f,:{}-0 \n') | st.integers(0, 255))
            out[at:at + (kind == "overwrite")] = bytes([byte])
        return bytes(out)
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1), label="line")
    if kind == "drop":
        del lines[i]
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@settings(max_examples=100, deadline=None)
@given(data=_damaged_schedule())
def test_a_damaged_schedule_fails_as_the_oracle_does(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("damaged") / "plan.jsonl"
    path.write_bytes(data)
    assert _outcome(read_schedule, path) == _outcome(decode_schedule, path)


_CANONICAL = ('{"copy_index": 0, "example_id": "ex0", "lang": "de", "part": "source", '
              '"rendered_text": "Quelle", "slot": 1, "step": 2}')
DAMAGED_LINES = {
    "step_2_63": _CANONICAL.replace('"step": 2', f'"step": {2**63}'),
    "step_2_63_minus_1": _CANONICAL.replace('"step": 2', f'"step": {2**63 - 1}'),
    "slot_leading_zero": _CANONICAL.replace('"slot": 1', '"slot": 01'),
    "slot_minus_zero": _CANONICAL.replace('"slot": 1', '"slot": -0'),
    "slot_true": _CANONICAL.replace('"slot": 1', '"slot": true'),
    "escaped_quote_in_id": _CANONICAL.replace('"ex0"', '"ex\\"0"'),
    "raw_control_in_text": _CANONICAL.replace("Quelle", "Qu\x01elle"),
    "keys_inside_text": _CANONICAL.replace("Quelle", 'Quelle", "slot": 1, "step": 2, "x": "'),
    "extra_key": _CANONICAL.replace('{"copy_index"', '{"a": 1, "copy_index"'),
    "missing_key": _CANONICAL.replace('"lang": "de", ', ""),
    "repeated_key": _CANONICAL.replace('"step": 2}', '"step": 2, "step": 3}'),
    "crlf": _CANONICAL + "\r",
}


@pytest.mark.parametrize("damage", [*DAMAGED_LINES, "no_last_newline"])
def test_each_damaged_entry_line_reads_as_the_oracle_reads_it(tmp_path, damage):
    header = json.dumps(schedule_header(dataclasses.replace(BASE, entries=BASE.entries[:2])), ensure_ascii=False,
                        sort_keys=True)
    second = _CANONICAL.replace('"slot": 1', '"slot": 3')
    text = f"{header}\n{DAMAGED_LINES.get(damage, _CANONICAL)}\n{second}\n"
    path = tmp_path / "plan.jsonl"
    path.write_text(text.rstrip("\n") if damage == "no_last_newline" else text, encoding="utf-8", newline="")
    outcome = _outcome(read_schedule, path)
    assert outcome == _outcome(decode_schedule, path)
    if outcome[0] == "error":
        assert outcome[1].startswith(f"{path}:2: "), outcome
