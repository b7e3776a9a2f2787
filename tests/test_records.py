"""Every JSON-lines reader checks each field against its dataclass annotation.

A mistyped field in a test set, corpus, batch stream, schedule or eval-record
file makes the CLI exit 2 with one `error: path:line: field '<name>' must be
...` line, whichever reader meets it.
"""

import json
import re
import subprocess
import sys

import pytest

from contamkit.cli import main
from contamkit.corpus_io import (
    CorpusDocument,
    DuplicateIdError,
    example_to_record,
    from_record,
    iter_batches,
    read_corpus,
    write_batches,
)
from contamkit.injector import GENERATOR_VERSION, read_schedule
from contamkit.metrics import EvalRecord

from helpers import make_example, write_corpus
from test_injector import _synth_stream
from test_lazy_imports import ENV

STEPS = 100
BATCH = 64


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture
def files(tmp_path):
    """Valid inputs for every reader: a test set, a plan and a stream it applies to, eval records."""
    examples = [make_example(f"ex{i}", [i + 1, 7, 8], [i + 2, 9, 9]) for i in range(3)]
    _write_lines(tmp_path / "t.jsonl", map(example_to_record, examples))
    assert main([
        "inject", "plan", "--testset", str(tmp_path / "t.jsonl"), "--mode", "full_prompted",
        "--temporal", "late", "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH),
        "--out", str(tmp_path / "plan.jsonl"),
    ]) == 0
    write_batches(_synth_stream(STEPS, BATCH).steps, tmp_path / "s.jsonl")
    _write_lines(tmp_path / "base.jsonl", [
        {"system_id": "b", "lang_pair": "en-de", "testset_id": "t", "bleu": 30.5, "segment_count": 4},
    ])
    _write_lines(tmp_path / "cont.jsonl", [
        {"system_id": "c", "lang_pair": "en-de", "testset_id": "t", "bleu": 33.0, "segment_count": 4},
    ])
    return tmp_path


def _command(kind, d):
    return {
        "testset": ["inject", "plan", "--testset", str(d / "t.jsonl"), "--mode", "full_prompted",
                    "--temporal", "late", "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH),
                    "--out", str(d / "plan2.jsonl")],
        "header": ["inject", "verify", "--schedule", str(d / "plan.jsonl")],
        "stream": ["inject", "apply", "--stream", str(d / "s.jsonl"), "--schedule", str(d / "plan.jsonl"),
                   "--out", str(d / "out.jsonl")],
        "records": ["report", "--baseline", str(d / "base.jsonl"), "--contaminated", str(d / "cont.jsonl")],
    }[kind]


_FILE = {"testset": "t.jsonl", "header": "plan.jsonl", "stream": "s.jsonl", "records": "base.jsonl"}

MISTYPED = [
    ("records", "lang_pair", 5, "field 'lang_pair' must be a string"),
    ("testset", "example_id", ["x"], "field 'example_id' must be a string"),
    ("header", "copies", "2", "field 'copies' must be a non-negative integer"),
    ("header", "seed", "abc", "field 'seed' must be an integer"),
    ("header", "template_names", [1], "field 'template_names' must be an object of strings"),
    ("header", "window_frac", True, "field 'window_frac' must be a number"),
    ("records", "bleu", True, "field 'bleu' must be a number"),
    ("records", "testset_id", 3, "field 'testset_id' must be a string"),
    ("testset", "example_id", 5, "field 'example_id' must be a string"),
    ("stream", "step", 0.0, "field 'step' must be a non-negative integer"),
    ("stream", "step", True, "field 'step' must be a non-negative integer"),
    ("header", "total_steps", "100", "field 'total_steps' must be a non-negative integer"),
    ("header", "max_replace_frac", "0.3", "field 'max_replace_frac' must be a number"),
    ("header", "strict_cap", "yes", "field 'strict_cap' must be a boolean"),
    ("header", "generator_version", 5, "field 'generator_version' must be a string"),
    ("header", "entry_count", "3", "field 'entry_count' must be a non-negative integer"),
    ("header", "entry_count", -1, "field 'entry_count' must be a non-negative integer"),
    ("header", "kind", "plan", "not an injection schedule file"),
    ("header", "mode", "bogus",
     "field 'mode' must be one of ('full_prompted', 'source_only', 'target_only', 'split_pair', 'batched_pair')"),
    ("header", "temporal", "bogus", "field 'temporal' must be one of ('early', 'middle', 'late', 'uniform')"),
]


@pytest.mark.parametrize("kind, key, value, message", MISTYPED, ids=[f"{k}-{f}-{v!r}" for k, f, v, _ in MISTYPED])
def test_mistyped_field_exits_two_naming_path_line_and_field(files, capsys, kind, key, value, message):
    path = files / _FILE[kind]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0][key] = value
    _write_lines(path, records)
    capsys.readouterr()
    assert main(_command(kind, files)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}:1: {message}"]


# (file, 0-based line, field) holding an integer too long for the interpreter to convert
OVERLONG = [
    ("corpus", "c.jsonl", 1, "tokens"),
    ("testset", "t.jsonl", 1, "source_tokens"),
    ("header", "plan.jsonl", 2, "slot"),
    ("stream", "s.jsonl", 2, "slot"),
    ("records", "base.jsonl", 0, "segment_count"),
]


@pytest.mark.parametrize("kind, name, line, key", OVERLONG, ids=[kind for kind, *_ in OVERLONG])
def test_integer_too_long_to_convert_names_the_line(files, capsys, kind, name, line, key):
    write_corpus([CorpusDocument(f"d{i}", [1, 2, 3]) for i in range(3)], files / "c.jsonl")
    path = files / name
    records = [json.loads(text) for text in path.read_text().splitlines()]
    records[line][key] = [123456789] if key.endswith("tokens") else 123456789
    _write_lines(path, records)
    path.write_text(path.read_text().replace("123456789", "9" * 5000))
    argv = {"corpus": ["index", "--corpus", str(path), "--out", str(files / "c.ctkx")]}.get(kind) or _command(kind, files)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:{line + 1}: invalid JSON (an integer of more than {sys.get_int_max_str_digits()} digits)"
    ]


@pytest.mark.parametrize("flag, name", [("--steps", "total_steps"), ("--batch-size", "batch_size")])
def test_inject_plan_refuses_a_dimension_past_2_63(files, flag, name):
    # run in a child with a timeout: a batch size past 2**64 once sent the slot draw into an endless loop
    argv = _command("testset", files)
    argv[argv.index(flag) + 1] = str(10**20)
    result = subprocess.run([sys.executable, "-m", "contamkit.cli", *argv], env=ENV, capture_output=True, text=True,
                            timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {name} must be <= 2**63\n")


def test_inject_plan_of_2_63_steps_and_slots_plans_and_verifies(files, capsys):
    argv = _command("testset", files)
    argv[argv.index("--steps") + 1] = argv[argv.index("--batch-size") + 1] = str(2**63)
    assert main(argv) == 0
    assert main(["inject", "verify", "--schedule", str(files / "plan2.jsonl")]) == 0
    assert "schedule check: ok (3 entries over " in capsys.readouterr().out


@pytest.mark.parametrize("key", ["step", "slot", "copy_index"])
def test_schedule_entry_integer_past_64_bit_columns_names_the_line(files, capsys, key):
    path = files / "plan.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1][key] = 2**63 - 1  # the largest a column holds: read, then flagged by the check
    _write_lines(path, records)
    assert main(_command("header", files)) == 1
    records[1][key] = 2**63
    _write_lines(path, records)
    for kind in ("header", "stream"):  # inject verify, inject apply
        capsys.readouterr()
        assert main(_command(kind, files)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:2: field '{key}' must be a non-negative integer below 2**63"
        ]


def test_report_on_unparseable_lang_pair_names_the_line(files, capsys):
    _write_lines(files / "base.jsonl", [
        {"system_id": "b", "lang_pair": "ende", "testset_id": "t", "bleu": 30.5, "segment_count": 4},
    ])
    assert main(_command("records", files)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {files / 'base.jsonl'}:1: cannot parse lang_pair 'ende'"]


def test_eval_record_refuses_the_pairs_render_cannot_group():
    for pair in ("ende", "-de", "en-", ""):
        with pytest.raises(ValueError, match="cannot parse lang_pair"):
            EvalRecord("s", pair, "t", bleu=1.0, segment_count=1)
    assert EvalRecord("s", "zh-Hans-en", "t", bleu=1.0, segment_count=1).lang_pair == "zh-Hans-en"


def test_negative_seed_round_trips_through_plan_verify_apply(files, capsys):
    plan = files / "neg.jsonl"
    assert main([
        "inject", "plan", "--testset", str(files / "t.jsonl"), "--mode", "full_prompted", "--temporal", "late",
        "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH), "--seed", "-7", "--out", str(plan),
    ]) == 0
    assert read_schedule(plan).config.seed == -7
    assert main(["inject", "verify", "--schedule", str(plan)]) == 0
    assert main(["inject", "apply", "--stream", str(files / "s.jsonl"), "--schedule", str(plan),
                 "--out", str(files / "out.jsonl")]) == 0
    assert len(list(iter_batches(files / "out.jsonl"))) == STEPS


@pytest.mark.parametrize("key", ["strict_cap", "generator_version"])
def test_header_requires_strict_cap_and_generator_version(files, capsys, key):
    path = files / "plan.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["generator_version"] == GENERATOR_VERSION
    del records[0][key]
    _write_lines(path, records)
    assert main(["inject", "verify", "--schedule", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:1: missing field '{key}'"]


def test_header_still_requires_the_config_fields_with_defaults(files, capsys):
    path = files / "plan.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    del records[0]["seed"]
    _write_lines(path, records)
    assert main(["inject", "verify", "--schedule", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:1: missing field 'seed'"]


EMPTY = [
    ("decontam", "t.jsonl", "no examples"),
    ("inject-plan", "t.jsonl", "no examples"),
    ("bleu", "ref.txt", "no segments"),
    ("report", "base.jsonl", "no records"),
    ("verify", "plan.jsonl", "missing schedule header"),
]


@pytest.mark.parametrize("command, name, message", EMPTY, ids=[command for command, _, _ in EMPTY])
def test_empty_input_file_exits_two_naming_itself(files, capsys, command, name, message):
    write_corpus([CorpusDocument("d", [1, 2, 3])], files / "c.jsonl")
    assert main(["index", "--corpus", str(files / "c.jsonl"), "--out", str(files / "c.ctkx")]) == 0
    for empty in ("t.jsonl", "hyp.txt", "ref.txt", "base.jsonl", "plan.jsonl"):
        (files / empty).write_text("")
    argv = {
        "decontam": ["decontam", "--testset", str(files / "t.jsonl"), "--index", str(files / "c.ctkx")],
        "inject-plan": _command("testset", files),
        "bleu": ["bleu", "--hyp", str(files / "hyp.txt"), "--ref", str(files / "ref.txt")],
        "report": _command("records", files),
        "verify": _command("header", files),
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {files / name}: {message}"]


def test_stream_that_skips_step_zero_names_its_first_line(files, capsys):
    path = files / "s.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[BATCH:]))
    capsys.readouterr()
    assert main(_command("stream", files)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:1: expected (step 0, slot 0), got (1, 0)"]


def test_duplicate_doc_id_names_the_jsonl_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    _write_lines(path, [{"doc_id": "a", "tokens": [1]}, {"doc_id": "b", "tokens": [2]}, {"doc_id": "a", "tokens": [3]}])
    with pytest.raises(DuplicateIdError, match=rf"^{re.escape(str(path))}:3: duplicate doc_id 'a'$"):
        list(read_corpus(path))


def test_ctk_shard_errors_name_the_doc(tmp_path):
    path = tmp_path / "dup.ctk"
    write_corpus([CorpusDocument("a", [1]), CorpusDocument("b", [2]), CorpusDocument("a", [3])], path, fmt="ctk")
    with pytest.raises(DuplicateIdError, match=rf"^{re.escape(str(path))}: doc #2: duplicate doc_id 'a'$"):
        list(read_corpus(path, fmt="ctk"))
    # an empty id is refused as it is in a jsonl shard
    data = path.read_bytes()
    empty = data[:8] + (0).to_bytes(4, "little") + data[13:]  # doc #0's id "a" -> ""
    path.write_bytes(empty)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: doc #0: field 'doc_id' must be a non-empty string$"):
        list(read_corpus(path, fmt="ctk"))


def test_from_record_reads_each_annotation():
    TOKEN_IDS = r"f:1: field 'tokens' must be a list of token ids \(integers in \[0, 2\*\*32\)\)$"
    doc = from_record(CorpusDocument, {"doc_id": "d", "tokens": [0, 3], "text": None, "extra": 1}, "f:1")
    assert doc == CorpusDocument("d", [0, 3])
    assert from_record(CorpusDocument, {"doc_id": "d"}, "f:1", tokens=[7]).tokens == [7]
    cases = (
        ({"doc_id": "d"}, "f:1: missing field 'tokens'"),
        ({"doc_id": "d", "tokens": [1, True]}, TOKEN_IDS),
        ({"doc_id": "d", "tokens": [1, 2.0]}, TOKEN_IDS),
        ({"doc_id": "d", "tokens": [1, 2**32]}, TOKEN_IDS),
        ({"doc_id": "d", "tokens": [], "text": 3}, "f:1: field 'text' must be a string or null"),
        ({"doc_id": "", "tokens": []}, "f:1: field 'doc_id' must be a non-empty string"),
        ({"doc_id": "d", "tokens": [], "category": "news"}, "f:1: field 'category' must be one of"),
    )
    for record, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            from_record(CorpusDocument, record, "f:1")


def test_header_requires_entry_count(files, capsys):
    path = files / "plan.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    del records[0]["entry_count"]
    _write_lines(path, records)
    assert main(["inject", "verify", "--schedule", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:1: missing field 'entry_count'"]


def test_cut_short_or_padded_schedule_is_refused(files, capsys):
    path = files / "plan.jsonl"
    header, *entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["entry_count"] == len(entries) == 3
    extra = {**entries[0], "slot": entries[0]["slot"] + 1}
    for kept, have in ((entries[:1], 1), ([], 0), ([*entries, extra], 4)):
        _write_lines(path, [header, *kept])
        for kind in ("header", "stream"):
            capsys.readouterr()
            assert main(_command(kind, files)) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {path}: header says 3 entries, file has {have}"]
        assert not (files / "out.jsonl").exists()
