"""Every file contamkit writes goes through `corpus_io.output_file`.

An output is written to a temporary file beside the target, which replaces
the target only when the whole output is written. A command that fails after
it started writing exits 2 with one `error:` line, leaves an existing target
byte-unchanged and leaves no `*.tmp` behind. A directory given as an input
or an output is one `error:` line and exit 2, not a traceback.
"""

import json

import pytest

from contamkit.cli import main
from contamkit.corpus_io import (
    CorpusDocument,
    CorpusFormatError,
    example_to_record,
    output_file,
    write_batches,
    write_json_lines,
)
from contamkit.ngram_index import ScanConfig, build_index

from helpers import make_example, write_corpus
from test_injector import _synth_stream

STEPS = 100
BATCH = 64
PREVIOUS = b"previous output\n"


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _listing(d):
    return sorted(p.name for p in d.iterdir())


# -- output_file ---------------------------------------------------------------


def test_output_file_replaces_the_target_only_on_success(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError):
        with output_file(target) as f:
            f.write("partial")
            raise RuntimeError("stop")
    assert target.read_bytes() == PREVIOUS
    assert _listing(tmp_path) == ["out.txt"]
    with output_file(target) as f:
        f.write("new\n")
    assert target.read_text() == "new\n"
    assert _listing(tmp_path) == ["out.txt"]


def test_output_file_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.bin"
    real.write_bytes(PREVIOUS)
    link = tmp_path / "link.bin"
    link.symlink_to(real)
    with output_file(link, "wb") as f:
        f.write(b"\x00\x01")
    assert link.is_symlink() and real.read_bytes() == b"\x00\x01"


def test_write_json_lines_names_the_line_it_cannot_encode(tmp_path):
    path = tmp_path / "p.jsonl"
    with pytest.raises(CorpusFormatError, match=r"p\.jsonl:3: 'utf-8' codec can't encode"):
        write_json_lines(path, [{"a": 1}, {"a": 2}, {"a": "x\ud800y"}, {"a": 4}])
    assert _listing(tmp_path) == []


def test_index_save_names_the_doc_it_cannot_encode(tmp_path):
    path = tmp_path / "c.ctkx"
    index = build_index([CorpusDocument("a", [1]), CorpusDocument("x\ud800", [2])], ScanConfig(1))
    with pytest.raises(CorpusFormatError, match=r"c\.ctkx: doc #1: 'utf-8' codec can't encode"):
        index.save(path)
    assert _listing(tmp_path) == []


# -- the CLI -------------------------------------------------------------------


@pytest.fixture
def work(tmp_path):
    """Valid inputs, and copies whose third record holds a lone surrogate (valid JSON, not writable as UTF-8)."""
    examples = [make_example(f"ex{i}", [i + 1, 7, 8, 9], [i + 2, 9, 9, 1]) for i in range(4)]
    records = [example_to_record(ex) for ex in examples]
    _write_lines(tmp_path / "t.jsonl", records)
    _write_lines(tmp_path / "bad_text.jsonl", [{**r, "source_text": "x\ud800y"} if i == 2 else r
                                               for i, r in enumerate(records)])
    _write_lines(tmp_path / "bad_id.jsonl", [{**r, "example_id": "ex\ud800"} if i == 2 else r
                                             for i, r in enumerate(records)])
    write_corpus([CorpusDocument("a", [50, 51, 52, 53, 54, 55, 56, 57, 58])], tmp_path / "c.jsonl")
    # the corpus holds ex2's source, so ex2 is removed and named in the report
    write_corpus([CorpusDocument("a", records[2]["source_tokens"] * 3)], tmp_path / "hit.jsonl")
    for corpus, flags, out in (("c", [], "c.ctkx"), ("c", ["--ngram", "3"], "c3.ctkx"),
                               ("hit", ["--ngram", "3"], "hit3.ctkx")):
        assert main(["index", "--corpus", str(tmp_path / f"{corpus}.jsonl"), *flags, "--out", str(tmp_path / out)]) == 0
    _write_lines(tmp_path / "bad_c.jsonl", [
        {"doc_id": "a", "tokens": [1, 2, 3]}, {"doc_id": "b", "tokens": [4, 5, 6]}, {"doc_id": "x\ud800", "tokens": [7]},
    ])
    assert main(["inject", "plan", "--testset", str(tmp_path / "t.jsonl"), "--mode", "full_prompted",
                 "--temporal", "late", "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH),
                 "--out", str(tmp_path / "plan.jsonl")]) == 0
    write_batches(_synth_stream(STEPS, BATCH).steps, tmp_path / "s.jsonl")
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["doc"]["doc_id"] = "d\ud800"
    lines[2] = json.dumps(record)
    (tmp_path / "bad_s.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path


def _plan(d, testset, out):
    return ["inject", "plan", "--testset", str(d / testset), "--mode", "full_prompted", "--temporal", "late",
            "--copies", "1", "--steps", str(STEPS), "--batch-size", str(BATCH), "--out", str(d / out)]


FAILED_WRITES = {
    # name: (argv of a command that fails while it writes `out`, out, start of the error after `error: <out>`)
    "index": (lambda d: ["index", "--corpus", str(d / "bad_c.jsonl"), "--out", str(d / "i.ctkx")],
              "i.ctkx", ": doc #2: 'utf-8' codec can't encode"),
    "decontam --out": (lambda d: ["decontam", "--testset", str(d / "bad_text.jsonl"), "--index", str(d / "c3.ctkx"),
                                  "--out", str(d / "kept.jsonl")],
                       "kept.jsonl", ":3: 'utf-8' codec can't encode"),
    "decontam --scores-out": (lambda d: ["decontam", "--testset", str(d / "bad_id.jsonl"), "--index",
                                         str(d / "c3.ctkx"), "--scores-out", str(d / "scores.jsonl")],
                              "scores.jsonl", ":3: 'utf-8' codec can't encode"),
    "decontam --report-out": (lambda d: ["decontam", "--testset", str(d / "bad_id.jsonl"), "--index",
                                         str(d / "hit3.ctkx"), "--report-format", "json",
                                         "--report-out", str(d / "report.json")],
                              "report.json", ": 'utf-8' codec can't encode"),
    "inject plan": (lambda d: _plan(d, "bad_text.jsonl", "plan2.jsonl"), "plan2.jsonl", ":"),
    "inject apply": (lambda d: ["inject", "apply", "--stream", str(d / "bad_s.jsonl"), "--schedule",
                                str(d / "plan.jsonl"), "--out", str(d / "out.jsonl")],
                     "out.jsonl", ":3: 'utf-8' codec can't encode"),
}


@pytest.mark.parametrize("name", sorted(FAILED_WRITES))
@pytest.mark.parametrize("existing", [None, PREVIOUS], ids=["absent", "existing"])
def test_failed_write_leaves_no_output_and_no_tmp(work, capsys, name, existing):
    argv, out, message = FAILED_WRITES[name]
    out_path = work / out
    if existing is not None:
        out_path.write_bytes(existing)
    before = _listing(work)
    capsys.readouterr()
    assert main(argv(work)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out_path}{message}"), err
    assert "surrogates not allowed" in err[0]
    assert _listing(work) == before
    if existing is not None:
        assert out_path.read_bytes() == existing


def test_failed_writes_succeed_on_the_valid_inputs(work, capsys):
    """The commands above fail only because of the lone surrogate."""
    swap = {"bad_c.jsonl": "c.jsonl", "bad_text.jsonl": "t.jsonl", "bad_id.jsonl": "t.jsonl", "bad_s.jsonl": "s.jsonl"}
    for name, (argv, out, _) in FAILED_WRITES.items():
        args = argv(work)
        for bad, good in swap.items():
            args = [a.replace(bad, good) for a in args]
        assert main(args) in (0, 3), name
        assert (work / out).exists(), name


DIRECTORY_ARGS = {
    "index --out": lambda d: ["index", "--corpus", str(d / "c.jsonl"), "--out", str(d)],
    "decontam --testset": lambda d: ["decontam", "--testset", str(d), "--index", str(d / "c.ctkx")],
    "decontam --index": lambda d: ["decontam", "--testset", str(d / "t.jsonl"), "--index", str(d)],
    "decontam --out": lambda d: ["decontam", "--testset", str(d / "t.jsonl"), "--index", str(d / "c.ctkx"),
                                 "--out", str(d)],
    "decontam --scores-out": lambda d: ["decontam", "--testset", str(d / "t.jsonl"), "--index", str(d / "c.ctkx"),
                                        "--scores-out", str(d)],
    "decontam --report-out": lambda d: ["decontam", "--testset", str(d / "t.jsonl"), "--index", str(d / "c.ctkx"),
                                        "--report-out", str(d)],
    "inject plan --testset": lambda d: _plan(d, ".", "plan2.jsonl"),
    "inject plan --out": lambda d: _plan(d, "t.jsonl", "."),
    "inject verify --schedule": lambda d: ["inject", "verify", "--schedule", str(d)],
    "inject apply --stream": lambda d: ["inject", "apply", "--stream", str(d), "--schedule", str(d / "plan.jsonl"),
                                        "--out", str(d / "out.jsonl")],
    "inject apply --out": lambda d: ["inject", "apply", "--stream", str(d / "s.jsonl"), "--schedule",
                                     str(d / "plan.jsonl"), "--out", str(d)],
    "bleu --hyp": lambda d: ["bleu", "--hyp", str(d), "--ref", str(d / "t.jsonl")],
    "report --baseline": lambda d: ["report", "--baseline", str(d), "--contaminated", str(d / "t.jsonl")],
}


@pytest.mark.parametrize("name", sorted(DIRECTORY_ARGS))
def test_directory_as_input_or_output_exits_two(work, capsys, name):
    before = _listing(work)
    capsys.readouterr()
    assert main(DIRECTORY_ARGS[name](work)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0], err
    assert _listing(work) == before
