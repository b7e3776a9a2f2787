import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import random
import shlex
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import contamkit
from contamkit import decontam, matcher, metrics
from contamkit.cli import build_parser, main
from contamkit.corpus_io import (
    CorpusDocument,
    example_to_record,
    iter_batches,
    read_corpus,
    read_testset,
    write_batches,
)
from contamkit.injector import apply_schedule, read_schedule, write_schedule
from contamkit.metrics import corpus_bleu
from contamkit.ngram_index import NGramIndex, ScanConfig, build_index

from helpers import ENV, _synth_stream, decode_batches, make_example, random_tokens, write_corpus


# what every reader says of a token list holding an id outside [0, 2**32)
TOKEN_IDS = "must be a list of token ids (integers in [0, 2**32))"


def _write_testset_file(path, examples):
    with open(path, "w") as f:
        for ex in examples:
            f.write(json.dumps(example_to_record(ex)) + "\n")


def _corpus_and_testset(tmp_path, planted):
    rng = random.Random(0)
    examples = [
        make_example(f"ex{i}", random_tokens(rng, 20, 10**6), random_tokens(rng, 20, 10**6))
        for i in range(6)
    ]
    corpus = [CorpusDocument(f"bg{i}", random_tokens(rng, 80, 10**6)) for i in range(10)]
    if planted:
        corpus.append(CorpusDocument("hit-src", examples[0].source_tokens * 2))
        corpus.append(CorpusDocument("hit-tgt", examples[0].target_tokens * 2))
    corpus_path = tmp_path / "corpus.jsonl"
    testset_path = tmp_path / "testset.jsonl"
    write_corpus(corpus, corpus_path)
    _write_testset_file(testset_path, examples)
    return corpus_path, testset_path


def _index(corpus_path, *flags):
    """Run `contamkit index` over ``corpus_path`` and return the path of the index it saved."""
    index_path = corpus_path.with_suffix(".ctkx")
    assert main(["index", "--corpus", str(corpus_path), *flags, "--out", str(index_path)]) == 0
    return index_path


def test_decontam_exit_zero_when_clean(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    index_path = _index(corpus_path)
    capsys.readouterr()
    code = main([
        "decontam", "--testset", str(testset_path), "--index", str(index_path),
        "--out", str(tmp_path / "kept.jsonl"),
    ])
    assert code == 0
    assert "removed        : 0" in capsys.readouterr().out
    assert len(read_testset(tmp_path / "kept.jsonl")) == 6


def test_decontam_exit_three_when_contaminated(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    code = main([
        "decontam", "--testset", str(testset_path), "--index", str(_index(corpus_path)),
        "--out", str(tmp_path / "kept.jsonl"),
        "--scores-out", str(tmp_path / "scores.jsonl"),
        "--report-out", str(tmp_path / "report.json"),
        "--report-format", "json",
    ])
    assert code == 3
    kept = read_testset(tmp_path / "kept.jsonl")
    assert [ex.example_id for ex in kept] == [f"ex{i}" for i in range(1, 6)]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["removed"] == 1
    assert report["removed_ids"] == ["ex0"]
    scores = [json.loads(line) for line in (tmp_path / "scores.jsonl").read_text().splitlines()]
    assert scores[0]["s_source"] == 1.0
    assert scores[0]["longest_source"]["doc_id"] == "hit-src"


def test_decontam_lower_threshold_removes_a_superset(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    partial = read_testset(testset_path)[1].source_tokens[:12]  # 60% of ex1's source field
    corpus_path.write_text(corpus_path.read_text() + json.dumps({"doc_id": "partial", "tokens": partial}) + "\n")
    index_path = _index(corpus_path)
    removed = {}
    for flags in ([], ["--threshold", "0.5"]):
        report_path = tmp_path / "report.json"
        assert main([
            "decontam", "--testset", str(testset_path), "--index", str(index_path), *flags,
            "--report-format", "json", "--report-out", str(report_path),
        ]) == 3
        removed[tuple(flags)] = json.loads(report_path.read_text())["removed_ids"]
    assert removed == {(): ["ex0"], ("--threshold", "0.5"): ["ex0", "ex1"]}


def test_index_build_and_reuse(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    index_path = tmp_path / "corpus.ctkx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    assert index_path.exists()
    code = main(["decontam", "--testset", str(testset_path), "--index", str(index_path)])
    assert code == 3


def test_decontam_scores_each_example_once(tmp_path, capsys, monkeypatch):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    calls = []

    def counting(example, index, config):
        calls.append(example.example_id)
        return score_example(example, index, config)

    score_example = decontam.score_example
    monkeypatch.setattr(decontam, "score_example", counting)
    code = main([
        "decontam", "--testset", str(testset_path), "--index", str(_index(corpus_path)),
        "--scores-out", str(tmp_path / "scores.jsonl"),
    ])
    assert code == 3
    assert calls == [f"ex{i}" for i in range(6)]
    scores = [json.loads(line) for line in (tmp_path / "scores.jsonl").read_text().splitlines()]
    assert [s["example_id"] for s in scores] == calls
    assert scores[0]["s_source"] == 1.0


def _assert_one_error_line(capsys, name):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0], err


def test_decontam_on_truncated_index_exits_two(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    index_path = tmp_path / "corpus.ctkx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    data = index_path.read_bytes()
    half = tmp_path / "half.ctkx"
    half.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    assert main(["decontam", "--testset", str(testset_path), "--index", str(half)]) == 2
    _assert_one_error_line(capsys, "half.ctkx")


@pytest.mark.parametrize("last_id_byte,error", [
    (b"a", "doc #1: duplicate doc_id 'a'"),
    (b"\xff", "doc #1 id is not UTF-8"),
], ids=["repeated", "not-utf8"])
def test_decontam_on_index_with_a_bad_doc_id_names_the_file_and_doc(tmp_path, capsys, last_id_byte, error):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    write_corpus([CorpusDocument("a", list(range(10))), CorpusDocument("b", list(range(20)))], corpus_path)
    index_path = tmp_path / "corpus.ctkx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    data = bytearray(index_path.read_bytes())
    # the ids come last, back to back: "a" then "b"
    assert data[-2:] == b"ab"
    data[-1:] = last_id_byte
    index_path.write_bytes(data)
    capsys.readouterr()
    assert main(["decontam", "--testset", str(testset_path), "--index", str(index_path)]) == 2
    assert capsys.readouterr().err == f"error: {index_path}: {error}\n"


def test_decontam_on_index_with_damaged_positions_exits_two(tmp_path, capsys):
    rng = random.Random(5)
    docs = [random_tokens(rng, 20, 50) for _ in range(5)]
    corpus_path, testset_path = tmp_path / "corpus.jsonl", tmp_path / "testset.jsonl"
    write_corpus([CorpusDocument(f"d{i}", doc) for i, doc in enumerate(docs)], corpus_path)
    _write_testset_file(testset_path, [make_example("ex0", docs[0][:12], docs[1][5:17])])
    index_path = tmp_path / "corpus.ctkx"
    assert main(["index", "--corpus", str(corpus_path), "--ngram", "3", "--out", str(index_path)]) == 0
    data = bytearray(index_path.read_bytes())
    # the 32-byte header holds the posting count and the doc count; the u32
    # positions follow the u32 keys
    postings, doc_count = struct.unpack_from("<QQ", data, 16)
    assert doc_count == 5
    positions_at, positions_end = 32 + 4 * postings, 32 + 8 * postings
    for k in range(postings):
        data[positions_at + 4 * k + 1] = 1  # each position + 256: past the 100 tokens
    bad = tmp_path / "bad.ctkx"
    bad.write_bytes(data)
    unchanged = index_path.read_bytes()
    assert data[:positions_at] == unchanged[:positions_at] and data[positions_end:] == unchanged[positions_end:]
    capsys.readouterr()
    kept = tmp_path / "kept.jsonl"
    code = main(["decontam", "--testset", str(testset_path), "--index", str(bad), "--out", str(kept)])
    assert code == 2
    _assert_one_error_line(capsys, "bad.ctkx: a posting points outside the indexed documents; rebuild the index")
    assert not kept.exists()


def test_decontam_refuses_a_field_holding_a_token_no_index_holds(tmp_path, capsys):
    rng = random.Random(6)
    docs = [random_tokens(rng, 40, 10**6) for _ in range(3)]
    source = docs[0][:10] + [2**32] + docs[1][3:18]
    target = docs[2][:9] + [2**32]
    corpus_path, testset_path = tmp_path / "corpus.jsonl", tmp_path / "testset.jsonl"
    write_corpus([CorpusDocument(f"d{i}", doc) for i, doc in enumerate(docs)], corpus_path)
    _write_testset_file(testset_path, [make_example("ex0", source, target)])
    scores_path = tmp_path / "scores.jsonl"
    argv = ["decontam", "--testset", str(testset_path), "--index", str(_index(corpus_path)),
            "--scores-out", str(scores_path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {testset_path}:1: field 'source_tokens' {TOKEN_IDS}\n"
    assert not scores_path.exists()


def test_inject_plan_fills_an_exactly_full_split_pair_window(tmp_path, capsys):
    # 6 examples x 5 copies x 2 halves = 60 entries on steps 45..49 at cap 12:
    # the last halves find room only on their own copy's step, so a placed half must move
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "split_pair", "--temporal", "late",
        "--copies", "5", "--steps", "50", "--batch-size", "100", "--cap", "0.125", "--window-frac", "0.001",
        "--out", str(plan_path),
    ]) == 0
    assert main(["inject", "verify", "--schedule", str(plan_path)]) == 0
    assert "schedule check: ok (60 entries over 5 steps)" in capsys.readouterr().out


def test_inject_plan_strict_cap_lowers_an_exact_cap_by_one(tmp_path, capsys):
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    caps = {}
    for flags in ([], ["--strict-cap"]):
        plan_path = tmp_path / "plan.jsonl"
        assert main([
            "inject", "plan", "--testset", str(testset_path), "--mode", "full_prompted", "--temporal", "late",
            "--copies", "1", "--steps", "100", "--batch-size", "100", "--cap", "0.05", *flags,
            "--out", str(plan_path),
        ]) == 0
        header = json.loads(plan_path.read_text().splitlines()[0])
        caps[header["strict_cap"]] = header["cap"]
    assert caps == {False: 5, True: 4}


def test_inject_verify_on_header_without_mode_exits_two(tmp_path, capsys):
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "batched_pair", "--temporal", "late",
        "--copies", "1", "--steps", "100", "--batch-size", "64", "--out", str(plan_path),
    ]) == 0
    lines = plan_path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["mode"]
    bad_path = tmp_path / "no_mode.jsonl"
    bad_path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["inject", "verify", "--schedule", str(bad_path)]) == 2
    _assert_one_error_line(capsys, "no_mode.jsonl:1: missing field 'mode'")


def test_inject_plan_verify_apply_pipeline(tmp_path, capsys):
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    plan_path = tmp_path / "plan.jsonl"
    code = main([
        "inject", "plan", "--testset", str(testset_path),
        "--mode", "batched_pair", "--temporal", "late", "--copies", "3",
        "--steps", "1000", "--batch-size", "64", "--seed", "9",
        "--out", str(plan_path),
    ])
    assert code == 0
    schedule = read_schedule(plan_path)
    assert len(schedule.entries) == 6 * 3 * 2

    assert main(["inject", "verify", "--schedule", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    # corrupt one entry's step and expect a nonzero exit
    lines = plan_path.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["step"] = 10
    lines[1] = json.dumps(entry, sort_keys=True)
    bad_path = tmp_path / "bad.jsonl"
    bad_path.write_text("\n".join(lines) + "\n")
    assert main(["inject", "verify", "--schedule", str(bad_path)]) == 1
    assert "violation" in capsys.readouterr().out

    stream_path = tmp_path / "stream.jsonl"
    write_batches(_synth_stream(1000, 64).steps, stream_path)
    out_path = tmp_path / "out.jsonl"
    assert main([
        "inject", "apply", "--stream", str(stream_path),
        "--schedule", str(plan_path), "--out", str(out_path),
    ]) == 0
    before = list(iter_batches(stream_path))
    after = list(iter_batches(out_path))
    changed = sum(
        before[s][i] != after[s][i]
        for s in range(1000)
        for i in range(64)
    )
    assert changed == len(schedule.entries)


def _package_exceptions():
    for info in pkgutil.iter_modules(contamkit.__path__):
        module = importlib.import_module(f"contamkit.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__:
                yield value


def test_every_package_exception_is_a_value_error_that_main_reports(monkeypatch, capsys):
    # main turns every refusal into one error line by catching ValueError and
    # OSError alone, so a new exception class cannot be left out of its list
    classes = set(_package_exceptions())
    assert {"CapacityError", "CorpusFormatError"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert issubclass(cls, ValueError), cls

        def refuse(args, cls=cls):
            raise cls("refused")

        monkeypatch.setattr("contamkit.cli._cmd_inject_verify", refuse)
        assert main(["inject", "verify", "--schedule", "s.jsonl"]) == 2, cls
        assert capsys.readouterr().err == "error: refused\n", cls


def test_main_lets_a_fault_of_the_program_through(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug, not a refusal")

    monkeypatch.setattr("contamkit.cli._cmd_inject_verify", fail)
    with pytest.raises(RuntimeError):
        main(["inject", "verify", "--schedule", "s.jsonl"])


def test_inject_plan_capacity_error_exits_two(tmp_path, capsys):
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    code = main([
        "inject", "plan", "--testset", str(testset_path),
        "--mode", "full_prompted", "--temporal", "late", "--copies", "100",
        "--steps", "100", "--batch-size", "64",
        "--out", str(tmp_path / "plan.jsonl"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bleu_command_text_mode(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\n")
    ref.write_text("a b c d e\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BLEU = 77.8801")
    assert "(order=4, smoothing=none)" in out


def test_bleu_command_token_mode(tmp_path, capsys):
    hyp = tmp_path / "hyp.jsonl"
    ref = tmp_path / "ref.jsonl"
    hyp.write_text("[1, 2, 3, 4]\n")
    ref.write_text("[1, 2, 3, 4]\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), "--tokens", "--smoothing", "add_one"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BLEU = 100.0000")
    assert "smoothing=add_one" in out


def test_bleu_max_order_is_passed_to_corpus_bleu(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\nx y z\n")
    ref.write_text("a b c d e\nx y w\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), "--max-order", "2"]) == 0
    hyps = [line.split() for line in hyp.read_text().splitlines()]
    refs = [line.split() for line in ref.read_text().splitlines()]
    expected = corpus_bleu(hyps, refs, max_order=2)
    assert capsys.readouterr().out == f"BLEU = {expected:.4f} (order=2, smoothing=none)\n"
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), "--max-order", "0"]) == 2
    _assert_one_error_line(capsys, "max_order must be >= 1")


def _records_file(path, rows):
    with open(path, "w") as f:
        for system, pair, bleu in rows:
            f.write(json.dumps({
                "system_id": system, "lang_pair": pair, "testset_id": "t", "bleu": bleu,
                "segment_count": 4,
            }) + "\n")


def test_report_command_with_gap(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    clean_base = tmp_path / "clean_base.jsonl"
    clean_cont = tmp_path / "clean_cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95), ("b", "de-en", 33.59)])
    _records_file(cont, [("c", "en-de", 34.34), ("c", "de-en", 37.15)])
    _records_file(clean_base, [("b", "en-de", 24.01), ("b", "de-en", 30.00)])
    _records_file(clean_cont, [("c", "en-de", 25.13), ("c", "de-en", 30.50)])
    code = main([
        "report", "--baseline", str(base), "--contaminated", str(cont),
        "--clean-set", str(clean_base), str(clean_cont),
        "--condition", "late,full_prompted,1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "En->X" in out and "X->En" in out
    assert "3.39" in out
    assert "2.27" in out  # en-de gap: 3.39 - 1.12


def test_report_warns_of_keys_on_one_side_only(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95), ("b", "de-en", 33.59), ("b", "cs-uk", 20.0)])
    _records_file(cont, [("c", "en-de", 34.34)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(cont)]) == 0
    assert capsys.readouterr().err == "warning: unmatched keys (baseline-only: 2, contaminated-only: 0)\n"


def test_report_on_record_without_lang_pair_exits_two(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95)])
    base.write_text(base.read_text() + json.dumps({"system_id": "b", "bleu": 20.0}) + "\n")
    _records_file(cont, [("c", "en-de", 34.34)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(cont)]) == 2
    _assert_one_error_line(capsys, "base.jsonl:2: missing field 'lang_pair'")


def test_index_on_token_id_beyond_32_bits_exits_two(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus([CorpusDocument("wide", [1, 2, 2**32, 3] * 4)], corpus_path)
    assert main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "c.ctkx")]) == 2
    assert capsys.readouterr().err == f"error: {corpus_path}:1: field 'tokens' {TOKEN_IDS}\n"
    assert not (tmp_path / "c.ctkx").exists()


def test_index_of_a_corpus_is_the_same_from_jsonl_and_ctk(tmp_path, capsys):
    # the ctk file comes from the tests' own encoder, so the two readers are held to each other
    top = 2**32 - 1
    docs = [
        CorpusDocument("déjà-vu", [5, top, 7, 5, top, 7, 0]),
        CorpusDocument("空", []),
        CorpusDocument("Ωmega", [top] * 4 + [0, 1]),
    ]
    write_corpus(docs, tmp_path / "from_jsonl.jsonl")
    write_corpus(docs, tmp_path / "from_ctk.ctk", fmt="ctk")
    from_jsonl = _index(tmp_path / "from_jsonl.jsonl", "--ngram", "3")
    from_ctk = _index(tmp_path / "from_ctk.ctk", "--corpus-format", "ctk", "--ngram", "3")
    assert from_jsonl.read_bytes() == from_ctk.read_bytes()
    index = NGramIndex.load(from_ctk)
    assert [index.doc_id(r) for r in range(index.doc_count)] == [doc.doc_id for doc in docs]
    assert index.tokens.tolist() == [t for doc in docs for t in doc.tokens]
    assert index.posting_count == 5 + 0 + 4


def _assert_usage_error(capsys, argv, message):
    """``argv`` is refused by argparse: exit 2, usage on stderr, nothing on stdout."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: contamkit ")
    assert err.splitlines()[-1].endswith(f": error: {message}")


def test_decontam_with_index_of_other_ngram_exits_two(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=True)
    index_path = _index(corpus_path)
    for flags in (["--ngram", "5"], ["--corpus", str(corpus_path)]):
        argv = ["decontam", "--testset", str(testset_path), "--index", str(index_path), *flags]
        _assert_usage_error(capsys, argv, f"unrecognized arguments: {' '.join(flags)}")


def test_decontam_without_index_or_corpus_exits_two(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    for flags in ([], ["--corpus", str(corpus_path)]):
        argv = ["decontam", "--testset", str(testset_path), *flags]
        _assert_usage_error(capsys, argv, "the following arguments are required: --index")


def test_every_readme_command_parses(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("contamkit ")]
    assert {argv[0] for argv in commands} == {"index", "decontam", "inject", "bleu", "report"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: contamkit {shlex.join(argv)}\n{capsys.readouterr().err}")


def test_decontam_takes_n_from_the_index(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    examples = read_testset(testset_path)
    # ex1's source shares a 6-token run with the corpus: a hit at n=5, not at the default n=8
    partial = examples[1].source_tokens[2:8]
    corpus_path.write_text(corpus_path.read_text() + json.dumps({"doc_id": "six", "tokens": partial}) + "\n")
    scores_path = tmp_path / "scores.jsonl"
    argv = ["decontam", "--testset", str(testset_path), "--index", str(_index(corpus_path, "--ngram", "5")),
            "--scores-out", str(scores_path)]
    assert main(argv) == 0
    config = ScanConfig(ngram_order=5)
    index = build_index(read_corpus(corpus_path), config)
    expected_path = tmp_path / "expected.jsonl"
    matcher.write_scores([(ex.example_id, matcher.score_example(ex, index, config)) for ex in examples],
                         index, expected_path)
    assert scores_path.read_bytes() == expected_path.read_bytes()
    scores = [json.loads(line) for line in scores_path.read_text().splitlines()]
    assert scores[1]["s_source"] == 0.3 and scores[1]["longest_source"]["doc_id"] == "six"


def test_decontam_refuses_a_bad_threshold(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    index_path = _index(corpus_path)
    for threshold in ("0", "1.5"):
        capsys.readouterr()
        assert main(["decontam", "--testset", str(testset_path), "--index", str(index_path),
                     "--threshold", threshold]) == 2
        assert capsys.readouterr().err == "error: threshold must be in (0, 1]\n"


def test_decontam_refuses_a_bad_threshold_before_reading_the_index(tmp_path, capsys):
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    index_path = tmp_path / "bad.ctkx"
    index_path.write_text("junk")
    assert main(["decontam", "--testset", str(testset_path), "--index", str(index_path),
                 "--threshold", "0"]) == 2
    assert capsys.readouterr().err == "error: threshold must be in (0, 1]\n"


def test_index_refuses_an_ngram_order_its_header_cannot_hold(tmp_path, capsys):
    corpus_path, _ = _corpus_and_testset(tmp_path, planted=False)
    capsys.readouterr()
    assert main(["index", "--corpus", str(corpus_path), "--ngram", str(2**32), "--out", str(tmp_path / "i.ctkx")]) == 2
    assert capsys.readouterr() == ("", "error: ngram_order must be < 2**32\n")
    assert not (tmp_path / "i.ctkx").exists()


def test_index_refuses_an_empty_corpus_path(tmp_path, capsys, monkeypatch):
    # read_corpus("") would resolve to the current directory and read its shards
    write_corpus([CorpusDocument("here", list(range(20)))], tmp_path / "here.jsonl")
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(["index", "--corpus", "", "--out", str(tmp_path / "i.ctkx")]) == 2
    _assert_one_error_line(capsys, "--corpus")
    assert sorted(os.listdir(tmp_path)) == before


def test_report_with_bad_condition_exits_two(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95)])
    _records_file(cont, [("c", "en-de", 34.34)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(cont), "--condition", "bad"]) == 2
    _assert_one_error_line(capsys, "cannot parse condition 'bad'")


def test_report_condition_with_two_faults_names_the_copies_count(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    _records_file(base, [("b", "en-de", 30.95)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(base), "--condition", "late,bad,x"]) == 2
    _assert_one_error_line(capsys, "invalid literal for int() with base 10: 'x'")


def test_bleu_tokens_line_not_a_json_array_exits_two_naming_the_line(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text("[1, 2]\n[3, 4]\n[5, 6]\n")
    cases = (("not_json.jsonl", "not json"), ("object.jsonl", '{"x": 1}'), ("nested.jsonl", "[[1], 2]"),
             ("blank.jsonl", ""))
    # a segment is a token list under the rule of every format: ids, not bools, floats, strings or null
    cases += tuple((f"item{i}.jsonl", f"[{item}]")
                   for i, item in enumerate(("true", "false", "1.0", "null", '"1"', "-1", "4294967296")))
    for name, bad in cases:
        path = tmp_path / name
        path.write_text(f"[1, 2]\n{bad}\n[5, 6]\n")
        for hyp, ref in ((path, good), (good, path)):
            assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), "--tokens"]) == 2, (name, hyp)
            _assert_one_error_line(capsys, f"{path}:2:")
    path = tmp_path / "true.jsonl"
    path.write_text("[true]\n")
    (tmp_path / "one.jsonl").write_text("[1]\n")
    assert main(["bleu", "--hyp", str(path), "--ref", str(tmp_path / "one.jsonl"), "--tokens"]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: segment {TOKEN_IDS}\n"


def test_bleu_text_mode_splits_lines_on_whitespace(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("  a  bc\td \n")
    ref.write_text("a bc d\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = 100.0000")



def _apply_plan(tmp_path):
    """A 6-entry full_prompted plan for a 100 x 64 stream."""
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "full_prompted",
        "--temporal", "late", "--copies", "1", "--steps", "100", "--batch-size", "64",
        "--out", str(plan_path),
    ]) == 0
    return plan_path


def test_failed_inject_apply_exits_two_and_leaves_out_alone(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    assert any(e.slot != 0 for e in read_schedule(plan_path).entries)  # slot 0 is always parallel
    cases = (
        ("short.jsonl", _synth_stream(50, 64), [], "short.jsonl: stream has 50 steps, schedule expects 100"),
        ("narrow.jsonl", _synth_stream(100, 32), [],
         "narrow.jsonl: stream batch_size 32 does not match schedule batch_size 64"),
        ("mono.jsonl", _synth_stream(100, 64), ["--require-parallel"], "expected 'parallel'"),
    )
    for name, stream, flags, message in cases:
        stream_path = tmp_path / name
        write_batches(stream.steps, stream_path)
        for existing in (None, b"previous output\n"):
            out_path = tmp_path / "out.jsonl"
            if existing is not None:
                out_path.write_bytes(existing)
            before = sorted(p.name for p in tmp_path.iterdir())
            capsys.readouterr()
            assert main([
                "inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                "--out", str(out_path), *flags,
            ]) == 2
            _assert_one_error_line(capsys, message)
            assert sorted(p.name for p in tmp_path.iterdir()) == before  # no partial or temporary file
            if existing is None:
                assert not out_path.exists()
            else:
                assert out_path.read_bytes() == existing
                out_path.unlink()


def test_inject_apply_replaces_existing_out(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream = _synth_stream(100, 64)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(stream.steps, stream_path)
    out_path = tmp_path / "out.jsonl"
    out_path.write_text("previous output\n")
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                 "--out", str(out_path)]) == 0
    assert list(decode_batches(out_path)) == apply_schedule(stream, read_schedule(plan_path)).steps
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_inject_apply_writes_a_special_file_in_place(tmp_path, capsys):
    # e.g. --out /dev/stdout: a target that is not a regular file is written, never replaced
    plan_path = _apply_plan(tmp_path)
    stream = _synth_stream(100, 64)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(stream.steps, stream_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                 "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and stat.S_ISFIFO(fifo.stat().st_mode)
    expected = tmp_path / "expected.jsonl"
    write_batches(apply_schedule(stream, read_schedule(plan_path)).steps, expected)
    assert received == [expected.read_bytes()]


def test_inject_apply_to_a_fifo_whose_reader_closes_early_names_the_path(tmp_path, capsys):
    # the output is far larger than a pipe holds, so the write meets the closed end
    plan_path = _apply_plan(tmp_path)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(_synth_stream(100, 64).steps, stream_path)
    assert stream_path.stat().st_size > 4 << 16
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def read_a_few_bytes():
        with open(fifo, "rb", buffering=0) as f:
            f.read(10)

    reader = threading.Thread(target=read_a_few_bytes, daemon=True)
    reader.start()
    capsys.readouterr()
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                 "--out", str(fifo)]) == 2
    reader.join(timeout=30)
    assert not reader.is_alive() and stat.S_ISFIFO(fifo.stat().st_mode)
    assert capsys.readouterr().err == f"error: [Errno 32] Broken pipe: '{fifo}'\n"


def test_inject_apply_on_undecodable_stream_names_the_line(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(_synth_stream(100, 64).steps, stream_path)
    data = bytearray(stream_path.read_bytes())
    third = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[third + 3] = 0xFF
    stream_path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    _assert_one_error_line(capsys, "stream.jsonl:3: not UTF-8 (byte 0xff at column 4)")
    assert not (tmp_path / "out.jsonl").exists()


def test_inject_verify_and_apply_reject_mistyped_schedule_fields(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(_synth_stream(100, 64).steps, stream_path)
    lines = [json.loads(line) for line in plan_path.read_text().splitlines()]
    cases = (
        (2, "slot", "4", "bad.jsonl:3: field 'slot' must be a non-negative integer"),
        (2, "step", -1, "bad.jsonl:3: field 'step' must be a non-negative integer"),
        (2, "copy_index", True, "bad.jsonl:3: field 'copy_index' must be a non-negative integer"),
        (2, "example_id", 7, "bad.jsonl:3: field 'example_id' must be a string"),
        (0, "cap", "3", "bad.jsonl:1: field 'cap' must be a non-negative integer"),
        (0, "window_end", 99.5, "bad.jsonl:1: field 'window_end' must be a non-negative integer"),
    )
    bad_path = tmp_path / "bad.jsonl"
    for line, key, value, message in cases:
        edited = [dict(record) for record in lines]
        edited[line][key] = value
        bad_path.write_text("".join(json.dumps(record) + "\n" for record in edited))
        capsys.readouterr()
        assert main(["inject", "verify", "--schedule", str(bad_path)]) == 2
        _assert_one_error_line(capsys, message)
        assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(bad_path),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
        _assert_one_error_line(capsys, message)
        assert not (tmp_path / "out.jsonl").exists()


def test_bleu_names_the_file_and_line_of_undecodable_bytes(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_bytes(b"a b\xff c\nd e f\n")
    ref.write_text("a b c\nd e f\n")
    for flags in ([], ["--tokens"]):
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), *flags]) == 2
        _assert_one_error_line(capsys, "h.txt:1: not UTF-8 (byte 0xff at column 4)")
    assert main(["bleu", "--hyp", str(ref), "--ref", str(hyp)]) == 2
    _assert_one_error_line(capsys, "h.txt:1: not UTF-8 (byte 0xff at column 4)")


def test_bleu_names_the_file_and_line_of_a_bad_reference(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c\nd e f\n")
    ref.write_text("a b c\n\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 2
    _assert_one_error_line(capsys, "ref.txt:2: reference segment is empty")

    ref.write_text("a b c\n")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 2
    _assert_one_error_line(capsys, f"{hyp}: 2 hypotheses vs {ref}: 1 references")


def test_deeply_nested_json_names_the_line(tmp_path, capsys):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "\n")
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    commands = (
        ["bleu", "--hyp", str(deep), "--ref", str(deep), "--tokens"],
        ["report", "--baseline", str(deep), "--contaminated", str(deep)],
        ["index", "--corpus", str(deep), "--out", str(tmp_path / "i.ctkx")],
        ["decontam", "--testset", str(deep), "--index", str(_index(corpus_path))],
        ["inject", "verify", "--schedule", str(deep)],
    )
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines() == [f"error: {deep}:1: invalid JSON (nested too deeply)"]
    assert not (tmp_path / "i.ctkx").exists()


def test_inject_apply_names_the_schedule_behind_a_schedule_fault(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream_path = tmp_path / "stream.jsonl"
    write_batches(_synth_stream(100, 64).steps, stream_path)
    first = read_schedule(plan_path).entries[0]
    first_violation = "the first: entry count 7 != examples x copies x arity = 6"
    cases = (
        (first, f"schedule check: 4 violation(s), {first_violation}"),
        (dataclasses.replace(first, step=100), f"schedule check: 3 violation(s), {first_violation}"),
        (dataclasses.replace(first, slot=64), f"schedule check: 4 violation(s), {first_violation}"),
    )
    for extra, message in cases:
        schedule = read_schedule(plan_path)
        schedule = dataclasses.replace(schedule, entries=[*schedule.entries, extra])
        bad = tmp_path / "bad_plan.jsonl"
        write_schedule(schedule, bad)
        capsys.readouterr()
        assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(bad),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out.jsonl").exists()


def test_inject_apply_refuses_a_schedule_that_inject_verify_flags(tmp_path, capsys):
    # a hand-edited 3-entry plan: cap 1, every entry moved to step 0, outside the late window
    _, testset_path = _corpus_and_testset(tmp_path, planted=False)
    testset_path.write_text("".join(testset_path.read_text().splitlines(keepends=True)[:3]))
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "full_prompted", "--temporal", "late",
        "--copies", "1", "--steps", "4", "--batch-size", "4", "--cap", "0.75", "--out", str(plan_path),
    ]) == 0
    schedule = read_schedule(plan_path)
    assert (schedule.window_start, schedule.window_end, schedule.cap) == (3, 4, 3)
    schedule.cap = 1
    schedule = dataclasses.replace(schedule, entries=[dataclasses.replace(e, step=0) for e in schedule.entries])
    write_schedule(schedule, plan_path)
    capsys.readouterr()
    assert main(["inject", "verify", "--schedule", str(plan_path)]) == 1
    assert capsys.readouterr().out.startswith("schedule check: 5 violation(s)")
    stream_path, out = tmp_path / "stream.jsonl", tmp_path / "out.jsonl"
    write_batches(_synth_stream(4, 4).steps, stream_path)
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path), "--out", str(out)]) == 2
    first = "header cap 1 does not match config cap 3"
    assert capsys.readouterr().err == f"error: {plan_path}: schedule check: 5 violation(s), the first: {first}\n"
    assert not out.exists()


def test_inject_apply_refuses_a_stream_token_id_beyond_32_bits(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream = _synth_stream(100, 64)
    stream.steps[1][3].tokens.append(2**32)  # line 64 + 4
    stream_path, out = tmp_path / "stream.jsonl", tmp_path / "out.jsonl"
    write_batches(stream.steps, stream_path)
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {stream_path}:68: field 'tokens' {TOKEN_IDS}\n"
    assert not out.exists()


def test_inject_apply_require_parallel_names_the_stream_step_and_slot(tmp_path, capsys):
    plan_path = _apply_plan(tmp_path)
    stream_path = tmp_path / "mono.jsonl"
    write_batches(_synth_stream(100, 64).steps, stream_path)  # only slot 0 of each batch is parallel
    refused = next(e for e in read_schedule(plan_path).entries if e.slot != 0)
    capsys.readouterr()
    assert main(["inject", "apply", "--stream", str(stream_path), "--schedule", str(plan_path),
                 "--out", str(tmp_path / "out.jsonl"), "--require-parallel"]) == 2
    _assert_one_error_line(
        capsys, f"error: {stream_path}: (step {refused.step}, slot {refused.slot}): incumbent is 'monolingual'"
    )


def test_inject_apply_refuses_to_replace_a_contamination_document(tmp_path, capsys):
    # two conditions applied in turn: the second plan, drawn alone, targets a slot the first filled,
    # which would lose one of its documents and put 10 injected documents where the cap allows 5
    rng = random.Random(0)
    testset = tmp_path / "testset.jsonl"
    _write_testset_file(testset, [
        make_example(f"ex{i}", random_tokens(rng, 20, 10**6), random_tokens(rng, 20, 10**6)) for i in range(40)
    ])
    plans = []
    for mode, seed in (("full_prompted", 1), ("source_only", 2)):
        plans.append(tmp_path / f"{mode}.jsonl")
        assert main(["inject", "plan", "--testset", str(testset), "--mode", mode, "--temporal", "late",
                     "--copies", "2", "--steps", "200", "--batch-size", "100", "--seed", str(seed),
                     "--out", str(plans[-1])]) == 0
    stream, once, twice = (tmp_path / name for name in ("stream.jsonl", "once.jsonl", "twice.jsonl"))
    write_batches(_synth_stream(200, 100).steps, stream)
    assert main(["inject", "apply", "--stream", str(stream), "--schedule", str(plans[0]), "--out", str(once)]) == 0
    first = {(e.step, e.slot) for e in read_schedule(plans[0]).entries}
    step, slot = min((e.step, e.slot) for e in read_schedule(plans[1]).entries if (e.step, e.slot) in first)
    capsys.readouterr()
    assert main(["inject", "apply", "--stream", str(once), "--schedule", str(plans[1]), "--out", str(twice)]) == 2
    assert capsys.readouterr() == ("", f"error: {once}: (step {step}, slot {slot}): incumbent is a contamination "
                                       "document; plan the conditions as one schedule instead of applying one plan "
                                       "over another\n")
    assert not twice.exists()


def test_report_names_the_file_and_line_of_a_repeated_key(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95), ("b", "de-en", 33.59), ("b2", "en-de", 31.0)])
    _records_file(cont, [("c", "en-de", 34.34)])
    for argv in (["--baseline", str(base), "--contaminated", str(cont)],
                 ["--baseline", str(cont), "--contaminated", str(base)]):
        assert main(["report", *argv]) == 2
        assert capsys.readouterr().err == f"error: {base}:3: duplicate (lang_pair, testset_id) key ('en-de', 't')\n"


def test_report_names_both_files_when_they_share_no_key(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    cont = tmp_path / "cont.jsonl"
    _records_file(base, [("b", "en-de", 30.95)])
    _records_file(cont, [("c", "de-en", 34.34)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(cont)]) == 2
    assert capsys.readouterr().err == (
        f"error: {base}, {cont}: baseline and contaminated records share no (lang_pair, testset) keys\n"
    )
    clean = tmp_path / "clean.jsonl"
    _records_file(clean, [("c", "cs-uk", 20.0)])
    assert main(["report", "--baseline", str(base), "--contaminated", str(base),
                 "--clean-set", str(clean), str(clean)]) == 2
    assert capsys.readouterr().err == (
        f"error: {base}, {base} vs {clean}, {clean}: impact tables share no (condition, lang_pair) keys\n"
    )


def test_report_gap_refusal_prints_no_table_first(tmp_path, capsys):
    # one pair under two test sets gives two impact cells with one gap key
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        json.dumps({"system_id": "s", "lang_pair": "en-de", "testset_id": testset, "bleu": 30.0}) + "\n"
        for testset in ("wmt23", "wmt22")
    ))
    assert main(["report", "--baseline", str(records), "--contaminated", str(records),
                 "--clean-set", str(records), str(records)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {records}, {records} vs {records}, {records}: contaminated-set cells hold en-de "
        "under test sets 'wmt23' and 'wmt22'; a gap takes one test set per pair\n"
    ))


def test_report_text_table_tells_two_test_sets_of_one_pair_apart(tmp_path, capsys):
    base, cont = tmp_path / "base.jsonl", tmp_path / "cont.jsonl"
    for path, bleu in ((base, 30.0), (cont, 33.0)):
        path.write_text("".join(
            json.dumps({"system_id": "s", "lang_pair": "en-de", "testset_id": testset, "bleu": bleu + shift}) + "\n"
            for testset, shift in (("wmt23", 0.0), ("flores200", 1.0))
        ))
    assert main(["report", "--baseline", str(base), "--contaminated", str(cont)]) == 0
    assert capsys.readouterr().out == (
        "En->X\n"
        "pair       testset    baseline    contam    delta      pct\n"
        "en-de      flores200     31.00     34.00     3.00     9.68\n"
        "en-de      wmt23         30.00     33.00     3.00    10.00\n"
    )


def test_inject_plan_names_the_testset_and_example_of_an_unnamed_language(tmp_path, capsys):
    testset_path = tmp_path / "testset.jsonl"
    _write_testset_file(testset_path, [make_example("ex0", [1, 2], [3, 4]),
                                       make_example("ex1", [1, 2], [3, 4], pair=("fr", "en"))])
    assert main(["inject", "plan", "--testset", str(testset_path), "--mode", "full_prompted",
                 "--temporal", "late", "--copies", "1", "--steps", "100", "--batch-size", "64",
                 "--out", str(tmp_path / "plan.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"error: {testset_path}: example 'ex1': no English name for language tag 'fr' in template\n"
    )
    assert not (tmp_path / "plan.jsonl").exists()


def test_index_to_a_fifo_names_the_path(tmp_path, capsys):
    corpus_path, _ = _corpus_and_testset(tmp_path, planted=False)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["index", "--corpus", str(corpus_path), "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and stat.S_ISFIFO(fifo.stat().st_mode)
    out = capsys.readouterr().out
    assert out.endswith(f" -> {fifo}\n")
    regular = tmp_path / "regular.ctkx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(regular)]) == 0
    assert capsys.readouterr().out == out.replace(str(fifo), str(regular))
    assert received == [regular.read_bytes()]


def _feed(fifo, data: bytes) -> threading.Thread:
    """Start a thread that writes ``data`` into ``fifo``; a reader that stops early breaks the pipe, which it ignores."""
    def write():
        try:
            fifo.write_bytes(data)
        except BrokenPipeError:
            pass
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def test_decontam_refuses_an_index_from_a_fifo_as_not_a_regular_file(tmp_path, capsys):
    corpus_path, testset_path = _corpus_and_testset(tmp_path, planted=False)
    index_path = _index(corpus_path)
    fifo = tmp_path / "fifo.ctkx"
    os.mkfifo(fifo)
    writer = _feed(fifo, index_path.read_bytes())
    capsys.readouterr()
    assert main(["decontam", "--index", str(fifo), "--testset", str(testset_path)]) == 2
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert capsys.readouterr().err == f"error: {fifo}: not a regular file; an index is read by its size\n"


def test_a_testset_fifo_with_a_bad_byte_names_the_file(tmp_path):
    # run in a child with a timeout: a reader that opened the pipe again to find the bad byte would wait for a
    # writer for ever; read once, a pipe names the line and column as a regular file does
    rng = random.Random(0)
    lines = []
    while sum(map(len, lines)) < 128 * 1024:
        ex = make_example(f"ex{len(lines)}", random_tokens(rng, 20, 10**6), random_tokens(rng, 20, 10**6))
        lines.append(json.dumps(example_to_record(ex)).encode() + b"\n")
    fifo = tmp_path / "testset.jsonl"
    os.mkfifo(fifo)
    writer = _feed(fifo, b"".join(lines) + b"\xff")
    argv = ["inject", "plan", "--testset", str(fifo), "--mode", "full_prompted", "--temporal", "late",
            "--copies", "1", "--steps", "100", "--batch-size", "64", "--out", str(tmp_path / "plan.jsonl")]
    result = subprocess.run([sys.executable, "-m", "contamkit.cli", *argv], env=ENV, capture_output=True, text=True,
                            timeout=30)
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {fifo}:173: not UTF-8 (byte 0xff at column 1)\n")


def test_index_and_decontam_defaults_are_those_of_scan_config():
    # the parser writes them out, so that a launch need not import ngram_index; this holds them equal
    index_args = build_parser().parse_args(["index", "--corpus", "c.jsonl", "--out", "i.ctkx"])
    decontam_args = build_parser().parse_args(["decontam", "--testset", "t.jsonl", "--index", "i.ctkx"])
    assert (index_args.ngram, decontam_args.threshold) == (ScanConfig().ngram_order, ScanConfig().threshold)


def test_bleu_defaults_are_those_of_corpus_bleu(capsys):
    # the parser writes them out, so that a launch need not import metrics; this holds them equal
    defaults = inspect.signature(corpus_bleu).parameters
    args = build_parser().parse_args(["bleu", "--hyp", "h.txt", "--ref", "r.txt"])
    assert (args.max_order, args.smoothing) == (defaults["max_order"].default, defaults["smoothing"].default)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bleu", "--help"])
    assert f"--smoothing {{{','.join(metrics.SMOOTHING_MODES)}}}" in capsys.readouterr().out
