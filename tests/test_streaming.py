"""Peak-memory soak checks: corpus reading, index building, stream application
and schedule verification must stay bounded."""

import json
import random
import subprocess
import sys
import textwrap

from contamkit.cli import main
from contamkit.corpus_io import CorpusDocument, example_to_record
from contamkit.injector import read_schedule

from helpers import ENV, make_example, random_tokens, write_corpus

DOCS_PER_SHARD = 20_000
SHARDS = 3
TOKENS_PER_DOC = 50
RSS_CEILING_MB = 150  # generous; full materialization of 3M tokens would blow past it

READER = textwrap.dedent(
    """
    import json, sys
    from contamkit.corpus_io import read_corpus

    docs = 0
    tokens = 0
    for doc in read_corpus(sys.argv[1]):
        docs += 1
        tokens += len(doc.tokens)
    print(json.dumps({"docs": docs, "tokens": tokens}))
    """
)

# Linux carries the peak RSS of the process that calls exec into the new
# program's ru_maxrss, so a command started straight from this (large) test
# process would report at least the test process's own peak. A small launcher
# starts the command instead and reads its peak from os.wait4.
LAUNCHER = textwrap.dedent(
    """
    import json, os, sys

    pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "peak_kb": usage.ru_maxrss}))
    """
)


def _run_measured(*args):
    """Run ``python *args`` through the launcher; returns (its output lines, exit code, peak RSS in MB)."""
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *args], env=ENV, capture_output=True, text=True, check=True)
    *lines, last = result.stdout.splitlines()
    stats = json.loads(last)
    return lines, stats["code"], stats["peak_kb"] / 1024


def _doc_stream(shard, count):
    base = shard * count
    for i in range(count):
        seed = (base + i) * 2654435761 % 2**30
        yield CorpusDocument(
            doc_id=f"doc-{base + i:07d}",
            tokens=[(seed + j * 97) % 50_000 for j in range(TOKENS_PER_DOC)],
        )


def test_reader_peak_rss_stays_bounded(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for shard in range(SHARDS):
        write_corpus(_doc_stream(shard, DOCS_PER_SHARD), corpus_dir / f"shard-{shard:02d}.jsonl")

    lines, code, peak_mb = _run_measured("-c", READER, str(corpus_dir))
    assert code == 0
    stats = json.loads(lines[-1])
    assert stats["docs"] == SHARDS * DOCS_PER_SHARD
    assert stats["tokens"] == SHARDS * DOCS_PER_SHARD * TOKENS_PER_DOC
    assert peak_mb < RSS_CEILING_MB, f"peak RSS {peak_mb:.0f} MB exceeds {RSS_CEILING_MB} MB ceiling"


STREAM_STEPS = 2_000
STREAM_BATCH = 512
APPLY_RSS_CEILING_MB = 64  # the whole 1.02M-record stream held in memory takes ~470 MB


def _stream_line(step, slot):
    # the exact bytes the writer emits, so untouched records must come back identical
    category = "parallel" if slot % 2 else "monolingual"
    return (
        f'{{"step": {step}, "slot": {slot}, "doc": {{"doc_id": "d{step}-{slot}", '
        f'"tokens": [{(step * STREAM_BATCH + slot) % 997}], "category": "{category}", "lang": "en"}}}}\n'
    )


def test_inject_apply_peak_rss_stays_bounded(tmp_path):
    stream_path = tmp_path / "stream.jsonl"
    with open(stream_path, "w", encoding="utf-8") as f:
        for step in range(STREAM_STEPS):
            f.write("".join(_stream_line(step, slot) for slot in range(STREAM_BATCH)))
    testset_path = tmp_path / "testset.jsonl"
    with open(testset_path, "w", encoding="utf-8") as f:
        for i in range(20):
            f.write(json.dumps(example_to_record(make_example(f"ex{i}", [i + 1], [i + 2]))) + "\n")
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "batched_pair",
        "--temporal", "uniform", "--copies", "5", "--steps", str(STREAM_STEPS),
        "--batch-size", str(STREAM_BATCH), "--seed", "3", "--out", str(plan_path),
    ]) == 0
    out_path = tmp_path / "applied.jsonl"

    _, code, peak_mb = _run_measured(
        "-m", "contamkit.cli", "inject", "apply", "--stream", str(stream_path),
        "--schedule", str(plan_path), "--out", str(out_path),
    )
    assert code == 0
    assert peak_mb < APPLY_RSS_CEILING_MB, f"peak RSS {peak_mb:.0f} MB exceeds {APPLY_RSS_CEILING_MB} MB ceiling"

    targets = {(e.step, e.slot): e for e in read_schedule(plan_path).entries}
    assert len(targets) == 200
    changed = {}
    with open(stream_path, encoding="utf-8") as before, open(out_path, encoding="utf-8") as after:
        for step in range(STREAM_STEPS):
            for slot in range(STREAM_BATCH):
                a, b = next(before), next(after)
                if a != b:
                    changed[(step, slot)] = json.loads(b)
        assert not before.read(1) and not after.read(1)
    assert changed.keys() == targets.keys()
    for key, record in changed.items():
        e = targets[key]
        assert (record["step"], record["slot"]) == key
        assert record["doc"]["doc_id"] == f"inject/{e.example_id}/{e.copy_index}/{e.part}"
        assert record["doc"]["category"] == "contamination" and record["doc"]["text"] == e.rendered_text


INDEX_DOCS = 20_000
INDEX_DOC_TOKENS = 57  # 50 postings per document at n=8: 1,000,000 postings
INDEX_RSS_CEILING_MB = 100  # sorting every posting at once peaks at ~173 MB; bucketed, ~63 MB


def test_index_peak_rss_stays_bounded(tmp_path):
    rng = random.Random(5)
    docs = (
        CorpusDocument(f"doc-{i:06d}", [rng.randrange(50_000) for _ in range(INDEX_DOC_TOKENS)])
        for i in range(INDEX_DOCS)
    )
    corpus_path, index_path = tmp_path / "corpus.ctk", tmp_path / "corpus.ctkx"
    write_corpus(docs, corpus_path, fmt="ctk")

    lines, code, peak_mb = _run_measured(
        "-m", "contamkit.cli", "index", "--corpus", str(corpus_path), "--corpus-format", "ctk",
        "--out", str(index_path),
    )
    assert code == 0
    assert lines == [f"indexed {INDEX_DOCS} docs, 1000000 postings -> {index_path}"]
    assert peak_mb < INDEX_RSS_CEILING_MB, f"peak RSS {peak_mb:.0f} MB exceeds {INDEX_RSS_CEILING_MB} MB ceiling"


PLAN_EXAMPLES = 1_000
PLAN_COPIES = 100  # 100,000 entries
VERIFY_RSS_CEILING_MB = 58  # half the 116 MB that one frozen object per entry peaked at


def test_inject_verify_peak_rss_stays_bounded(tmp_path):
    rng = random.Random(11)
    testset_path = tmp_path / "testset.jsonl"
    with open(testset_path, "w", encoding="utf-8") as f:
        for i in range(PLAN_EXAMPLES):
            example = make_example(f"ex{i:04d}", random_tokens(rng, 12, 50_000), random_tokens(rng, 12, 50_000))
            f.write(json.dumps(example_to_record(example)) + "\n")
    plan_path = tmp_path / "plan.jsonl"
    assert main([
        "inject", "plan", "--testset", str(testset_path), "--mode", "full_prompted", "--temporal", "late",
        "--copies", str(PLAN_COPIES), "--steps", "155000", "--batch-size", "512", "--out", str(plan_path),
    ]) == 0

    lines, code, peak_mb = _run_measured("-m", "contamkit.cli", "inject", "verify", "--schedule", str(plan_path))
    assert code == 0
    assert len(lines) == 1 and lines[0].startswith(f"schedule check: ok ({PLAN_EXAMPLES * PLAN_COPIES} entries over ")
    assert peak_mb < VERIFY_RSS_CEILING_MB, f"peak RSS {peak_mb:.0f} MB exceeds {VERIFY_RSS_CEILING_MB} MB ceiling"
