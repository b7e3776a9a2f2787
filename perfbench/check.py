"""Output checks for the contamkit benchmark.

Each check compares what the program wrote with the generator's expected
answers (``expected.json``) or with a property the method must have, reading
the files directly rather than through contamkit. A failed check raises
:class:`CheckError` with a one-line reason.
"""

import json
import math
import re
from pathlib import Path


class CheckError(Exception):
    """The program's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def check_exit(name: str, code: int, want: int, stderr: str) -> None:
    last = stderr.strip().splitlines()[-1:] or [""]
    require(code == want, f"{name}: exit code {code}, expected {want}: {last[0]}")


def check_index(stdout: str, expected: dict) -> None:
    """``index`` prints the document and posting counts of the corpus."""
    m = re.search(r"indexed (\d+) docs, (\d+) postings", stdout)
    require(m is not None, f"index: unexpected output {stdout.strip()!r}")
    require(int(m.group(1)) == expected["docs"], f"index: {m.group(1)} docs, expected {expected['docs']}")
    require(
        int(m.group(2)) == expected["postings"],
        f"index: {m.group(2)} postings, expected sum(max(0, len - n + 1)) = {expected['postings']}",
    )


def load_corpus(corpus_dir: Path) -> dict[str, list[int]]:
    docs = {}
    for shard in sorted(corpus_dir.glob("*.jsonl")):
        for record in read_jsonl(shard):
            docs[record["doc_id"]] = record["tokens"]
    return docs


def check_decontam(code: int, report_text: str, work: Path, expected: dict) -> None:
    """Scores, spans, report and kept file of ``decontam --scores-out --out --report-format json``."""
    want_removed = expected["removed_ids"]
    require(code == (3 if want_removed else 0), f"decontam: exit code {code}, expected {3 if want_removed else 0}")
    report = json.loads(report_text)
    total = len(expected["scores"])
    require(report["total"] == total, f"decontam: report total {report['total']}, expected {total}")
    require(sum(report["label_counts"].values()) == total, "decontam: label counts do not sum to the total")
    require(sum(report["histogram"]) == total, "decontam: histogram does not sum to the total")
    require(report["label_counts"] == expected["label_counts"], f"decontam: label counts {report['label_counts']}, expected {expected['label_counts']}")
    require(report["removed_ids"] == want_removed, "decontam: removed ids differ from the planted set")

    fields = {r["example_id"]: (r["source_tokens"], r["target_tokens"]) for r in read_jsonl(work / "testset.jsonl")}
    corpus = load_corpus(work / "corpus")
    scores = read_jsonl(work / "scores.jsonl")
    require(len(scores) == total, f"decontam: {len(scores)} score records, expected {total}")
    for got, want in zip(scores, expected["scores"]):
        ex = want["example_id"]
        require(got["example_id"] == ex, f"decontam: score record {got['example_id']} where {ex} was expected")
        for side, field in zip(("source", "target"), fields[ex]):
            s = got[f"s_{side}"]
            require(s == want[f"s_{side}"], f"decontam: {ex} s_{side} = {s}, planted {want[f's_{side}']}")
            span = got[f"longest_{side}"]
            if span is None:
                require(s == 0, f"decontam: {ex} {side} scores {s} with no span")
                continue
            start, at, length = span["corpus_start"], span["example_start"], span["length"]
            require(
                corpus[span["doc_id"]][start : start + length] == field[at : at + length],
                f"decontam: {ex} {side} span does not match the corpus at {span['doc_id']}:{start}",
            )
            require(length / len(field) == s, f"decontam: {ex} {side} span length {length} disagrees with score {s}")

    kept = [r["example_id"] for r in read_jsonl(work / "kept.jsonl")]
    removed = set(want_removed)
    require(kept == [s["example_id"] for s in expected["scores"] if s["example_id"] not in removed], "decontam: kept file differs")
    at_threshold = [s["example_id"] for s in expected["scores"] if s["at_threshold"] and s["example_id"] not in removed]
    require(not set(at_threshold) - set(kept), "decontam: a field at exactly 0.7 was removed")


def check_malformed(code: int, stderr: str, path: Path) -> bool:
    """A truncated index must give exit code 2 and one ``error:`` line naming the file."""
    lines = stderr.strip().splitlines()
    return code == 2 and len(lines) == 1 and lines[0].startswith("error:") and path.name in lines[0]


def check_plan(path: Path, plan: dict) -> None:
    """Entry count, per-step cap, late window and slot uniqueness of the paper-scale plan."""
    header, *entries = read_jsonl(path)
    require(len(entries) == plan["entries"], f"plan: {len(entries)} entries, expected examples x copies = {plan['entries']}")
    lo, hi = plan["window"]
    require([header["window_start"], header["window_end"]] == [lo, hi], f"plan: window [{header['window_start']}, {header['window_end']}), expected [{lo}, {hi})")
    per_step: dict[int, int] = {}
    slots = set()
    for e in entries:
        require(lo <= e["step"] < hi, f"plan: step {e['step']} outside the late window [{lo}, {hi})")
        require(0 <= e["slot"] < plan["batch_size"], f"plan: slot {e['slot']} outside the batch")
        key = (e["step"], e["slot"])
        require(key not in slots, f"plan: (step, slot) {key} repeats")
        slots.add(key)
        per_step[e["step"]] = per_step.get(e["step"], 0) + 1
    worst = max(per_step.values())
    require(worst <= plan["cap"], f"plan: a step holds {worst} entries, cap is {plan['cap']}")


def check_verify(code: int, stdout: str) -> None:
    require(code == 0 and stdout.startswith("schedule check: ok"), f"verify: exit {code}: {stdout.strip()[:200]}")


def check_apply(stream: Path, schedule: Path, out: Path, apply: dict) -> None:
    """Scheduled slots hold the rendered contamination documents; every other record is unchanged."""
    _, *entries = read_jsonl(schedule)
    require(len(entries) == apply["examples"] * apply["copies"] * 2, f"apply: plan has {len(entries)} entries")
    targets = {(e["step"], e["slot"]): e for e in entries}
    with open(stream, encoding="utf-8") as before, open(out, encoding="utf-8") as after:
        count = 0
        for a, b in zip(before, after):
            a, b = json.loads(a), json.loads(b)
            key = (a["step"], a["slot"])
            require((b["step"], b["slot"]) == key, f"apply: record {count} is at {(b['step'], b['slot'])}, expected {key}")
            e = targets.get(key)
            if e is None:
                require(a == b, f"apply: unscheduled slot {key} changed")
            else:
                doc = b["doc"]
                require(
                    doc["category"] == "contamination" and doc.get("text") == e["rendered_text"],
                    f"apply: scheduled slot {key} does not hold the rendered contamination document",
                )
            count += 1
        require(not before.read(1) and not after.read(1), "apply: output and input streams differ in length")
    want = apply["steps"] * apply["batch_size"]
    require(count == want, f"apply: {count} records, expected {want}")


def parse_bleu(stdout: str) -> float:
    m = re.match(r"BLEU = (\d+\.\d+)", stdout)
    require(m is not None, f"bleu: unexpected output {stdout.strip()!r}")
    return float(m.group(1))


def check_bleu(stdout: str, want: float) -> None:
    got = parse_bleu(stdout)
    require(abs(got - want) <= 0.5e-4 + 1e-9, f"bleu: {got:.4f}, reference count gives {want:.4f}")


def check_report(stdout: str, deltas: dict) -> None:
    """``report --format json --clean-set``: a line of impact cells, then a line of gap cells."""
    impact_text, gap_text = [line for line in stdout.splitlines() if line.strip()]
    impact = {c["lang_pair"]: c for c in json.loads(impact_text)}
    gaps = {g["lang_pair"]: g for g in json.loads(gap_text)}
    require(set(impact) == set(deltas) == set(gaps), "report: language pairs differ from the records")
    for pair, want in deltas.items():
        c = impact[pair]
        require(math.isclose(c["delta"], c["contaminated_bleu"] - c["baseline_bleu"], abs_tol=1e-9), f"report: {pair} delta is not contaminated - baseline")
        require(math.isclose(c["delta"], want["delta"], abs_tol=1e-9), f"report: {pair} delta {c['delta']}, expected {want['delta']}")
        require(math.isclose(gaps[pair]["gap"], want["gap"], abs_tol=1e-9), f"report: {pair} gap {gaps[pair]['gap']}, expected {want['gap']}")
