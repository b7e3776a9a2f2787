"""Seeded input generator for the contamkit benchmark (standard library only).

    python3 perfbench/gen.py --workload detect-scan --seed 7 --out DIR

writes one workload's inputs into DIR together with ``expected.json``, the
answers known by construction (posting count, per-field overlap scores,
removed ids, label counts, plan window, BLEU, report deltas). The same
workload and seed always give byte-identical files.

Every workload has the same parts, so every CLI subcommand runs in every
workload; the profile sizes decide where the cost sits:

* a corpus, written as four JSON-lines shards and as one ``ctk`` file with
  the same documents in the same order;
* a decontamination test set. Field filler comes from a vocabulary that never
  occurs in the corpus, so a field's longest match is exactly the span
  planted in it: none, below 0.7, exactly 0.7 (kept: the threshold is
  strict), just above 0.7, or the whole field. About 1 field in 100 is
  shorter than n; half of those are copied from the corpus;
* an injection test set for a paper-scale plan (155,000 steps x 512 slots,
  ``full_prompted``, ``late``, cap 0.05, window fraction chosen so the cap
  makes the window grow), and a second test set for a ``batched_pair`` plan
  sized to a generated batch stream that the plan is applied to;
* token-array hypothesis and reference files for ``bleu --tokens``;
* evaluation records for one ``report --clean-set``;
* a fixed corpus and test set that do not depend on the seed, whose index the
  benchmark truncates to exercise the malformed-index error path.
"""

import argparse
import json
import math
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

NGRAM = 8
THRESHOLD = 0.7
CORPUS_VOCAB = 50_000
FILLER_BASE = 1_000_000  # test-field filler tokens start here; the corpus never uses them
SHARDS = 4
BOILERPLATE_RUNS = 4
BOILERPLATE_LEN = 48
SHORT_FIELD_EVERY = 100  # fields 50, 150, ... are shorter than n; every other one is in the corpus

PLAN_STEPS = 155_000
BATCH_SIZE = 512
CAP = 0.05
LATE_START_FRAC = 0.90
APPLY_COPIES = 2
BLEU_VOCAB = 1_000

LANG_PAIRS = (("de", "en"), ("en", "de"), ("ru", "en"), ("en", "ru"), ("cs", "uk"), ("ja", "zh"), ("he", "en"), ("en", "cs"))
WORDS = ("the", "a", "house", "river", "green", "runs", "under", "light", "quiet", "stone", "market", "over", "seven", "blue")

# Field plants, cycled by field number so every seed does the same mix of
# work: none, below 0.7, exactly 0.7, just above 0.7, whole field. The odd
# length lets source (even) and target (odd) fields both meet every kind.
PLANT_CYCLE = ("none",) * 9 + ("below",) * 3 + ("exact",) * 2 + ("above",) * 2 + ("full",) * 3
BOILERPLATE_CYCLE = 7  # planted spans of one field cycle in seven come from a boilerplate run


@dataclass(frozen=True)
class Profile:
    docs: int  # corpus documents
    doc_len: int  # tokens per corpus document
    boilerplate_share: float  # share of documents that carry one boilerplate run
    examples: int  # decontamination test-set size
    plan_examples: int  # paper-scale plan: examples x plan_copies entries
    plan_copies: int
    window_frac: float  # small enough that the cap makes the late window grow
    stream_steps: int  # batch stream of stream_steps x BATCH_SIZE records
    apply_examples: int  # batched_pair plan applied to the stream
    segments: int  # BLEU segments


PROFILES = {
    # ngram_index build/save/load and corpus reading; the scan does little.
    "detect-build": Profile(
        docs=300, doc_len=500, boilerplate_share=0.0, examples=200,
        plan_examples=20, plan_copies=10, window_frac=0.001,
        stream_steps=4, apply_examples=15, segments=200,
    ),
    # matcher and decontam: boilerplate grams with hundreds of postings,
    # many examples, whole-field scans of short fields.
    "detect-scan": Profile(
        docs=1_000, doc_len=100, boilerplate_share=0.5, examples=400,
        plan_examples=20, plan_copies=10, window_frac=0.001,
        stream_steps=4, apply_examples=15, segments=200,
    ),
    # injector, stream I/O and BLEU; the index is tiny.
    "inject-eval": Profile(
        docs=40, doc_len=100, boilerplate_share=0.0, examples=40,
        plan_examples=250, plan_copies=100, window_frac=0.002,
        stream_steps=50, apply_examples=150, segments=2_500,
    ),
}

# The malformed-index operation reads these; they never depend on the seed.
FIXED_SEED = "fixed"
FIXED_PROFILE = Profile(
    docs=50, doc_len=100, boilerplate_share=0.0, examples=5,
    plan_examples=0, plan_copies=0, window_frac=0.0, stream_steps=0, apply_examples=0, segments=0,
)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record))
            f.write("\n")


def _write_ctk(path: Path, docs: list[tuple[str, list[int]]]) -> None:
    """Binary corpus: CTK1, u32 doc count, per doc u32 id length, id, u32 token count, u32 tokens."""

    def u32(values) -> bytes:
        a = array("I", values)
        if sys.byteorder != "little":
            a.byteswap()
        return a.tobytes()

    with open(path, "wb") as f:
        f.write(b"CTK1")
        f.write(u32([len(docs)]))
        for doc_id, tokens in docs:
            raw_id = doc_id.encode("utf-8")
            f.write(u32([len(raw_id)]))
            f.write(raw_id)
            f.write(u32([len(tokens)]))
            f.write(u32(tokens))


def make_corpus(rng: random.Random, p: Profile):
    """Uniform random documents; a share carries one of a few boilerplate runs.

    Returns (docs, boilerplate locations as (doc index, offset)).
    """
    runs = [[rng.randrange(CORPUS_VOCAB) for _ in range(BOILERPLATE_LEN)] for _ in range(BOILERPLATE_RUNS)]
    docs = []
    boilerplate = []
    for i in range(p.docs):
        tokens = [rng.randrange(CORPUS_VOCAB) for _ in range(p.doc_len)]
        if int((i + 1) * p.boilerplate_share) > int(i * p.boilerplate_share):
            off = rng.randrange(p.doc_len - BOILERPLATE_LEN + 1)
            tokens[off : off + BOILERPLATE_LEN] = rng.choice(runs)
            boilerplate.append((i, off))
        docs.append((f"d{i:06d}", tokens))
    return docs, boilerplate


def _plant_length(rng: random.Random, kind: str, length: int) -> int:
    if kind == "none":
        return 0
    if kind == "below":  # NGRAM <= planted and planted / length < 0.7
        return rng.randint(NGRAM, (7 * length - 1) // 10)
    if kind == "exact":
        return length * 7 // 10
    if kind == "above":
        return length * 7 // 10 + 1
    return length


def make_field(rng: random.Random, p: Profile, docs, boilerplate, number: int):
    """Test field ``number`` and its planted overlap length."""
    filler = lambda k: [FILLER_BASE + rng.randrange(CORPUS_VOCAB) for _ in range(k)]
    if number % SHORT_FIELD_EVERY == SHORT_FIELD_EVERY // 2:
        length = rng.randint(3, NGRAM - 1)
        if (number // SHORT_FIELD_EVERY) % 2:
            return filler(length), 0
        tokens = rng.choice(docs)[1]
        off = rng.randrange(len(tokens) - length + 1)
        return list(tokens[off : off + length]), length
    kind = PLANT_CYCLE[number % len(PLANT_CYCLE)]
    length = rng.choice((20, 30, 40)) if kind == "exact" else rng.randint(12, 40)
    planted = _plant_length(rng, kind, length)
    field = filler(length)
    if planted:
        if boilerplate and (number // len(PLANT_CYCLE)) % BOILERPLATE_CYCLE == 0:
            doc, start = rng.choice(boilerplate)
            off = start + rng.randrange(BOILERPLATE_LEN - planted + 1)
        else:
            doc = rng.randrange(len(docs))
            off = rng.randrange(p.doc_len - planted + 1)
        at = rng.randrange(length - planted + 1)
        field[at : at + planted] = docs[doc][1][off : off + planted]
    return field, planted


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 12)))


def _example(rng: random.Random, example_id: str, source_tokens, target_tokens) -> dict:
    src, tgt = rng.choice(LANG_PAIRS)
    return {
        "example_id": example_id,
        "src_lang": src,
        "tgt_lang": tgt,
        "source_text": _text(rng),
        "target_text": _text(rng),
        "source_tokens": source_tokens,
        "target_tokens": target_tokens,
    }


def make_testset(rng: random.Random, p: Profile, docs, boilerplate):
    """Test set records and their expected scores, known by construction."""
    records, expected = [], []
    for i in range(p.examples):
        source, planted_source = make_field(rng, p, docs, boilerplate, 2 * i)
        target, planted_target = make_field(rng, p, docs, boilerplate, 2 * i + 1)
        record = _example(rng, f"ex{i:05d}", source, target)
        s_source = planted_source / len(source)
        s_target = planted_target / len(target)
        records.append(record)
        expected.append({
            "example_id": record["example_id"],
            "s_source": s_source,
            "s_target": s_target,
            "at_threshold": s_source == THRESHOLD or s_target == THRESHOLD,
        })
    return records, expected


def label(s_source: float, s_target: float) -> str:
    source, target = s_source > THRESHOLD, s_target > THRESHOLD
    if source and target:
        return "both"
    if source:
        return "source_only"
    if target:
        return "target_only"
    return "clean"


def make_inject_testset(rng: random.Random, count: int, prefix: str) -> list[dict]:
    token = lambda: [rng.randrange(CORPUS_VOCAB) for _ in range(rng.randint(5, 20))]
    return [_example(rng, f"{prefix}{i:05d}", token(), token()) for i in range(count)]


def make_stream(rng: random.Random, steps: int):
    for step in range(steps):
        for slot in range(BATCH_SIZE):
            parallel = rng.random() < 0.3
            yield {
                "step": step,
                "slot": slot,
                "doc": {
                    "doc_id": f"s{step:05d}-{slot:03d}",
                    "tokens": [rng.randrange(CORPUS_VOCAB) for _ in range(rng.randint(4, 12))],
                    "category": "parallel" if parallel else "monolingual",
                    "lang": "de-en" if parallel else "en",
                },
            }


def reference_bleu(hyps, refs, max_order: int = 4) -> float:
    """Corpus BLEU counted here, apart from the program: clipped n-gram
    precisions summed over segments, geometric mean over the orders that have
    any hypothesis n-gram, times exp(min(0, 1 - ref_len / hyp_len))."""
    matched = Counter()
    total = Counter()
    for hyp, ref in zip(hyps, refs):
        for k in range(1, max_order + 1):
            h = Counter(tuple(hyp[i : i + k]) for i in range(len(hyp) - k + 1))
            r = Counter(tuple(ref[i : i + k]) for i in range(len(ref) - k + 1))
            total[k] += sum(h.values())
            matched[k] += sum((h & r).values())
    orders = [k for k in range(1, max_order + 1) if total[k]]
    if any(matched[k] == 0 for k in orders) or not orders:
        return 0.0
    hyp_len = sum(map(len, hyps))
    ref_len = sum(map(len, refs))
    log_p = sum(math.log(matched[k] / total[k]) for k in orders) / len(orders)
    return 100.0 * math.exp(min(0.0, 1.0 - ref_len / hyp_len) + log_p)


def make_segments(rng: random.Random, count: int):
    refs, hyps = [], []
    for _ in range(count):
        ref = [rng.randrange(BLEU_VOCAB) for _ in range(rng.randint(10, 30))]
        hyp = [t if rng.random() < 0.8 else rng.randrange(BLEU_VOCAB) for t in ref if rng.random() < 0.95]
        refs.append(ref)
        hyps.append(hyp or [0])
    return hyps, refs


def make_eval_records(rng: random.Random):
    """Baseline/contaminated records on a contaminated and a clean test set."""
    pairs = [f"{s}-{t}" for s, t in LANG_PAIRS]
    files = {}
    for name in ("base", "cont", "clean_base", "clean_cont"):
        files[name] = [
            {"system_id": name, "lang_pair": pair, "testset_id": "wmt", "bleu": round(rng.uniform(5, 60), 3), "segment_count": 100}
            for pair in pairs
        ]
    deltas = {}
    for i, pair in enumerate(pairs):
        delta = files["cont"][i]["bleu"] - files["base"][i]["bleu"]
        clean = files["clean_cont"][i]["bleu"] - files["clean_base"][i]["bleu"]
        deltas[pair] = {"delta": delta, "clean_delta": clean, "gap": delta - clean}
    return files, deltas


def write_corpus_files(out: Path, docs) -> None:
    corpus_dir = out / "corpus"
    corpus_dir.mkdir()
    per_shard = math.ceil(len(docs) / SHARDS)
    for s in range(SHARDS):
        shard = docs[s * per_shard : (s + 1) * per_shard]
        _write_jsonl(corpus_dir / f"shard-{s:02d}.jsonl", ({"doc_id": d, "tokens": t, "category": "monolingual", "lang": "en"} for d, t in shard))
    _write_ctk(out / "corpus.ctk", docs)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of one workload into ``out``; return the expected answers."""
    p = PROFILES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    docs, boilerplate = make_corpus(rng, p)
    write_corpus_files(out, docs)
    testset, scores = make_testset(rng, p, docs, boilerplate)
    _write_jsonl(out / "testset.jsonl", testset)
    labels = Counter(label(s["s_source"], s["s_target"]) for s in scores)

    plan_examples = make_inject_testset(rng, p.plan_examples, "pl")
    _write_jsonl(out / "plan_testset.jsonl", plan_examples)
    apply_examples = make_inject_testset(rng, p.apply_examples, "ap")
    _write_jsonl(out / "apply_testset.jsonl", apply_examples)
    _write_jsonl(out / "stream.jsonl", make_stream(rng, p.stream_steps))

    hyps, refs = make_segments(rng, p.segments)
    _write_jsonl(out / "hyp.jsonl", hyps)
    _write_jsonl(out / "ref.jsonl", refs)

    eval_files, deltas = make_eval_records(rng)
    for name, records in eval_files.items():
        _write_jsonl(out / f"eval_{name}.jsonl", records)

    fixed_rng = random.Random(FIXED_SEED)
    fixed_docs, _ = make_corpus(fixed_rng, FIXED_PROFILE)
    (out / "fixed").mkdir()
    write_corpus_files(out / "fixed", fixed_docs)
    fixed_testset, _ = make_testset(fixed_rng, FIXED_PROFILE, fixed_docs, [])
    _write_jsonl(out / "fixed" / "testset.jsonl", fixed_testset)

    plan_units = p.plan_examples * p.plan_copies
    late_start = math.floor(LATE_START_FRAC * PLAN_STEPS)
    cap = math.floor(CAP * BATCH_SIZE)
    expected = {
        "workload": workload,
        "seed": seed,
        "ngram": NGRAM,
        "threshold": THRESHOLD,
        "docs": len(docs),
        "postings": sum(max(0, len(t) - NGRAM + 1) for _, t in docs),
        "scores": scores,
        "label_counts": {k: labels.get(k, 0) for k in ("clean", "source_only", "target_only", "both")},
        "removed_ids": [s["example_id"] for s in scores if label(s["s_source"], s["s_target"]) != "clean"],
        "plan": {
            "examples": p.plan_examples,
            "copies": p.plan_copies,
            "steps": PLAN_STEPS,
            "batch_size": BATCH_SIZE,
            "cap": cap,
            "window_frac": p.window_frac,
            "entries": plan_units,
            # late window: starts at 90% of training, spans window_frac of the
            # steps or just enough steps to hold every entry under the cap
            "window": [late_start, min(late_start + max(math.ceil(p.window_frac * PLAN_STEPS), math.ceil(plan_units / cap)), PLAN_STEPS)],
        },
        "apply": {"examples": p.apply_examples, "copies": APPLY_COPIES, "steps": p.stream_steps, "batch_size": BATCH_SIZE},
        "bleu": reference_bleu(hyps, refs),
        "segments": p.segments,
        "report_deltas": deltas,
    }
    with open(out / "expected.json", "w", encoding="utf-8") as f:
        json.dump(expected, f)
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
