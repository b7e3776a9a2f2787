"""Seeded benchmark of the contamkit CLI (standard library only).

    python3 perfbench/run.py --workload detect-scan --seed 1 --seconds 20 --trace 0

Run from the root of a contamkit source tree; the program is imported from
``src/``. The run generates its inputs from the seed (``gen.py``, outside all
timings) into a scratch directory under ``.perfbench_work/``, then:

* ``--trace 0`` launches every subcommand as its own child process. One
  warm-up launch (``--help``, which imports every module) is discarded. Set-up
  is ``contamkit index`` of the workload's JSON-lines shards, launched three
  times; the median is ``setup_s``. Then whole rounds of the measured
  operations repeat until ``--seconds`` have passed. Each end-to-end metric is
  the median over its launches; peak RSS comes from the child's own
  ``os.wait4`` rusage.
* ``--trace 1`` runs the same subcommands in this process through
  ``contamkit.cli.main``, alternating an untraced round with a round in which
  ``stagetimer.Tracer`` wraps the public functions of each module. It reports
  the per-layer metrics (medians over traced rounds), ``cli.startup_s`` from
  child launches, and the traced round's extra wall time as
  ``trace.overhead_pct``. Spans and counts go to
  ``.perfbench_work/traces/<workload>-seed<seed>.jsonl`` when the run ends.

Every operation's output is checked (``check.py``): in full the first time,
and byte for byte against that first output afterwards. ``attempted`` and
``failed`` count the operations of the measured rounds only; the one
operation expected to fail is ``decontam`` on a truncated index in
detect-scan. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exit code 0 when every check passed, 1 when one failed, 2 when the source
tree or the arguments are missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import check
import gen
from stagetimer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENTRY = "import sys; from contamkit.cli import main; sys.exit(main())"
SETUP_RUNS = 3
# Launch times are scaled by CALIBRATION_REF_S / (calibration loop time around
# the launch): the shared host's speed drifts by a third over tens of seconds.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.05
STARTUP_RUNS = 5
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("index_ctk_s", "s"),
    ("index_bytes", "bytes"),
    ("index_peak_rss_bytes", "bytes"),
    ("decontam_s", "s"),
    ("decontam_peak_rss_bytes", "bytes"),
    ("plan_s", "s"),
    ("verify_s", "s"),
    ("apply_s", "s"),
    ("apply_peak_rss_bytes", "bytes"),
    ("bleu_s", "s"),
)

PER_LAYER_UNITS = {
    "corpus_io.read_corpus_jsonl_s": "s",
    "corpus_io.read_corpus_ctk_s": "s",
    "corpus_io.read_testset_s": "s",
    "corpus_io.read_stream_s": "s",
    "corpus_io.write_stream_s": "s",
    "corpus_io.stream_records": "count",
    "ngram_index.build_s": "s",
    "ngram_index.postings": "count",
    "ngram_index.postings_per_s": "1/s",
    "ngram_index.save_s": "s",
    "ngram_index.load_s": "s",
    "ngram_index.resident_bytes_per_posting": "bytes",
    "ngram_index.query_calls": "count",
    "ngram_index.query_hits": "count",
    "ngram_index.query_s": "s",
    "matcher.find_spans_s": "s",
    "matcher.fields": "count",
    "matcher.spans_found": "count",
    "matcher.short_fields": "count",
    "matcher.short_field_s": "s",
    "matcher.write_scores_s": "s",
    "decontam.decontaminate_s": "s",
    "decontam.iter_scores_s": "s",
    "decontam.render_report_s": "s",
    "decontam.score_passes": "count",
    "injector.plan_schedule_s": "s",
    "injector.entries": "count",
    "injector.window_steps": "count",
    "injector.write_schedule_s": "s",
    "injector.read_schedule_s": "s",
    "injector.verify_schedule_s": "s",
    "injector.apply_schedule_s": "s",
    "metrics.corpus_bleu_s": "s",
    "metrics.segments": "count",
    "analytics.impact_table_s": "s",
    "analytics.render_impact_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_pct": "%",
}

RSS_PROBE = """
import gc, os, sys
from contamkit.ngram_index import NGramIndex

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

gc.collect()
before = rss()
index = NGramIndex.load(sys.argv[1])
gc.collect()
print((rss() - before) / index.posting_count)
"""


@dataclass
class Result:
    code: int
    seconds: float
    peak_rss: int  # bytes; 0 for in-process runs
    stdout: str
    stderr: str


class Workload:
    """One workload's command lines, round composition and output checks."""

    def __init__(self, name: str, seed: int, work: Path, expected: dict):
        self.name, self.seed, self.work, self.expected = name, seed, work, expected
        plan, apply = expected["plan"], expected["apply"]
        self.argv = {
            "setup": ["index", "--corpus", "corpus", "--out", "index.ctkx"],
            "index_ctk": ["index", "--corpus", "corpus.ctk", "--corpus-format", "ctk", "--out", "index_ctk.ctkx"],
            "decontam": ["decontam", "--testset", "testset.jsonl", "--index", "index.ctkx", "--out", "kept.jsonl",
                         "--scores-out", "scores.jsonl", "--report-format", "json"],
            "malformed_index": ["decontam", "--testset", "fixed/testset.jsonl", "--index", "truncated.ctkx"],
            "plan": ["inject", "plan", "--testset", "plan_testset.jsonl", "--mode", "full_prompted",
                     "--temporal", "late", "--copies", str(plan["copies"]), "--steps", str(plan["steps"]),
                     "--batch-size", str(plan["batch_size"]), "--seed", str(seed),
                     "--window-frac", str(plan["window_frac"]), "--cap", str(gen.CAP), "--out", "plan.jsonl"],
            "verify": ["inject", "verify", "--schedule", "plan.jsonl"],
            "apply": ["inject", "apply", "--stream", "stream.jsonl", "--schedule", "apply_plan.jsonl", "--out", "applied.jsonl"],
            "bleu": ["bleu", "--hyp", "hyp.jsonl", "--ref", "ref.jsonl", "--tokens"],
            "report": ["report", "--baseline", "eval_base.jsonl", "--contaminated", "eval_cont.jsonl",
                       "--clean-set", "eval_clean_base.jsonl", "eval_clean_cont.jsonl", "--format", "json"],
            # prepared once, before any timing
            "fixed_index": ["index", "--corpus", "fixed/corpus", "--out", "fixed.ctkx"],
            "apply_plan": ["inject", "plan", "--testset", "apply_testset.jsonl", "--mode", "batched_pair",
                           "--temporal", "uniform", "--copies", str(apply["copies"]), "--steps", str(apply["steps"]),
                           "--batch-size", str(apply["batch_size"]), "--seed", str(seed), "--out", "apply_plan.jsonl"],
            "bleu_identity": ["bleu", "--hyp", "ref.jsonl", "--ref", "ref.jsonl", "--tokens"],
        }
        self.round = ["index_ctk", "decontam", "plan", "verify", "apply", "bleu"]
        if name == "detect-scan":
            self.round.insert(2, "malformed_index")
        self.outputs = {
            "setup": ["index.ctkx"],
            "index_ctk": ["index_ctk.ctkx"],
            "decontam": ["kept.jsonl", "scores.jsonl"],
            "plan": ["plan.jsonl"],
            "apply": ["applied.jsonl"],
        }
        self._digests: dict[str, str] = {}

    def prepare(self, launch) -> None:
        """Untimed inputs made by the program: the truncated index and the apply plan."""
        for op in ("fixed_index", "apply_plan", "bleu_identity", "report"):
            self.check(op, launch(self.argv[op]))
        data = (self.work / "fixed.ctkx").read_bytes()
        (self.work / "truncated.ctkx").write_bytes(data[: len(data) // 2])

    def _digest(self, op: str, r: Result) -> str:
        h = hashlib.sha256(f"{r.code}\n{r.stdout}".encode())
        for name in self.outputs.get(op, ()):
            h.update((self.work / name).read_bytes())
        return h.hexdigest()

    def check(self, op: str, r: Result) -> bool:
        """Check one operation's outputs; False when the operation failed.

        Raises :class:`check.CheckError` when an output is wrong.
        """
        if op == "malformed_index":
            return check.check_malformed(r.code, r.stderr, self.work / "truncated.ctkx")
        if op == "verify":
            check.check_verify(r.code, r.stdout)
            return True
        if op in ("bleu", "bleu_identity"):
            check.check_exit(op, r.code, 0, r.stderr)
            check.check_bleu(r.stdout, 100.0 if op == "bleu_identity" else self.expected["bleu"])
            return True
        digest = self._digest(op, r)
        if self._digests.get(op) == digest:
            return True
        check.require(op not in self._digests, f"{op}: output differs from the first run with the same inputs")
        try:
            self._check_in_full(op, r)
        except (ValueError, KeyError, IndexError, TypeError) as err:  # unparsable output
            raise check.CheckError(f"{op}: unreadable output: {err!r}") from err
        self._digests[op] = digest
        return True

    def _check_in_full(self, op: str, r: Result) -> None:
        e, work = self.expected, self.work
        if op in ("setup", "fixed_index"):
            check.check_exit(op, r.code, 0, r.stderr)
            if op == "setup":
                check.check_index(r.stdout, e)
        elif op == "index_ctk":
            check.check_exit(op, r.code, 0, r.stderr)
            check.check_index(r.stdout, e)
            check.require(
                (work / "index_ctk.ctkx").read_bytes() == (work / "index.ctkx").read_bytes(),
                "index: the ctk-built and jsonl-built index files differ",
            )
        elif op == "decontam":
            check.check_decontam(r.code, r.stdout, work, e)
        elif op == "plan":
            check.check_exit(op, r.code, 0, r.stderr)
            check.check_plan(work / "plan.jsonl", e["plan"])
        elif op == "apply_plan":
            check.check_exit(op, r.code, 0, r.stderr)
        elif op == "apply":
            check.check_exit(op, r.code, 0, r.stderr)
            check.check_apply(work / "stream.jsonl", work / "apply_plan.jsonl", work / "applied.jsonl", e["apply"])
        elif op == "report":
            check.check_exit(op, r.code, 0, r.stderr)
            check.check_report(r.stdout, e["report_deltas"])


# -- launching ----------------------------------------------------------------


LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, seconds, usage.ru_maxrss * 1024]), flush=True)
"""


class Launcher:
    """A small long-lived process that starts, times and reaps every child.

    Linux begins a child's peak-RSS count (``ru_maxrss`` from ``os.wait4``)
    at the resident size of the process it was forked from, so children are
    started from this launcher, which stays small, and not from the benchmark,
    which holds generated inputs and parsed outputs.
    """

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], env=CHILD_ENV, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], code: str = ENTRY) -> Result:
        """Run ``python -c code argv`` in the work directory; time it and read its own peak RSS."""
        out, err = self.work / "launch.out", self.work / "launch.err"
        self.proc.stdin.write(json.dumps([[sys.executable, "-c", code, *argv], str(self.work), str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        exit_code, seconds, peak_rss = json.loads(reply)
        return Result(exit_code, seconds, peak_rss, out.read_text(), err.read_text())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_in_process(work: Path, argv: list[str]) -> Result:
    """Run one subcommand through ``contamkit.cli.main`` in this process."""
    from contamkit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # an uncaught error ends a real launch with a traceback and exit code 1
                traceback.print_exc()
                code = 1
    finally:
        seconds = time.perf_counter() - start
        os.chdir(cwd)
    return Result(code, seconds, 0, out.getvalue(), err.getvalue())


# -- untraced run ---------------------------------------------------------------


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict updates: the host's current speed."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        k = i % 977
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - start


def run_untraced(wl: Workload, launcher: Launcher, seconds: float) -> tuple[dict, int, int]:
    launch = launcher.run
    launch(["--help"])  # warm-up: compiles bytecode for every module; discarded
    samples: dict[str, list[Result]] = {op: [] for op in ["setup", *wl.round]}
    scaled: dict[str, list[float]] = {op: [] for op in samples}
    last_cal = calibrate()

    def batch(ops: list[str]) -> list[tuple[str, Result]]:
        """Launch ``ops`` between two calibrations and scale their times to the reference speed."""
        nonlocal last_cal
        results = [(op, launch(wl.argv[op])) for op in ops]
        cal = calibrate()
        scale = CALIBRATION_REF_S / ((last_cal + cal) / 2)
        last_cal = cal
        for op, r in results:
            samples[op].append(r)
            scaled[op].append(r.seconds * scale)
        return results

    for _ in range(SETUP_RUNS):
        for op, r in batch(["setup"]):
            wl.check(op, r)
    wl.prepare(launch)

    attempted = failed = 0
    last_cal = calibrate()
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for op in wl.round:
            (_, r), = batch([op])
            attempted += 1
            failed += not wl.check(op, r)

    time_ops = {"setup_s": "setup", "index_ctk_s": "index_ctk", "decontam_s": "decontam", "plan_s": "plan",
                "verify_s": "verify", "apply_s": "apply", "bleu_s": "bleu"}
    print("raw wall medians: " + ", ".join(
        f"{name} {statistics.median(r.seconds for r in samples[op]):.4f}" for name, op in time_ops.items()))
    values = {name: statistics.median(scaled[op]) for name, op in time_ops.items()}
    rss = lambda op: statistics.median(r.peak_rss for r in samples[op])
    values.update({
        "index_bytes": (wl.work / "index.ctkx").stat().st_size,
        "index_peak_rss_bytes": rss("setup"),
        "decontam_peak_rss_bytes": rss("decontam"),
        "apply_peak_rss_bytes": rss("apply"),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, attempted, failed


# -- traced run -------------------------------------------------------------------


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions each subcommand reaches, in every namespace it calls them from."""
    from contamkit import analytics, cli, decontam, injector, matcher, metrics
    from contamkit.ngram_index import NGramIndex

    def add(**amounts):
        def on_call(counts, args, kwargs, result):
            for key, f in amounts.items():
                counts[key] += f(args, result)
        return on_call

    def read_corpus_name(args, kwargs):
        return f"corpus_io.read_corpus_{kwargs.get('fmt', args[1] if len(args) > 1 else 'jsonl')}"

    def is_short(args):
        return len(args[0]) < args[1].ngram_order

    def on_build(counts, args, kwargs, result):
        counts["ngram_index.postings"] = result.posting_count
        counts["ngram_index.built_postings"] += result.posting_count

    w = tracer.wrap
    w(cli, "read_corpus", read_corpus_name)
    w(cli, "read_testset", "corpus_io.read_testset")
    w(cli, "read_stream", "corpus_io.read_stream",
      add(**{"corpus_io.stream_records": lambda a, r: len(r.steps) * r.batch_size}))
    w(cli, "write_stream", "corpus_io.write_stream")
    w(cli, "build_index", "ngram_index.build", on_build)
    w(NGramIndex, "save", "ngram_index.save")
    w(NGramIndex, "load", "ngram_index.load")
    w(NGramIndex, "query", "ngram_index.query",
      add(**{"ngram_index.query_calls": lambda a, r: 1, "ngram_index.query_hits": lambda a, r: len(r)}))
    w(matcher, "find_spans", lambda a, k: "matcher.find_spans_short" if is_short(a) else "matcher.find_spans",
      add(**{"matcher.fields": lambda a, r: 1, "matcher.spans_found": lambda a, r: len(r),
             "matcher.short_fields": lambda a, r: int(is_short(a))}))
    w(matcher, "write_scores", "matcher.write_scores")
    w(decontam, "score_example", "matcher.score_example", add(**{"decontam.score_example_calls": lambda a, r: 1}))
    w(decontam, "decontaminate", "decontam.decontaminate", add(**{"decontam.examples": lambda a, r: len(a[0])}))
    w(decontam, "iter_scores", "decontam.iter_scores")
    w(decontam, "render_report", "decontam.render_report")
    w(injector, "plan_schedule", "injector.plan_schedule",
      add(**{"injector.entries": lambda a, r: len(r.entries), "injector.window_steps": lambda a, r: r.window_end - r.window_start}))
    w(injector, "write_schedule", "injector.write_schedule")
    w(injector, "read_schedule", "injector.read_schedule")
    w(injector, "verify_schedule", "injector.verify_schedule")
    w(injector, "apply_schedule", "injector.apply_schedule")
    w(metrics, "corpus_bleu", "metrics.corpus_bleu", add(**{"metrics.segments": lambda a, r: len(a[0])}))
    w(analytics, "impact_table", "analytics.impact_table")
    w(analytics, "render_impact", "analytics.render_impact")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (seconds are summed over the round)."""
    inc, own = tracer.totals()
    c = tracer.counts
    build_own = own["ngram_index.build"]
    return {
        "corpus_io.read_corpus_jsonl_s": inc["corpus_io.read_corpus_jsonl"],
        "corpus_io.read_corpus_ctk_s": inc["corpus_io.read_corpus_ctk"],
        "corpus_io.read_testset_s": inc["corpus_io.read_testset"],
        "corpus_io.read_stream_s": inc["corpus_io.read_stream"],
        "corpus_io.write_stream_s": inc["corpus_io.write_stream"],
        "corpus_io.stream_records": c["corpus_io.stream_records"],
        "ngram_index.build_s": build_own,
        "ngram_index.postings": c["ngram_index.postings"],
        "ngram_index.postings_per_s": c["ngram_index.built_postings"] / build_own if build_own else 0.0,
        "ngram_index.save_s": inc["ngram_index.save"],
        "ngram_index.load_s": inc["ngram_index.load"],
        "ngram_index.query_calls": c["ngram_index.query_calls"],
        "ngram_index.query_hits": c["ngram_index.query_hits"],
        "ngram_index.query_s": inc["ngram_index.query"],
        "matcher.find_spans_s": inc["matcher.find_spans"] + inc["matcher.find_spans_short"],
        "matcher.fields": c["matcher.fields"],
        "matcher.spans_found": c["matcher.spans_found"],
        "matcher.short_fields": c["matcher.short_fields"],
        "matcher.short_field_s": inc["matcher.find_spans_short"],
        "matcher.write_scores_s": own["matcher.write_scores"],
        "decontam.decontaminate_s": inc["decontam.decontaminate"],
        "decontam.iter_scores_s": inc["decontam.iter_scores"],
        "decontam.render_report_s": inc["decontam.render_report"],
        "decontam.score_passes": c["decontam.score_example_calls"] / max(1, c["decontam.examples"]),
        "injector.plan_schedule_s": inc["injector.plan_schedule"],
        "injector.entries": c["injector.entries"],
        "injector.window_steps": c["injector.window_steps"],
        "injector.write_schedule_s": inc["injector.write_schedule"],
        "injector.read_schedule_s": inc["injector.read_schedule"],
        "injector.verify_schedule_s": inc["injector.verify_schedule"],
        "injector.apply_schedule_s": inc["injector.apply_schedule"],
        "metrics.corpus_bleu_s": inc["metrics.corpus_bleu"],
        "metrics.segments": c["metrics.segments"],
        "analytics.impact_table_s": inc["analytics.impact_table"],
        "analytics.render_impact_s": inc["analytics.render_impact"],
    }


def run_round_in_process(wl: Workload, tracer: Tracer | None) -> tuple[float, int, int]:
    """One in-process round: set-up, the measured operations, then ``report``.

    Returns (wall seconds, attempted, failed); only the measured operations count.
    """
    attempted = failed = 0
    start = time.perf_counter()
    for op in ["setup", *wl.round, "report"]:
        traced = tracer is not None and op != "malformed_index"  # a failing load would pollute load_s
        if traced:
            install_wrappers(tracer)
        try:
            if traced:
                with tracer.span(f"cli.{op}"):
                    r = run_in_process(wl.work, wl.argv[op])
            else:
                r = run_in_process(wl.work, wl.argv[op])
        finally:
            if traced:
                tracer.restore()
        ok = wl.check(op, r)
        if op in wl.round:
            attempted += 1
            failed += not ok
    return time.perf_counter() - start, attempted, failed


def run_traced(wl: Workload, launcher: Launcher, seconds: float) -> tuple[dict, int, int]:
    sys.path.insert(0, str(SRC))
    launch = launcher.run
    launch(["--help"])  # warm-up, as in the untraced run
    wl.prepare(launch)

    attempted = failed = 0
    rounds: list[dict[str, float]] = []
    overheads = []
    tracer = None
    start = time.perf_counter()
    cal = calibrate()
    while not rounds or time.perf_counter() - start < seconds:
        plain, a, f = run_round_in_process(wl, None)
        attempted, failed = attempted + a, failed + f
        mid = calibrate()
        tracer = Tracer()
        traced, a, f = run_round_in_process(wl, tracer)
        attempted, failed = attempted + a, failed + f
        rounds.append(layer_values(tracer))
        end = calibrate()
        # each round's wall time at the reference speed, as in the untraced run
        overheads.append(100.0 * (traced / (mid + end) / (plain / (cal + mid)) - 1.0))
        cal = end

    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["trace.overhead_pct"] = statistics.median(overheads)
    values["cli.startup_s"] = statistics.median(launch([], "import contamkit.cli").seconds for _ in range(STARTUP_RUNS))
    probe = launch([str(wl.work / "index.ctkx")], RSS_PROBE)
    check.check_exit("rss probe", probe.code, 0, probe.stderr)
    values["ngram_index.resident_bytes_per_posting"] = float(probe.stdout)

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{wl.name}-seed{wl.seed}.jsonl", {"workload": wl.name, "seed": wl.seed, "traced_rounds": len(rounds)})
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}, attempted, failed


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the contamkit CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(gen.PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the measured rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contamkit" / "cli.py").is_file():
        print(f"error: {SRC / 'contamkit'} not found; run from a contamkit source tree", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    launcher = Launcher(work)
    try:
        expected = gen.generate(args.workload, args.seed, work)
        wl = Workload(args.workload, args.seed, work, expected)
        run = run_traced if args.trace else run_untraced
        correct = True
        try:
            metrics, attempted, failed = run(wl, launcher, args.seconds)
        except check.CheckError as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct, metrics, attempted, failed = False, {}, 1, 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
