"""Command-line entry points.

Subcommands:

* ``contamkit index`` — build and save an n-gram index from a corpus.
* ``contamkit decontam`` — scan a test set against an index that
  ``contamkit index`` wrote, at the n that index was built with; write the
  kept examples and a report. Exits 0 when everything is clean and 3 when
  any contamination was found, so CI can gate on it.
* ``contamkit inject plan|apply|verify`` — plan contamination injection,
  apply a plan to a batch stream, re-check a plan's invariants.
* ``contamkit bleu`` — score a hypothesis file against a reference file.
* ``contamkit report`` — impact analytics from evaluation-record files.
"""

import argparse
import sys
from dataclasses import replace

# Each handler imports only the modules its subcommand runs; the parser reads
# its choices and defaults from the modules imported here, never from the
# index, the planner or the metrics.
from .conditions import ContaminationCondition, ContaminationMode, Temporal, TrainingConfig
from .corpus_io import (
    CORPUS_FORMATS,
    FORMAT_JSONL,
    CorpusFormatError,
    from_record,
    iter_batches,
    output_file,
    read_corpus,
    read_json_lines,
    read_lines,
    read_testset,
    read_token_segments,
    write_batches,
    write_testset,
)


def build_index(corpus, config, fingerprint_bits: int = 64):
    """:func:`contamkit.ngram_index.build_index`, imported on the first call, so
    that a launch that builds no index never compiles that module; a caller that
    times the CLI's steps wraps this name."""
    from .ngram_index import build_index

    return build_index(corpus, config, fingerprint_bits)


def _cmd_index(args) -> int:
    from .ngram_index import ScanConfig

    if not args.corpus:  # read_corpus("") would read the shards of the current directory
        raise ValueError("--corpus must name a corpus file or shard directory")
    index = build_index(read_corpus(args.corpus, args.corpus_format), ScanConfig(ngram_order=args.ngram))
    index.save(args.out)
    print(f"indexed {index.doc_count} docs, {index.posting_count} postings -> {args.out}")
    return 0


def _cmd_decontam(args) -> int:
    from . import decontam, matcher
    from .ngram_index import NGramIndex, ScanConfig

    config = ScanConfig(threshold=args.threshold)  # refuse a bad threshold before reading the index
    index = NGramIndex.load(args.index)
    config = replace(config, ngram_order=index.ngram_order)
    testset = read_testset(args.testset)
    kept, report = decontam.decontaminate(testset, index, config)
    if args.out:
        write_testset(kept, args.out)
    if args.scores_out:
        matcher.write_scores(report.scores, index, args.scores_out)
    rendered = decontam.render_report(report, args.report_format)
    if args.report_out:
        with output_file(args.report_out) as f:
            f.write(rendered)
    else:
        print(rendered, end="")
    return decontam.EXIT_CLEAN if report.removed == 0 else decontam.EXIT_CONTAMINATED


def _cmd_inject_plan(args) -> int:
    from . import injector

    examples = read_testset(args.testset)
    condition = ContaminationCondition(mode=args.mode, temporal=args.temporal, copies=args.copies)
    config = TrainingConfig(
        total_steps=args.steps,
        batch_size=args.batch_size,
        max_replace_frac=args.cap,
        window_frac=args.window_frac,
        seed=args.seed,
        strict_cap=args.strict_cap,
    )
    try:
        schedule = injector.plan_schedule(examples, condition, config)
    except injector.TemplateError as e:
        raise injector.TemplateError(f"{args.testset}: {e}") from None
    injector.write_schedule(schedule, args.out)
    print(
        f"planned {len(schedule.entries)} entries in window "
        f"[{schedule.window_start}, {schedule.window_end}) -> {args.out}"
    )
    return 0


def _cmd_inject_apply(args) -> int:
    from . import injector

    schedule = injector.read_schedule(args.schedule)
    batches = injector.apply_batches(
        iter_batches(args.stream), schedule, require_parallel_slots=args.require_parallel
    )
    try:
        write_batches(batches, args.out)
    except injector.ScheduleError as e:
        raise injector.ScheduleError(f"{args.schedule}: {e}") from e
    except injector.StreamShapeError as e:
        raise injector.StreamShapeError(f"{args.stream}: {e}") from e
    print(f"applied {len(schedule.entries)} entries -> {args.out}")
    return 0


def _cmd_inject_verify(args) -> int:
    from . import injector

    schedule = injector.read_schedule(args.schedule)
    report = injector.verify_schedule(schedule)
    print(report.summary(), end="")
    return 0 if report.ok else 1


def _read_segments(path, as_tokens: bool) -> list[list]:
    # One segment per line, blank lines included, so hypotheses and references stay aligned.
    return read_token_segments(path) if as_tokens else [line.split() for _, line in read_lines(path)]


def _cmd_bleu(args) -> int:
    from . import metrics

    hyps = _read_segments(args.hyp, args.tokens)
    refs = _read_segments(args.ref, args.tokens)
    if len(hyps) != len(refs):
        raise ValueError(f"{args.hyp}: {len(hyps)} hypotheses vs {args.ref}: {len(refs)} references")
    if not refs:
        raise CorpusFormatError(f"{args.ref}: no segments")
    for lineno, ref in enumerate(refs, start=1):
        if not ref:
            raise CorpusFormatError(f"{args.ref}:{lineno}: reference segment is empty")
    score = metrics.corpus_bleu(hyps, refs, max_order=args.max_order, smoothing=args.smoothing)
    print(f"BLEU = {score:.4f} (order={args.max_order}, smoothing={args.smoothing})")
    return 0


def _read_records(path) -> list:
    from . import metrics

    records = {}
    for where, r in read_json_lines(path):
        record = from_record(metrics.EvalRecord, {"testset_id": "default", "segment_count": 1, **r}, where)
        key = (record.lang_pair, record.testset_id)
        if key in records:
            raise CorpusFormatError(f"{where}: duplicate (lang_pair, testset_id) key {key}")
        records[key] = record
    if not records:
        raise CorpusFormatError(f"{path}: no records")
    return list(records.values())


def _impact_table(baseline, contaminated, condition):
    from . import analytics

    base, cont = _read_records(baseline), _read_records(contaminated)
    try:
        return analytics.impact_table(base, cont, condition)
    except ValueError as e:  # the files share no key; each file's own keys are unique
        raise ValueError(f"{baseline}, {contaminated}: {e}") from None


def _parse_condition(text: str | None) -> ContaminationCondition | None:
    if not text:
        return None
    try:
        temporal, mode, copies = text.split(",")
        return ContaminationCondition(mode=mode.strip(), temporal=temporal.strip(), copies=int(copies))
    except ValueError as e:
        raise ValueError(f"cannot parse condition {text!r} (expected 'temporal,mode,copies'): {e}") from e


def _cmd_report(args) -> int:
    from . import analytics

    condition = _parse_condition(args.condition)
    table = _impact_table(args.baseline, args.contaminated, condition)
    text = analytics.render_impact(table.cells, args.format)
    if args.clean_set:
        clean = _impact_table(*args.clean_set, condition)
        try:
            gaps = analytics.testset_gap(table.cells, clean.cells)
        except ValueError as e:
            raise ValueError(f"{args.baseline}, {args.contaminated} vs {', '.join(args.clean_set)}: {e}") from None
        text += "\n" + analytics.render_gaps(gaps, args.format)
    print(text, end="")  # only once every input has passed, so a refusal prints nothing
    if table.missing_baseline or table.missing_contaminated:
        print(
            f"warning: unmatched keys (baseline-only: {len(table.missing_contaminated)}, "
            f"contaminated-only: {len(table.missing_baseline)})",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contamkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save an n-gram index")
    p.add_argument("--corpus", required=True, help="corpus file or shard directory")
    p.add_argument("--corpus-format", default=FORMAT_JSONL, choices=CORPUS_FORMATS)
    # ngram_index.ScanConfig's defaults, which a test holds these to, written
    # out so that a launch need not import the index
    p.add_argument("--ngram", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("decontam", help="scan a test set against a prebuilt index and drop contaminated examples")
    p.add_argument("--testset", required=True)
    p.add_argument("--index", required=True, help="index file written by `contamkit index`; its n is the scan's n")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--out", help="file for the kept examples")
    p.add_argument("--scores-out", help="file for the per-example score dump")
    p.add_argument("--report-out", help="file for the report (stdout otherwise)")
    p.add_argument("--report-format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_decontam)

    inject = sub.add_parser("inject", help="plan, apply, or verify contamination injection")
    inject_sub = inject.add_subparsers(dest="inject_command", required=True)

    p = inject_sub.add_parser("plan", help="expand a condition into a schedule")
    p.add_argument("--testset", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in ContaminationMode])
    p.add_argument("--temporal", required=True, choices=[t.value for t in Temporal])
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)
    p.add_argument("--window-frac", type=float, default=TrainingConfig.window_frac)
    p.add_argument("--cap", type=float, default=TrainingConfig.max_replace_frac,
                   help="max replaced fraction of a batch")
    p.add_argument("--strict-cap", action="store_true", help="keep the replaced fraction strictly below --cap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inject_plan)

    p = inject_sub.add_parser("apply", help="substitute scheduled slots in a batch stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--require-parallel", action="store_true",
                   help="error unless every replaced slot held a parallel-category document")
    p.set_defaults(func=_cmd_inject_apply)

    p = inject_sub.add_parser("verify", help="re-check a schedule's invariants")
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_inject_verify)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file vs a reference file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    # metrics.corpus_bleu's defaults and metrics.SMOOTHING_MODES, which a test
    # holds these to, written out so that a launch need not import metrics
    p.add_argument("--smoothing", default="none", choices=("none", "add_one"))
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--tokens", action="store_true",
                   help="each line is a JSON array of token ids (integers in [0, 2**32)) "
                        "instead of whitespace-split text")
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("report", help="impact analytics from evaluation-record files")
    p.add_argument("--baseline", required=True)
    p.add_argument("--contaminated", required=True)
    p.add_argument("--clean-set", nargs=2, metavar=("CLEAN_BASELINE", "CLEAN_CONTAMINATED"),
                   help="same-condition records on a clean test set, for gap analysis")
    p.add_argument("--condition", help="'temporal,mode,copies' label for the cells")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
