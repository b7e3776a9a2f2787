"""Classify scored examples, filter test sets, and report contamination.

A field counts as contaminated only when its overlap fraction is strictly
above the threshold ("more than"), so a longest match of exactly 70% of a
field's tokens is still clean at the default 0.7. An example is removed when
either field exceeds the threshold; removal is from the test set, never from
the corpus.
"""

import json
from dataclasses import dataclass, field, fields
from enum import Enum

from .corpus_io import TestExample
from .matcher import ContaminationScore, score_example
from .ngram_index import NGramIndex, ScanConfig

DEFAULT_BIN_WIDTH = 0.05

# CLI contract: 0 = everything clean, 3 = contamination found.
EXIT_CLEAN = 0
EXIT_CONTAMINATED = 3


class ContaminationLabel(str, Enum):
    CLEAN = "clean"
    SOURCE_ONLY = "source_only"
    TARGET_ONLY = "target_only"
    BOTH = "both"


def classify(score: ContaminationScore, config: ScanConfig) -> ContaminationLabel:
    """Label a scored example; strictly-above-threshold fields are contaminated."""
    source = score.s_source > config.threshold
    target = score.s_target > config.threshold
    if source and target:
        return ContaminationLabel.BOTH
    if source:
        return ContaminationLabel.SOURCE_ONLY
    if target:
        return ContaminationLabel.TARGET_ONLY
    return ContaminationLabel.CLEAN


def histogram_bin(score: float, bin_width: float = DEFAULT_BIN_WIDTH) -> int:
    """Bin index of a combined score; bins are [i*w, (i+1)*w), last bin closed at 1."""
    nbins = bin_count(bin_width)
    # epsilon absorbs float noise in scores that are exact small-integer ratios
    return min(nbins - 1, int(score / bin_width + 1e-9))


def bin_count(bin_width: float = DEFAULT_BIN_WIDTH) -> int:
    if not 0 < bin_width <= 1:
        raise ValueError("bin_width must be in (0, 1]")
    return max(1, round(1.0 / bin_width))


@dataclass
class DecontamReport:
    """Aggregate view of one decontamination run; ``scores`` (not serialized)
    holds ``(example_id, score)`` per example when :func:`decontaminate` made it."""

    threshold: float
    total: int
    label_counts: dict[str, int]
    per_pair: dict[str, dict[str, int]]
    histogram: list[int]
    bin_width: float
    removed_ids: list[str]
    scores: list[tuple[str, ContaminationScore]] = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def removed(self) -> int:
        return len(self.removed_ids)

    @property
    def kept(self) -> int:
        return self.total - self.removed

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        payload.update(kept=self.kept, removed=self.removed)
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def _empty_counts() -> dict[str, int]:
    return {label.value: 0 for label in ContaminationLabel}


def decontaminate(
    testset: list[TestExample],
    index: NGramIndex,
    config: ScanConfig,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> tuple[list[TestExample], DecontamReport]:
    """Score every example, drop those with any field above threshold.

    Returns (kept examples in input order, report); ``report.scores`` holds
    every example's score. Scoring each example is independent and
    side-effect free.
    """
    if not testset:
        raise ValueError("testset must be non-empty")
    report = DecontamReport(threshold=config.threshold, total=len(testset), label_counts=_empty_counts(), per_pair={},
                            histogram=[0] * bin_count(bin_width), bin_width=bin_width, removed_ids=[])
    kept: list[TestExample] = []
    for example in testset:
        score = score_example(example, index, config)
        report.scores.append((example.example_id, score))
        label = classify(score, config)
        report.label_counts[label.value] += 1
        report.per_pair.setdefault(example.pair, _empty_counts())[label.value] += 1
        report.histogram[histogram_bin(score.combined, bin_width)] += 1
        if label is ContaminationLabel.CLEAN:
            kept.append(example)
        else:
            report.removed_ids.append(example.example_id)
    return kept, report


def render_report(report: DecontamReport, fmt: str = "text") -> str:
    """Render a report as an aligned text document or as round-trippable JSON."""
    if fmt == "json":
        return report.to_json()
    pct = 100.0 * report.removed / report.total if report.total else 0.0
    lines = [
        "contamination report",
        f"  threshold      : {report.threshold:.2f}",
        f"  total examples : {report.total}",
        f"  kept           : {report.kept}",
        f"  removed        : {report.removed} ({pct:.1f}% removed)",
        "",
        "  label breakdown",
    ]
    for label, count in report.label_counts.items():
        if count:
            lines.append(f"    {label:<12} {count}")
    if not any(report.label_counts.values()):
        lines.append("    (none)")
    if report.per_pair:
        lines.append("")
        lines.append("  per language pair")
        for pair in sorted(report.per_pair):
            counts = report.per_pair[pair]
            shown = "  ".join(f"{label}={count}" for label, count in counts.items() if count)
            lines.append(f"    {pair:<10} {shown}")
    lines.append("")
    lines.append(f"  combined-score histogram (bin width {report.bin_width:g})")
    last = len(report.histogram) - 1
    for i, count in enumerate(report.histogram):
        lo = i * report.bin_width
        if count:  # the last bin holds every score up to 1, whatever the width
            hi = "1.00]" if i == last else f"{lo + report.bin_width:.2f})"
            lines.append(f"    [{lo:.2f}, {hi}  {count}")
    if not any(report.histogram):
        lines.append("    (empty)")
    return "\n".join(lines) + "\n"
