"""Contamination-impact aggregates over BLEU evaluation records.

Given baseline and contaminated score tables this module computes per-pair
deltas and percent improvements, the translation direction of a pair
(En->X, X->En, X->Y), and gaps between improvements on contaminated vs
clean test sets. :func:`render_impact` and :func:`render_gaps` print them
for the ``report`` subcommand.

Percent improvement always uses the uncontaminated baseline as denominator
and is flagged undefined (``None``) when the baseline is 0 rather than
clamped.
"""

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .conditions import ContaminationCondition
from .metrics import EvalRecord, split_pair

DIRECTION_EN_TO_X = "en_to_x"
DIRECTION_X_TO_EN = "x_to_en"
DIRECTION_X_TO_Y = "x_to_y"


@dataclass(frozen=True)
class ImpactCell:
    """Baseline vs contaminated BLEU for one (condition, pair, test set)."""

    condition: ContaminationCondition | None
    lang_pair: str
    testset_id: str
    baseline_bleu: float
    contaminated_bleu: float

    @property
    def delta(self) -> float:
        return self.contaminated_bleu - self.baseline_bleu

    @property
    def pct(self) -> float | None:
        return 100.0 * self.delta / self.baseline_bleu if self.baseline_bleu != 0 else None


@dataclass(frozen=True)
class ImpactTable:
    """Join result: one cell per shared key plus the keys that failed to join."""

    cells: tuple[ImpactCell, ...]
    missing_baseline: tuple[tuple[str, str], ...]
    missing_contaminated: tuple[tuple[str, str], ...]


def impact_table(
    baseline: Iterable[EvalRecord],
    contaminated: Iterable[EvalRecord],
    condition: ContaminationCondition | None = None,
) -> ImpactTable:
    """Join two record sets on (lang_pair, testset_id) and compute deltas.

    A key repeated on one side keeps its last record; ``report``'s reader refuses one.
    Keys present on only one side are reported in the result, never silently
    dropped. An empty intersection is an error.
    """
    base = {(r.lang_pair, r.testset_id): r for r in baseline}
    cont = {(r.lang_pair, r.testset_id): r for r in contaminated}
    shared = [k for k in base if k in cont]
    if not shared:
        raise ValueError("baseline and contaminated records share no (lang_pair, testset) keys")
    cells = tuple(
        ImpactCell(condition, pair, testset, base[(pair, testset)].bleu, cont[(pair, testset)].bleu)
        for pair, testset in shared
    )
    return ImpactTable(
        cells=cells,
        missing_baseline=tuple(sorted(k for k in cont if k not in base)),
        missing_contaminated=tuple(sorted(k for k in base if k not in cont)),
    )


def direction_of(lang_pair: str) -> str:
    """Direction group of a "src-tgt" pair string."""
    src, tgt = split_pair(lang_pair)
    if src == "en":
        return DIRECTION_EN_TO_X
    if tgt == "en":
        return DIRECTION_X_TO_EN
    return DIRECTION_X_TO_Y


@dataclass(frozen=True)
class GapCell:
    """Improvement on the contaminated set minus improvement on a clean set.

    A positive gap means the contaminated-set improvement exceeds what
    generalizes to clean data, i.e. inflation beyond genuine gains.
    """

    condition: ContaminationCondition | None
    lang_pair: str
    delta_contaminated_set: float
    delta_clean_set: float

    @property
    def gap(self) -> float:
        return self.delta_contaminated_set - self.delta_clean_set


def _one_per_pair(cells: Iterable[ImpactCell], side: str) -> dict:
    """Index cells by (condition, lang_pair), refusing a pair held under two test sets."""
    table = {}
    for cell in cells:
        key = (cell.condition, cell.lang_pair)
        if key in table:
            raise ValueError(
                f"{side} cells hold {cell.lang_pair} under test sets {table[key].testset_id!r} and "
                f"{cell.testset_id!r}; a gap takes one test set per pair"
            )
        table[key] = cell
    return table


def testset_gap(
    contaminated_set: Iterable[ImpactCell],
    clean_set: Iterable[ImpactCell],
) -> list[GapCell]:
    """Per-pair gap between two impact tables sharing (condition, lang_pair).

    Each table must hold a pair under one test set only."""
    contaminated = _one_per_pair(contaminated_set, "contaminated-set")
    clean = _one_per_pair(clean_set, "clean-set")
    shared = [k for k in contaminated if k in clean]
    if not shared:
        raise ValueError("impact tables share no (condition, lang_pair) keys")
    return [
        GapCell(
            condition=condition,
            lang_pair=pair,
            delta_contaminated_set=contaminated[(condition, pair)].delta,
            delta_clean_set=clean[(condition, pair)].delta,
        )
        for condition, pair in shared
    ]


# -- rendering ----------------------------------------------------------------

_DIRECTION_TITLES = (
    (DIRECTION_EN_TO_X, "En->X"),
    (DIRECTION_X_TO_EN, "X->En"),
    (DIRECTION_X_TO_Y, "X->Y"),
)


def render_impact(cells: Sequence[ImpactCell], fmt: str = "text") -> str:
    """Render impact cells as direction-blocked aligned text, one row per
    (pair, test set), or as JSON."""
    if fmt == "json":
        payload = [
            {**vars(c), "condition": None if c.condition is None else vars(c.condition), "delta": c.delta, "pct": c.pct}
            for c in cells
        ]
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)
    lines = []
    width = max([len("testset"), *(len(c.testset_id) for c in cells)])
    header = f"{'pair':<10} {'testset':<{width}} {'baseline':>9} {'contam':>9} {'delta':>8} {'pct':>8}"
    for group, title in _DIRECTION_TITLES:
        members = sorted(
            (c for c in cells if direction_of(c.lang_pair) == group),
            key=attrgetter("lang_pair", "testset_id"),
        )
        if not members:
            continue
        lines.append(title)
        lines.append(header)
        for c in members:
            pct = f"{c.pct:8.2f}" if c.pct is not None else "     n/a"
            lines.append(
                f"{c.lang_pair:<10} {c.testset_id:<{width}} {c.baseline_bleu:9.2f} {c.contaminated_bleu:9.2f} "
                f"{c.delta:8.2f} {pct}"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def render_gaps(gaps: Sequence[GapCell], fmt: str = "text") -> str:
    """Render test-set gap cells as aligned text or JSON."""
    if fmt == "json":
        payload = [{**{key: value for key, value in vars(g).items() if key != "condition"}, "gap": g.gap} for g in gaps]
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)
    lines = [f"{'pair':<10} {'d_contam':>9} {'d_clean':>9} {'gap':>8}"]
    for g in sorted(gaps, key=lambda g: g.lang_pair):
        lines.append(
            f"{g.lang_pair:<10} {g.delta_contaminated_set:9.2f} {g.delta_clean_set:9.2f} {g.gap:8.2f}"
        )
    return "\n".join(lines) + "\n"
