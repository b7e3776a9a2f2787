"""Corpus-level BLEU over pre-tokenized segments.

The score is the geometric mean of clipped modified n-gram precisions for
orders 1..max_order, times the brevity penalty
``exp(min(0, 1 - ref_len / hyp_len))``, scaled to [0, 100]. Counts are summed
over all segments before precisions are taken (corpus aggregation), and a
single reference per segment is assumed.

Tokens are whatever hashable units the caller provides — integer ids in the
pipeline, whitespace-split words for the plain-text files of the ``bleu``
subcommand — so the module stays tokenizer-agnostic.
:class:`EvalRecord` is one BLEU cell as the ``report`` subcommand reads it.

With ``smoothing="none"`` (the default) any zero precision zeroes the score;
``smoothing="add_one"`` adds one to the matched and total counts of every
order above 1, which keeps tiny fixtures off the floor. Orders for which no
hypothesis is long enough to have any n-grams drop out of the geometric mean
without smoothing, and score (0+1)/(0+1) = 1 under ``add_one``. Either way
identical hypothesis/reference lists score exactly 100 regardless of segment
lengths.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

SMOOTHING_MODES = ("none", "add_one")


@dataclass(frozen=True)
class EvalRecord:
    """BLEU for one (system, language pair, test set) cell."""

    system_id: str
    lang_pair: str
    testset_id: str
    bleu: float
    segment_count: int

    def __post_init__(self):
        split_pair(self.lang_pair)
        if not 0 <= self.bleu <= 100:
            raise ValueError(f"bleu {self.bleu} outside [0, 100]")
        if self.segment_count < 1:
            raise ValueError("segment_count must be >= 1")


def split_pair(lang_pair: str) -> tuple[str, str]:
    """The (source, target) tags of a "src-tgt" pair string."""
    src, sep, tgt = lang_pair.partition("-")
    if not sep or not src or not tgt:
        raise ValueError(f"cannot parse lang_pair {lang_pair!r}")
    return src, tgt


def _ngram_counts(tokens: Sequence, order: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(order)]))


def corpus_bleu(
    hypotheses: Sequence[Sequence],
    references: Sequence[Sequence],
    max_order: int = 4,
    smoothing: str = "none",
) -> float:
    """Corpus BLEU in [0, 100] for parallel hypothesis/reference segment lists."""
    if smoothing not in SMOOTHING_MODES:
        raise ValueError(f"unknown smoothing {smoothing!r}; expected one of {SMOOTHING_MODES}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("need at least one segment")
    for i, ref in enumerate(references):
        if len(ref) == 0:
            raise ValueError(f"reference segment {i} is empty")

    # no hypothesis has a k-gram for k past the longest one, so only shorter orders are counted
    orders = min(max_order, max(map(len, hypotheses)))
    matched = [0] * orders
    total = [0] * orders
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for k in range(1, min(max_order, len(hyp)) + 1):  # a shorter hypothesis has no k-grams
            hyp_counts = _ngram_counts(hyp, k)
            ref_counts = _ngram_counts(ref, k)
            total[k - 1] += len(hyp) - k + 1
            matched[k - 1] += sum(map(min, hyp_counts.values(), map(ref_counts.get, hyp_counts, repeat(0))))

    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(orders):  # the longest hypothesis has grams of every counted order, so t > 0
        m, t = matched[k], total[k]
        if smoothing == "add_one" and k > 0:
            m += 1
            t += 1
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    # under add_one each uncounted order scores (0+1)/(0+1), adding log 1 = 0 and one to the mean
    return 100.0 * brevity * math.exp(log_sum / (max_order if smoothing == "add_one" else orders))
