"""Corpus-level BLEU over pre-tokenized segments.

The score is the geometric mean of clipped modified n-gram precisions for
orders 1..max_order, times the brevity penalty
``exp(min(0, 1 - ref_len / hyp_len))``, scaled to [0, 100]. Counts are summed
over all segments before precisions are taken (corpus aggregation), and a
single reference per segment is assumed.

Matches are clipped as Papineni et al. (2002) define them, each hypothesis
gram counted at most as often as the reference has it. Per segment, the
orders up to the first one at which no hypothesis gram repeats are clipped
through a ``Counter`` of each side's grams. From that order on no gram can
repeat (a repeated (k+1)-gram starts with a repeated k-gram), so the clipped
matches are the size of the set intersection of hypothesis and reference
grams. Both ways give the same counts, so the scores are the same floats.

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
        n = len(hyp)
        hyp_len += n
        ref_len += len(ref)
        distinct = False
        for k in range(1, min(max_order, n) + 1):  # a shorter hypothesis has no k-grams
            hyp_grams = zip(*[hyp[i:] for i in range(k)])
            ref_grams = zip(*[ref[i:] for i in range(k)])
            total[k - 1] += n - k + 1
            # a gram that occurs once in the hypothesis clips to 1 if the reference has it, else to 0
            if distinct:
                matched[k - 1] += len(set(hyp_grams).intersection(ref_grams))
                continue
            hyp_counts = Counter(hyp_grams)
            # a repeated (k+1)-gram starts with a repeated k-gram, so once no k-gram repeats none will
            distinct = len(hyp_counts) == n - k + 1
            if distinct:
                matched[k - 1] += len(hyp_counts.keys() & ref_grams)
            else:
                ref_counts = Counter(ref_grams)
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
