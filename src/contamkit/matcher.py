"""Longest token-span matching between test-example fields and a corpus.

A field's overlap fraction is the length of its longest exact match against
any indexed document, divided by the field's own token count; the combined
contamination score of an example is the larger of its two per-field
fractions. Only that one span per field is searched for
(:func:`longest_span`). The field's n-gram keys come from one probe
(:meth:`NGramIndex.probe`), which computes them a block of grams at a time,
and the grams are looked up in order of field offset. A candidate is a
global position in the index's token array; ``L`` is the best length found
so far. Once a span is kept, a candidate at
a later position loses every tie, so it must be longer than ``L``: it is
dropped unless its token at offset ``L`` equals the field's, one integer
test that ends most candidates of a repeated gram. Any other candidate
must equal the field on its first ``L`` tokens: its token at offset
``L - 1`` is tested first, then the ``L`` tokens as one array-slice
comparison; only past ``L`` is it extended token by token. The one-token
tests drop only candidates that cannot beat ``L``, and every counted span
is compared token by token, so the match is exact at any fingerprint
width. Branch and bound prunes the rest: the walk stops once fewer field
tokens are left than the best length found, and a candidate with too
little room in its document to reach that length is not extended. A
candidate that is not left-maximal, one whose span goes on a token further
left in its document, needs no test of its own: the walk met that longer
span at the offset before, so ``L`` already exceeds what the candidate can
reach, and it fails the one-token test, or else the slice or the room
test. The document of a position is looked up (a bisection of the
document starts) only for a candidate that passes the slice comparison,
for its room, and once for the span reported.

Token ids are compared raw: no normalization, no re-tokenization. They are
32-bit, as in every index and every format :mod:`contamkit.corpus_io` reads,
so a field is searched as one ``array("I")``, and an id outside
``[0, 2**32)`` is a ``ValueError``. Fields shorter than the n-gram order are
handled by searching the entire field as a single gram in the corpus token
buffer, in place, so such fields only ever score 0 or 1.

All functions here are pure given an immutable index; examples may be scored
in parallel with no shared state.
"""

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus_io import TestExample, write_json_lines
from .ngram_index import NGramIndex, ScanConfig


@dataclass(frozen=True)
class MatchSpan:
    """A maximal region where corpus and field tokens agree pairwise.

    ``corpus[corpus_start + i] == field[example_start + i]`` for all
    ``i < length``, and extending one token in either direction breaks
    agreement or runs off a boundary. Spans grown from n-gram seeds have
    ``length >= ngram_order``; whole-field searches of short fields yield
    spans with ``length == len(field)``.
    """

    doc_ref: int
    corpus_start: int
    example_start: int
    length: int


@dataclass(frozen=True)
class ContaminationScore:
    """Per-field overlap fractions and the spans that produced them."""

    s_source: float
    s_target: float
    longest_source: MatchSpan | None
    longest_target: MatchSpan | None

    @property
    def combined(self) -> float:
        return max(self.s_source, self.s_target)


def longest_span(field: Sequence[int], index: NGramIndex, config: ScanConfig) -> MatchSpan | None:
    """The longest maximal match span of ``field``, or ``None`` when there is none.

    Spans shorter than ``n`` do not count, and of equal-length spans the one
    smallest on ``(doc_ref, corpus_start, example_start)`` is returned. The
    search is branch and bound: the best length ``L`` found so far ends the
    walk over field offsets ``j`` at the first one with fewer than ``L``
    tokens left, and skips a candidate whose room
    ``min(document end - i, field end - j)`` is below ``L``. Both tests are
    strict, so a later span of length ``L`` still competes on the tie key
    ``(doc_ref, corpus_start, example_start)``, which orders spans as the
    global position ``i`` and then ``example_start`` do. The grams come
    from one probe of the field (:meth:`NGramIndex.probe`). A
    candidate at a position ``i`` past the kept span's loses the tie, so it
    is skipped unless ``tokens[i + L] == field[j + L]``, both inside their
    arrays: it could not be longer. Any other candidate is skipped unless
    ``tokens[i + L - 1] == field[j + L - 1]``, inside the token array. A
    candidate that survives is compared
    on its ``L`` tokens as one slice, ``tokens[i:i + L] == field[j:j + L]``;
    only one that passes has its document looked up, for its room, and is
    then extended token by token past ``L``, so the result is exact at any
    fingerprint width. A token id outside ``[0, 2**32)``, which no index
    can hold, raises ``ValueError``. A field shorter than ``n`` returns its
    first whole-field occurrence, which is the smallest on the tie key.
    """
    n = index.ngram_order
    if config.ngram_order != n:
        raise ValueError(f"config ngram_order {config.ngram_order} does not match index ngram_order {n}")
    if len(field) == 0:
        raise ValueError("field must be non-empty")
    try:
        field = array("I", field)
    except OverflowError:
        raise ValueError("field token ids must be integers in [0, 2**32)") from None
    if len(field) < n:
        return _whole_field_span(field, index)

    tokens, starts = index.tokens, index.starts
    end = len(field)
    best = None  # (corpus position, example_start) of the span kept
    best_len = n  # spans shorter than n do not count
    best_i = len(tokens)  # no candidate is past best_i until a span is kept
    last = len(tokens) - best_len  # the last position with best_len tokens left in the array
    for j, positions in enumerate(index.probe(field)):
        if end - j < best_len:
            break  # no span starting here or later in the field can be longer
        if not positions:
            continue
        head = field[j : j + best_len]
        after = field[j + best_len] if j + best_len < end else -1  # -1 equals no token id
        for i in positions:
            # Past best_i, (i, j) loses every tie (j only grows), so the
            # candidate must be longer than best_len: token best_len must
            # match, inside the token array. Any other candidate must match
            # on its first best_len tokens, so token best_len - 1 is tested
            # first, inside the array too. A candidate that is not
            # left-maximal (tokens[i - 1] == field[j - 1] in one document)
            # needs no test of its own: the span one token longer at
            # (i - 1, j - 1) has a posting the walk met at offset j - 1, so
            # best_len already exceeds any span at (i, j), and it fails the
            # one-token, slice or room test.
            if i > best_i:
                if i >= last or tokens[i + best_len] != after:
                    continue
            elif i > last or tokens[i + best_len - 1] != head[-1]:
                continue
            if tokens[i : i + best_len] != head:
                continue  # the first best_len tokens differ
            stop = min(starts[bisect_right(starts, i)] - i, end - j)
            if stop < best_len:
                continue  # too little room in its document or the field
            length = best_len
            while length < stop and tokens[i + length] == field[j + length]:
                length += 1
            if length > best_len or best is None or (i, j) < best:
                best, best_len, best_i = (i, j), length, i
                last = len(tokens) - best_len
                head = field[j : j + best_len]
                after = field[j + best_len] if j + best_len < end else -1
    if best is None:
        return None
    i, j = best
    ref = bisect_right(starts, i) - 1
    return MatchSpan(ref, i - starts[ref], j, best_len)


def _whole_field_span(field: array, index: NGramIndex) -> MatchSpan | None:
    # The first exact whole-field occurrence in the packed token buffer, in
    # (doc_ref, corpus_start) order; linear in corpus size, only reached for
    # fields shorter than the n-gram order. The buffer is searched through a
    # byte view, not copied; the view is released on return, so the array can
    # still grow.
    search = re.compile(re.escape(field.tobytes())).search
    starts, k = index.starts, len(field)
    with memoryview(index.tokens) as view, view.cast("B") as haystack:
        hit = search(haystack)
        while hit:
            start, misaligned = divmod(hit.start(), 4)
            if not misaligned:  # whole tokens only
                ref = bisect_right(starts, start) - 1
                if start + k <= starts[ref + 1]:  # inside one document
                    return MatchSpan(doc_ref=ref, corpus_start=start - starts[ref], example_start=0, length=k)
            hit = search(haystack, hit.start() + 1)  # hits may overlap
    return None


def score_field(field: Sequence[int], index: NGramIndex, config: ScanConfig) -> tuple[float, MatchSpan | None]:
    """Overlap fraction of a single field: longest span length / field length."""
    best = longest_span(field, index, config)
    if best is None:
        return 0.0, None
    return best.length / len(field), best


def score_example(example: TestExample, index: NGramIndex, config: ScanConfig) -> ContaminationScore:
    """Score source and target fields independently from their own longest spans."""
    s_source, span_source = score_field(example.source_tokens, index, config)
    s_target, span_target = score_field(example.target_tokens, index, config)
    return ContaminationScore(
        s_source=s_source,
        s_target=s_target,
        longest_source=span_source,
        longest_target=span_target,
    )


def _span_record(span: MatchSpan | None, index: NGramIndex) -> dict | None:
    if span is None:
        return None
    record = {"doc_id": index.doc_id(span.doc_ref), **vars(span)}
    del record["doc_ref"]
    return record


def score_record(example_id: str, score: ContaminationScore, index: NGramIndex) -> dict:
    """Dump-format record for one scored example."""
    return {
        "example_id": example_id,
        **vars(score),
        "longest_source": _span_record(score.longest_source, index),
        "longest_target": _span_record(score.longest_target, index),
    }


def write_scores(items: Iterable[tuple[str, ContaminationScore]], index: NGramIndex, path) -> int:
    """Write scored examples as JSON-lines; returns the record count."""
    return write_json_lines(path, (score_record(example_id, score, index) for example_id, score in items))
