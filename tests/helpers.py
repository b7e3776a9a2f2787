"""Independent oracles, synthetic-data builders and byte-damage strategies shared across tests.

The oracles deliberately avoid the code paths they check: substring overlap
is recomputed by dynamic programming, BLEU by direct list-based n-gram
counting, schedule invariants one entry at a time, and batch streams and
schedules one decoded record at a time. A ``ctk`` corpus is written by an
encoder of its own (:func:`write_corpus`, with ``struct``), so the package's
doc-table reader is tested against bytes that no package code produced. The
paper's reference score tables are test data under ``tests/data``, read here.
"""

import json
import math
import os
import random
import statistics
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import contamkit
from contamkit.analytics import direction_of
from contamkit.corpus_io import (
    BatchStream, CorpusDocument, CorpusFormatError, EncodedDocument, StreamRecord, TestExample, _write_lines,
    doc_to_record, from_record, read_json_lines, record_values, write_json_lines,
)
from contamkit.injector import (
    MODE_LAYOUT, ContaminationCondition, InjectionSchedule, ScheduleEntries, ScheduleEntry, ScheduleReport,
    TrainingConfig,
)
from contamkit.matcher import MatchSpan
from contamkit.metrics import EvalRecord
from contamkit.ngram_index import NGramIndex, ScanConfig, build_index

DATA = Path(__file__).resolve().parent / "data"
SRC = str(Path(contamkit.__file__).resolve().parents[1])
# the environment of a child interpreter that imports this checkout's package
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

# every character class the encoder treats apart: quote, backslash, letter
# escapes, other C0 controls, DEL, non-ASCII and astral characters
_CHARS = st.one_of(st.sampled_from('"\\\b\f\n\r\t\x00\x0b\x1f\x7f/é€ 😀'), st.characters(codec="utf-8"))


def lcs_substring_length(a, b) -> int:
    """Length of the longest common contiguous substring, by classic DP.

    Rows iterate over ``a``; the column dimension (over ``b``) is vectorized.
    """
    if not a or not b:
        return 0
    col = np.asarray(b, dtype=np.int64)
    prev = np.zeros(len(b), dtype=np.int64)
    shifted = np.zeros(len(b), dtype=np.int64)
    best = 0
    for x in a:
        shifted[0] = 0
        shifted[1:] = prev[:-1]
        prev = np.where(col == x, shifted + 1, 0)
        m = int(prev.max())
        if m > best:
            best = m
    return best


def best_overlap(field, docs) -> int:
    """Longest common substring between ``field`` and any single doc."""
    return max((lcs_substring_length(field, doc) for doc in docs), default=0)


def maximal_common_substrings(field, doc, min_len) -> set[tuple[int, int, int]]:
    """All maximal common substrings of length >= min_len, by full DP.

    Returns (corpus_start, example_start, length) triples. A run is maximal
    when the next diagonal cell mismatches or falls off either end.
    """
    d, f = len(doc), len(field)
    run = [[0] * (f + 1) for _ in range(d + 1)]
    spans = set()
    for i in range(1, d + 1):
        for j in range(1, f + 1):
            if doc[i - 1] == field[j - 1]:
                run[i][j] = run[i - 1][j - 1] + 1
    for i in range(1, d + 1):
        for j in range(1, f + 1):
            length = run[i][j]
            if length < min_len:
                continue
            ends_run = i == d or j == f or doc[i] != field[j]
            if ends_run:
                spans.add((i - length, j - length, length))
    return spans


def longest_common_span(field, docs, n) -> MatchSpan | None:
    """The longest maximal common run of at least ``min(n, len(field))`` tokens
    between ``field`` and any doc, by the DP above; ties go to the smallest
    ``(doc_ref, corpus_start, example_start)``. ``None`` when there is none."""
    min_len = min(n, len(field))
    spans = [
        (-length, ref, i, j)
        for ref, doc in enumerate(docs)
        for i, j, length in maximal_common_substrings(field, doc, min_len)
    ]
    if not spans:
        return None
    neg_length, ref, i, j = min(spans)
    return MatchSpan(ref, i, j, -neg_length)


def verify_schedule_per_entry(schedule, config=None) -> ScheduleReport:
    """``verify_schedule`` one :class:`ScheduleEntry` at a time: every entry is
    checked and filed in a dict of entry lists per ``(example_id, copy)``, with
    no bulk test over the columns. Same report, same violations in the same order."""
    config = config or schedule.config
    condition = schedule.condition
    violations = []
    expected_cap = config.replace_cap()
    if schedule.cap != expected_cap:
        violations.append(f"header cap {schedule.cap} does not match config cap {expected_cap}")
    if not 0 <= schedule.window_start < schedule.window_end <= config.total_steps:
        violations.append(
            f"window [{schedule.window_start}, {schedule.window_end}) outside training range "
            f"[0, {config.total_steps})"
        )
    expected_entries = schedule.example_count * condition.copies * condition.arity
    if len(schedule.entries) != expected_entries:
        violations.append(f"entry count {len(schedule.entries)} != examples x copies x arity = {expected_entries}")

    per_step = {}
    seen_slots = set()
    parts = {}
    for e in schedule.entries:
        per_step[e.step] = per_step.get(e.step, 0) + 1
        if not schedule.window_start <= e.step < schedule.window_end:
            violations.append(
                f"entry ({e.example_id}, copy {e.copy_index}, {e.part}) at step {e.step} "
                f"outside window [{schedule.window_start}, {schedule.window_end})"
            )
        if not 0 <= e.slot < config.batch_size:
            violations.append(f"entry at step {e.step} has slot {e.slot} outside batch of {config.batch_size}")
        if (e.step, e.slot) in seen_slots:
            violations.append(f"slot collision at (step {e.step}, slot {e.slot})")
        seen_slots.add((e.step, e.slot))
        parts.setdefault((e.example_id, e.copy_index), []).append(e)
    for step, count in sorted(per_step.items()):
        if count > schedule.cap:
            violations.append(f"step {step} has {count} injected entries, cap is {schedule.cap}")

    layout = MODE_LAYOUT[condition.mode]
    expected = sorted(part for group in layout for part in group)
    for (example_id, copy), group in sorted(parts.items()):
        have = sorted(e.part for e in group)
        if have != expected:
            violations.append(f"({example_id}, copy {copy}) has parts {have}, expected {expected}")
            continue
        steps = len({e.step for e in group})
        if steps > len(layout):
            violations.append(f"({example_id}, copy {copy}): batched halves are not in the same step")
        elif steps < len(layout):
            violations.append(f"({example_id}, copy {copy}): split halves share a step")
    copies_seen = {}
    for example_id, copy in parts:
        copies_seen.setdefault(example_id, set()).add(copy)
    for example_id, seen in sorted(copies_seen.items()):
        if seen != set(range(condition.copies)):
            violations.append(f"{example_id}: copy indexes {sorted(seen)} do not cover 0..{condition.copies - 1}")
    return ScheduleReport(entry_count=len(schedule.entries), steps_used=len(per_step), violations=violations)


def brute_bleu(hypotheses, references, max_order=4) -> float:
    """BLEU recomputed with plain lists and .count(), no Counter, no clipping dict."""
    matched = [0] * max_order
    total = [0] * max_order
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    for hyp, ref in zip(hypotheses, references):
        for k in range(1, max_order + 1):
            hyp_grams = [tuple(hyp[i : i + k]) for i in range(len(hyp) - k + 1)]
            ref_grams = [tuple(ref[i : i + k]) for i in range(len(ref) - k + 1)]
            total[k - 1] += len(hyp_grams)
            for gram in set(hyp_grams):
                matched[k - 1] += min(hyp_grams.count(gram), ref_grams.count(gram))
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders_used = 0
    for m, t in zip(matched, total):
        if t == 0:
            continue  # order undefined: no hypothesis n-grams at this length
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders_used += 1
    if orders_used == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders_used)


def counter_bleu(hypotheses, references, max_order=4, smoothing="none") -> float:
    """BLEU with one Counter of sliced tuples per segment and order, clipped
    gram by gram: the implementation the one-pass ``corpus_bleu`` replaced,
    kept as its exact-equality oracle."""
    matched = [0] * max_order
    total = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for k in range(1, max_order + 1):
            hyp_counts = Counter(tuple(hyp[i : i + k]) for i in range(len(hyp) - k + 1))
            if not hyp_counts:
                continue
            ref_counts = Counter(tuple(ref[i : i + k]) for i in range(len(ref) - k + 1))
            total[k - 1] += sum(hyp_counts.values())
            matched[k - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders_used = 0
    for k in range(max_order):
        m, t = matched[k], total[k]
        if smoothing == "add_one" and k > 0:
            m += 1
            t += 1
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders_used += 1
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders_used)


def array_sample_slots(rng, batch_size, k) -> list[int]:
    """Partial Fisher-Yates over a list of the whole batch: the implementation
    the ``injector._sample_slots`` that stores only moved positions replaced,
    kept as its exact-equality oracle."""
    slots = list(range(batch_size))
    for i in range(k):
        j = i + rng.below(batch_size - i)
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:k]


def decode_batches(path):
    """``iter_batches`` decoding every line into a :class:`CorpusDocument`: the
    reader the line pattern replaced, kept as its exact-equality oracle (same
    checks, same errors, in the same order)."""
    step = 0
    batch_size = None
    current = []

    def check_size(where):
        nonlocal batch_size
        if batch_size is None:
            batch_size = len(current)
        elif len(current) != batch_size:
            raise CorpusFormatError(f"{where}: step {step} has {len(current)} slots, expected {batch_size}")

    for where, record in read_json_lines(path):
        r = from_record(StreamRecord, record, where)
        if current and r.step == step + 1 and r.slot == 0:
            check_size(where)
            yield current
            current = []
            step += 1
        if r.step != step or r.slot != len(current):
            raise CorpusFormatError(f"{where}: expected (step {step}, slot {len(current)}), got ({r.step}, {r.slot})")
        current.append(r.doc)
    if current:
        check_size(str(path))
        yield current


def encode_batches(batches, path) -> int:
    """``write_batches`` encoding every document as one JSON object per record:
    the writer the line pass replaced, kept as its exact-equality oracle."""
    return write_json_lines(path, (
        {"step": step, "slot": slot, "doc": doc_to_record(doc)}
        for step, batch in enumerate(batches)
        for slot, doc in enumerate(batch)
    ))


def schedule_header(schedule) -> dict:
    """The header record of a schedule file: the condition's, the config's and
    the schedule's own fields, plus branch_step and entry_count."""
    own = {key: value for key, value in vars(schedule).items() if key not in ("condition", "config", "entries")}
    return {"kind": "injection-schedule", **vars(schedule.condition), **vars(schedule.config), **own,
            "branch_step": schedule.branch_step, "entry_count": len(schedule.entries)}


def encode_schedule(schedule, path) -> int:
    """``write_schedule`` encoding the header and every entry as one JSON object
    with sorted keys: the writer the entry-line template replaced, kept as its
    exact-equality oracle."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    _write_lines(path, map(encode, [schedule_header(schedule), *(vars(e) for e in schedule.entries)]))
    return len(schedule.entries)


def decode_schedule(path) -> InjectionSchedule:
    """``read_schedule`` decoding every line with ``json.loads`` and checking it
    with ``record_values``: the reader the entry-line pattern replaced, kept as
    its exact-equality oracle (same checks, same errors, in the same order)."""
    records = read_json_lines(path)
    where, header = next(records, (path, None))
    if header is None:
        raise CorpusFormatError(f"{path}: missing schedule header")
    if header.get("kind") != "injection-schedule":
        raise CorpusFormatError(f"{where}: not an injection schedule file")
    if "entry_count" not in header:
        raise CorpusFormatError(f"{where}: missing field 'entry_count'")
    entry_count = header["entry_count"]
    if type(entry_count) is not int or entry_count < 0:
        raise CorpusFormatError(f"{where}: field 'entry_count' must be a non-negative integer")
    schedule = from_record(
        InjectionSchedule, header, where, defaults=False,
        condition=from_record(ContaminationCondition, header, where, defaults=False),
        config=from_record(TrainingConfig, header, where, defaults=False),
        entries=(),
    )
    schedule.entries = ScheduleEntries(record_values(ScheduleEntry, r, where) for where, r in records)
    if len(schedule.entries) != entry_count:
        raise CorpusFormatError(f"{path}: header says {entry_count} entries, file has {len(schedule.entries)}")
    return schedule


def encoded(doc: CorpusDocument) -> EncodedDocument:
    """The item ``iter_batches`` yields for ``doc`` written by ``write_batches``."""
    return EncodedDocument(doc.category, json.dumps(doc_to_record(doc), ensure_ascii=False))


def write_corpus(docs, path, fmt: str = "jsonl") -> int:
    """Write documents to one corpus shard; returns the document count.

    ``jsonl`` goes through ``write_json_lines``. ``ctk`` is encoded here:
    magic ``CTK1``, u32 doc count, then per document u32 id length, the UTF-8
    id, u32 token count and u32 tokens, all little-endian.
    """
    if fmt == "jsonl":
        return write_json_lines(path, map(doc_to_record, docs))
    assert fmt == "ctk", fmt
    body = []
    for doc in docs:
        doc_id = doc.doc_id.encode("utf-8")
        body.append(struct.pack(f"<I{len(doc_id)}sI{len(doc.tokens)}I",
                                len(doc_id), doc_id, len(doc.tokens), *doc.tokens))
    Path(path).write_bytes(b"CTK1" + struct.pack("<I", len(body)) + b"".join(body))
    return len(body)


def docs_from_tokens(token_lists, category="monolingual", lang="") -> list[CorpusDocument]:
    return [
        CorpusDocument(doc_id=f"d{i}", tokens=list(tokens), category=category, lang=lang)
        for i, tokens in enumerate(token_lists)
    ]


def index_of(token_lists, n=8, bits=64) -> NGramIndex:
    return build_index(docs_from_tokens(token_lists), ScanConfig(ngram_order=n), fingerprint_bits=bits)


def make_example(example_id, source_tokens, target_tokens, pair=("de", "en")) -> TestExample:
    return TestExample(
        example_id=example_id,
        src_lang=pair[0],
        tgt_lang=pair[1],
        source_text=" ".join(f"s{t}" for t in source_tokens),
        target_text=" ".join(f"t{t}" for t in target_tokens),
        source_tokens=list(source_tokens),
        target_tokens=list(target_tokens),
    )


def random_tokens(rng: random.Random, length, vocab) -> list[int]:
    return [rng.randrange(vocab) for _ in range(length)]


def _synth_stream(total_steps, batch_size, parallel_slots=(), seed=0):
    """Synthetic stream; (step, slot) pairs in parallel_slots plus slot 0 of
    every batch get parallel-category documents."""
    rng = random.Random(seed)
    parallel = set(parallel_slots)
    steps = []
    for step in range(total_steps):
        batch = []
        for slot in range(batch_size):
            is_parallel = (step, slot) in parallel or slot == 0
            batch.append(
                CorpusDocument(
                    doc_id=f"doc-{step}-{slot}",
                    tokens=[rng.randrange(500) for _ in range(4)],
                    category="parallel" if is_parallel else "monolingual",
                    lang="en",
                )
            )
        steps.append(batch)
    return BatchStream(batch_size=batch_size, steps=steps)


def _escape_all(text: str) -> str:
    """``text`` as a JSON string body of \\u escapes only (astral characters as surrogate pairs)."""
    units = text.encode("utf-16-le")
    return "".join(f"\\u{int.from_bytes(units[i:i + 2], 'little'):04x}" for i in range(0, len(units), 2))


def plant(field, segment, at) -> None:
    """Overwrite field[at:at+len(segment)] with segment, in place."""
    field[at : at + len(segment)] = segment


# -- the paper's reference score tables (tests/data) ------------------------------


def load_table(name: str) -> dict:
    """A reference score table of the paper, e.g. ``bleu_wmt23.json``."""
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def table_records(table: dict, model: str, temporal: str, copies: int | str, variant: str) -> list[EvalRecord]:
    """One (model, temporal, copies, variant) slice of a table as EvalRecords.

    Segment counts are not part of the tables; records carry 1.
    """
    block = table["scores"][model][temporal][str(copies)]
    system_id = f"{model}/{variant}/{temporal}/{copies}"
    return [
        EvalRecord(system_id, pair, table["testset_id"], values[variant], segment_count=1)
        for pair, values in sorted(block.items())
    ]


def direction_group(cells) -> dict[str, float]:
    """Mean percent improvement of impact cells per direction group; absent
    groups are absent, and cells with an undefined pct (zero baseline) are skipped."""
    pcts: dict[str, list[float]] = {}
    for cell in cells:
        if cell.pct is not None:
            pcts.setdefault(direction_of(cell.lang_pair), []).append(cell.pct)
    return {group: statistics.fmean(values) for group, values in pcts.items()}


# -- byte damage, as hypothesis strategies over a valid file's bytes ----------------


def _truncate(data: bytes):
    return st.integers(0, len(data) - 1).map(lambda k: data[:k])


def _overwrite(data: bytes):
    def apply(edits):
        out = bytearray(data)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    edit = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=3).map(apply)
