"""Render test examples into training documents and plan their injection.

Five rendering modes are supported. ``full_prompted`` formats an example the
way it appears at test time, with English language names prepended::

    German: <source text>
    English: <target text>

``source_only`` / ``target_only`` emit the bare field text with no
formatting. ``split_pair`` and ``batched_pair`` emit both bare texts as two
separate unpaired documents; batched halves land in the same training step
while split halves land in different steps. ``MODE_LAYOUT`` (in
:mod:`contamkit.conditions`, with the modes, windows and training dimensions)
is the one place that says which documents a mode renders and which of them
share a step; the renderer, the planner's window, capacity and placement, and
the verifier all read it.

A plan places ``examples x copies`` rendered copies into a training stream
under a temporal condition: ``early`` / ``middle`` / ``late`` windows start
at 30% / 60% / 90% of training and span ``window_frac`` of the steps (grown
automatically when the per-batch replacement cap would not fit all entries,
and clipped to end at the last step), while ``uniform`` draws steps over the
whole 30%-90% span. No batch ever receives more than
``floor(max_replace_frac * batch_size)`` injected documents (one fewer when
``strict_cap`` is set and the product is exact), and slots within a batch are
drawn uniformly without replacement.

All randomness comes from one counter-based generator (SplitMix64: output i
is the splitmix finalizer applied to ``seed + (i+1) * 0x9E3779B97F4A7C15``;
integers below a bound are taken by rejection sampling); draws are computed
1,024 at a time, with the same values. Draw order is: one
step per layout group in unit order (source half before target half), then
slots per step in ascending step order. A ``split_pair`` half that finds no
step with room outside its copy's other steps (a window filled exactly) takes
the step of an earlier placed half instead, which moves, without a draw, to
the first step that has room and does not hold its own copy. Plans are
therefore a pure function of (examples, condition, config, template) and
serialize byte-identically across runs.

A schedule holds its entries as columns (:class:`ScheduleEntries`), not one
object per entry: about 59 B per entry.
"""

import functools
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import floordiv, itemgetter, mod, ne
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .conditions import (
    MODE_LAYOUT, UNIFORM_RANGE_FRAC, WINDOW_START_FRAC, CapacityError, ContaminationCondition, ContaminationMode,
    Temporal, TrainingConfig,
)
from .corpus_io import (
    CATEGORY_CONTAMINATION, CATEGORY_PARALLEL, BatchStream, CorpusDocument, CorpusFormatError, EncodedDocument,
    Int64, TestExample, _parse_object, _write_lines, from_record, int_to_array, is_text, read_lines, record_values,
)

GENERATOR_VERSION = "contamkit-planner/1"

_TOP = 1 << 64
_MASK64 = _TOP - 1
_BLOCK = 1024  # draws a CounterRng computes at once

_INT64 = "(0|[1-9][0-9]{0,17})"  # at most 18 digits: below 2**63 without a range test
_PLAIN = r'"([^"\\\x00-\x1f]*)"'  # a JSON string with no escapes: its text is its value
# An entry line exactly as write_schedule writes it, its string fields (but the
# rendered text, kept raw and decoded apart) with no escapes.
_SCHEDULE_LINE = (f'{{"copy_index": {_INT64}, "example_id": {_PLAIN}, "lang": {_PLAIN}, "part": {_PLAIN}, '
                  f'"rendered_text": "(.*)", "slot": {_INT64}, "step": {_INT64}}}\n?')


class TemplateError(ValueError):
    """A language tag has no English name in the prompt template."""


class StreamShapeError(ValueError):
    """A batch stream does not fit the schedule: its step count, a batch's
    size, or a slot's incumbent where ``require_parallel_slots`` asks for a
    parallel one."""


class ScheduleError(ValueError):
    """A schedule that :func:`verify_schedule` flags; the message gives the
    violation count and the first violation."""


DEFAULT_LANGUAGE_NAMES = {
    "en": "English", "de": "German", "ru": "Russian", "cs": "Czech", "uk": "Ukrainian", "he": "Hebrew",
    "ja": "Japanese", "zh": "Chinese", "ar": "Arabic", "ace": "Acehnese", "wo": "Wolof", "yo": "Yoruba",
}


@dataclass(frozen=True)
class PromptTemplate:
    """Maps language tags to the English names used in prompted rendering."""

    names: Mapping[str, str]


DEFAULT_TEMPLATE = PromptTemplate(names=DEFAULT_LANGUAGE_NAMES)


@dataclass(frozen=True)
class RenderedDoc:
    text: str
    part: str
    lang: str


def render(example: TestExample, mode: ContaminationMode, template: PromptTemplate = DEFAULT_TEMPLATE) -> list[RenderedDoc]:
    """Render one example into the training documents its mode calls for."""
    mode = ContaminationMode(mode)
    source = (example.source_text, example.src_lang)
    target = (example.target_text, example.tgt_lang)
    if mode is ContaminationMode.FULL_PROMPTED:
        try:
            text = (
                f"{template.names[example.src_lang]}: {example.source_text}\n"
                f"{template.names[example.tgt_lang]}: {example.target_text}"
            )
        except KeyError as e:
            message = f"no English name for language tag {e.args[0]!r} in template"
            raise TemplateError(f"example {example.example_id!r}: {message}") from None
        docs = [(text, example.pair)]
    elif mode is ContaminationMode.SOURCE_ONLY:
        docs = [source]
    elif mode is ContaminationMode.TARGET_ONLY:
        docs = [target]
    else:  # split_pair / batched_pair: both bare texts as separate unpaired documents
        docs = [source, target]
    parts = [part for group in MODE_LAYOUT[mode] for part in group]
    return [RenderedDoc(text=text, part=part, lang=lang) for (text, lang), part in zip(docs, parts, strict=True)]


class CounterRng:
    """Counter-based SplitMix64 stream; fully determined by the seed."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0  # draws consumed
        self._outputs = _splitmix64_blocks(self.seed)

    def draw64(self) -> int:
        self.counter += 1
        return next(self._outputs)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling: a draw
        at or above ``limit = 2**64 - 2**64 % n`` is rejected. ``2**64 % n`` is
        below ``n``, so a draw below ``2**64 - n`` is kept without computing
        the limit."""
        self.counter += 1
        v = next(self._outputs)
        if v < _TOP - n:
            return v % n
        limit = _TOP - _TOP % n
        while v >= limit:
            v = self.draw64()
        return v % n


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """1, 2**64 - 1 and k * GAMMA mod 2**64 in 128-bit lane k, k < ``_BLOCK``."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    ramp = b"".join((k * CounterRng.GAMMA & _MASK64).to_bytes(16, "little") for k in range(_BLOCK))
    return ones, ones * _MASK64, int.from_bytes(ramp, "little")


def _splitmix64_blocks(seed: int) -> Iterator[int]:
    """The draws of ``seed``, ``_BLOCK`` at a time: draw i of a block is lane i of
    one int, masked to 64 bits before each multiply, so each line is one big-int
    operation over all lanes."""
    ones, lanes, ramp = _lanes()  # built on the first draw, not at import
    while True:
        z = ((seed + CounterRng.GAMMA) * ones + ramp) & lanes
        seed = (seed + _BLOCK * CounterRng.GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
        z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
        yield from int_to_array(z ^ (z >> 31), "Q", 2 * _BLOCK)[::2]


@dataclass(frozen=True)
class ScheduleEntry:
    step: Int64
    slot: Int64
    example_id: str
    copy_index: Int64
    part: str
    rendered_text: str
    lang: str


class ScheduleEntries(Sequence[ScheduleEntry]):
    """A schedule's entries, read-only, as one column per :class:`ScheduleEntry`
    field in field order: ``step``, ``slot`` and ``copy_index`` are 64-bit int
    arrays, and the string columns share their objects between entries (built
    from ``rows`` of field values, one per distinct string). Indexing and
    iteration give :class:`ScheduleEntry` values."""

    def __init__(self, rows: Iterable[Sequence] = ()):
        self.columns = step, slot, example_id, copy_index, part, text, lang = (
            array("q"), array("q"), [], array("q"), [], [], [])
        intern = {}.setdefault  # one object per distinct string
        for s, t, e, c, p, r, g in rows:
            step.append(s)
            slot.append(t)
            example_id.append(intern(e, e))
            copy_index.append(c)
            part.append(intern(p, p))
            text.append(intern(r, r))
            lang.append(intern(g, g))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return ScheduleEntry(*(column[i] for column in self.columns))

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return map(ScheduleEntry, *self.columns)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass
class InjectionSchedule:
    """A fully resolved injection plan plus the header that reproduces it. ``entries``
    may be any sequence of :class:`ScheduleEntry`, converted once to :class:`ScheduleEntries`."""

    condition: ContaminationCondition
    config: TrainingConfig
    cap: int
    window_start: int
    window_end: int  # exclusive
    template_names: dict[str, str]
    example_count: int
    entries: Sequence[ScheduleEntry]
    generator_version: str = GENERATOR_VERSION

    def __post_init__(self):
        if not isinstance(self.entries, ScheduleEntries):
            self.entries = ScheduleEntries(vars(e).values() for e in self.entries)

    @property
    def branch_step(self) -> int:
        """The step a trainer would branch a baseline checkpoint at."""
        return self.window_start


def _window(condition: ContaminationCondition, config: TrainingConfig, units: int) -> tuple[int, int, int]:
    """Resolve the [start, end) step window for ``units`` copies, growing
    concentrated windows just enough to fit all entries under the cap, and
    the groups one step can take.

    Raises :class:`CapacityError` when the window cannot hold them.
    """
    steps = config.total_steps
    cap = config.replace_cap()
    layout = MODE_LAYOUT[condition.mode]
    size, groups = len(layout[0]), len(layout)  # documents per group (all alike), steps per copy
    per_step = cap // size
    if condition.temporal is Temporal.UNIFORM:
        start = int(math.floor(UNIFORM_RANGE_FRAC[0] * steps))
        end = min(int(math.floor(UNIFORM_RANGE_FRAC[1] * steps)) + 1, steps)
    else:
        start = int(math.floor(WINDOW_START_FRAC[condition.temporal] * steps))
        base = max(1, math.ceil(config.window_frac * steps))
        # one spare step per extra group of a copy, so the different-step
        # constraint cannot wedge a tightly packed window
        needed = math.ceil(units * groups / per_step) + groups - 1 if per_step else steps + 1
        end = min(start + max(base, needed), steps)
    width = end - start
    if width < groups:
        message = f"{condition.mode.value} needs a window of at least {groups} steps, window has {width}"
        raise CapacityError(message, required=groups, available=width)
    entries = units * condition.arity
    available = width * per_step * size
    if entries > available:
        message = f"plan needs {entries} injection slots but the window provides {available} "
        message += f"({width} steps x cap {cap})"
        raise CapacityError(message, required=entries, available=available)
    return start, end, per_step


def _sample_slots(rng: CounterRng, batch_size: int, k: int) -> list[int]:
    # partial Fisher-Yates: k distinct slots, uniform over the batch; ``moved``
    # holds only the positions a swap has changed, so memory follows k, not the batch
    moved: dict[int, int] = {}
    slots = []
    for i in range(k):
        j = i + rng.below(batch_size - i)
        slots.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return slots


def plan_schedule(
    examples: Sequence[TestExample],
    condition: ContaminationCondition,
    config: TrainingConfig,
    template: PromptTemplate = DEFAULT_TEMPLATE,
) -> InjectionSchedule:
    """Expand a condition into a fully resolved, deterministic injection plan.

    No Python container is built per entry. Copy ``c`` of example number ``e``
    is unit ``u = e * copies + c``, group ``k`` of its layout is placed as the
    one integer ``g = u * groups + k``, and document ``t`` of that group is
    entry number ``g * size + t``. Steps are drawn per group, in ``g`` order;
    then each step in ascending order draws the slots of its documents, in
    the order its groups were placed. Each document's key
    ``step * batch_size + slot`` is appended to one list, whose indexes are
    sorted once, and the columns are filled from that order.
    """
    if not examples:
        raise ValueError("examples must be non-empty")
    cap = config.replace_cap()
    if cap < 1:
        message = f"replacement cap is 0 for batch_size {config.batch_size} and "
        message += f"max_replace_frac {config.max_replace_frac}"
        raise CapacityError(message, required=1, available=0)
    # every example's rendered documents in layout order: document i of example e is docs[e * arity + i]
    docs = [doc for ex in examples for doc in render(ex, condition.mode, template)]
    if len({ex.example_id for ex in examples}) != len(examples):
        raise ValueError("examples must have unique example_ids")
    layout, copies, arity = MODE_LAYOUT[condition.mode], condition.copies, condition.arity
    size, groups = len(layout[0]), len(layout)  # documents per group (all alike), groups per copy
    units = len(examples) * copies
    lo, hi, per_step = _window(condition, config, units)

    rng = CounterRng(config.seed)
    below, width = rng.below, hi - lo
    # the groups placed on a step, in placing order: sparse, so memory follows the entries, not the window
    by_step: dict[int, list[int]] = {}
    placed_on = by_step.get

    def free_step(taken: list[int]) -> int:
        """Move one placed group off a step that ``taken`` lacks to a step with
        room that its own copy lacks; return the step it freed."""
        for old in range(lo, hi):
            if old in taken:
                continue
            for i, g in enumerate(by_step.get(old, ())):
                unit = g // groups
                own = {s for s, placed in by_step.items() if any(h // groups == unit for h in placed)}
                for step in range(lo, hi):
                    if step not in own and len(placed_on(step, ())) < per_step:
                        by_step.setdefault(step, []).append(by_step[old].pop(i))
                        return old
        # not reached: when no step draws, a full step outside ``taken`` holds a copy that a step with room lacks

    for unit in range(units):
        taken: list[int] = []
        for g in range(unit * groups, unit * groups + groups):
            for _ in range(64):
                step = lo + below(width)
                if len(placed_on(step, ())) < per_step and step not in taken:
                    break
            else:  # deterministic fallback: scan forward from the last draw, then free a step
                step = next((s for s in chain(range(step, hi), range(lo, step))
                             if len(placed_on(s, ())) < per_step and s not in taken), None)
                if step is None:
                    step = free_step(taken)
            taken.append(step)
            by_step.setdefault(step, []).append(g)

    batch_size = config.batch_size
    keys: list[int] = []  # step * batch_size + slot, one per entry in slot-drawing order
    numbers: list[int] = []  # the entry numbers of the same entries
    for step in sorted(by_step):
        placed = by_step.pop(step)  # each step's list goes once its slots are drawn, before the entries grow
        if size > 1:  # else a group's one document has the group's number
            placed = [d for g in placed for d in range(g * size, g * size + size)]
        base = step * batch_size
        keys += [base + slot for slot in _sample_slots(rng, batch_size, len(placed))]
        numbers += placed
    # keys are distinct: slots differ within a step, and a step's keys lie below the next step's
    order = sorted(range(len(keys)), key=keys.__getitem__)
    entries = ScheduleEntries()  # filled directly: the renderer already shares each document's strings
    step_column, slot_column, example_column, copy_column, part_column, text_column, lang_column = entries.columns
    keys = list(map(keys.__getitem__, order))
    step_column.extend(map(floordiv, keys, repeat(batch_size)))
    slot_column.extend(map(mod, keys, repeat(batch_size)))
    numbers = list(map(numbers.__getitem__, order))
    del keys, order  # each list goes once the columns hold its values, so they do not all peak together
    copy_column.extend([d // arity % copies for d in numbers])
    doc = [d // (arity * copies) * arity + d % arity for d in numbers]  # the entry's index in docs
    del numbers
    example_ids = [ex.example_id for ex in examples for _ in range(arity)]
    for column, values in ((example_column, example_ids), (part_column, [d.part for d in docs]),
                           (text_column, [d.text for d in docs]), (lang_column, [d.lang for d in docs])):
        column.extend(map(values.__getitem__, doc))

    return InjectionSchedule(
        condition=condition, config=config, cap=cap, window_start=lo, window_end=hi,
        template_names=dict(template.names), example_count=len(examples), entries=entries,
    )


# -- schedule file I/O -------------------------------------------------------


def write_schedule(schedule: InjectionSchedule, path) -> int:
    """Write a plan: one JSON header line (the condition's, the config's and
    the schedule's own fields, plus branch_step and entry_count), then one
    line per entry, keys sorted, from one template: each distinct string is
    encoded once, and every line is what ``json.dumps(entry, ensure_ascii=False,
    sort_keys=True)`` gives."""
    own = {key: value for key, value in vars(schedule).items() if key not in ("condition", "config", "entries")}
    header = {"kind": "injection-schedule", **vars(schedule.condition), **vars(schedule.config), **own,
              "branch_step": schedule.branch_step, "entry_count": len(schedule.entries)}
    _, _, example_id, _, part, text, lang = columns = schedule.entries.columns
    quote = {s: json.dumps(s, ensure_ascii=False) for s in {*example_id, *part, *text, *lang}}
    lines = (f'{{"copy_index": {c}, "example_id": {quote[e]}, "lang": {quote[g]}, "part": {quote[p]}, '
             f'"rendered_text": {quote[r]}, "slot": {t}, "step": {s}}}' for s, t, e, c, p, r, g in zip(*columns))
    _write_lines(path, chain([json.dumps(header, ensure_ascii=False, sort_keys=True)], lines))
    return len(schedule.entries)


def read_schedule(path) -> InjectionSchedule:
    """Read a plan written by :func:`write_schedule`.

    Every header field is required. An entry line in the exact form
    :func:`write_schedule` writes is read by one full-line pattern (integers
    of at most 18 digits, so below 2**63; ``example_id``, ``part`` and
    ``lang`` without escapes; each distinct ``rendered_text`` decoded once);
    any other line, or one whose ``rendered_text`` is not text UTF-8 can
    encode, is decoded and checked field by field. Either way the
    values go straight into the columns, the same values, and no
    :class:`ScheduleEntry` is built. Raises :class:`CorpusFormatError` naming
    the line and field of a malformed header or entry, and the file when it
    does not hold the header's ``entry_count`` entries (a cut-short plan).
    """
    lines = read_lines(path)
    where, header = next(((f"{path}:{n}", line) for n, line in lines if line.strip()), (path, None))
    if header is None:
        raise CorpusFormatError(f"{path}: missing schedule header")
    header = _parse_object(header, where)
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
    match = re.compile(_SCHEDULE_LINE, re.S).fullmatch  # compiled here: a launch that reads no schedule skips it
    decode = functools.cache(_string_value)

    def rows():
        for lineno, line in lines:
            m = match(line)
            if m and (text := decode(m[5])) is not None:
                copy_index, example_id, lang, part, _, slot, step = m.groups()
                yield int(step), int(slot), example_id, int(copy_index), part, text, lang
            elif line.strip():
                where = f"{path}:{lineno}"
                yield record_values(ScheduleEntry, _parse_object(line, where), where)

    schedule.entries = ScheduleEntries(rows())
    if len(schedule.entries) != entry_count:
        raise CorpusFormatError(f"{path}: header says {entry_count} entries, file has {len(schedule.entries)}")
    return schedule


def _string_value(body: str) -> str | None:
    """The value of the JSON string whose text between the quotes is ``body``, or
    None when that is not a JSON string (an unescaped quote, a control character,
    a bad escape) or its value is not text UTF-8 can encode (a lone surrogate)."""
    try:
        value = json.loads(f'"{body}"')
    except ValueError:
        return None
    return value if is_text(value) else None


# -- application and verification --------------------------------------------


def apply_schedule(
    stream: BatchStream,
    schedule: InjectionSchedule,
    tokenizer: Callable[[str], list[int]] | None = None,
    require_parallel_slots: bool = False,
) -> BatchStream:
    """Substitute scheduled slots with rendered contamination documents.

    Every scheduled (step, slot) gets a ``category=contamination`` document;
    all other slots are returned untouched (the same document objects, in new
    batch lists). With ``require_parallel_slots`` the incumbent at each
    scheduled slot must be parallel-category, which is the convention that
    keeps the per-batch parallel-text budget constant (contamination is
    parallel text in substance and counts toward it).

    ``tokenizer`` turns rendered text into token ids; without one the
    replacement documents carry text only and the consumer tokenizes.

    This is the in-memory form of :func:`apply_batches`, which does the work
    one batch at a time; it raises ``ValueError`` as that function does.
    """
    steps = list(apply_batches(stream.steps, schedule, tokenizer, require_parallel_slots))
    return BatchStream(batch_size=stream.batch_size, steps=steps)


def apply_batches(
    batches: Iterable[Sequence[CorpusDocument | EncodedDocument]],
    schedule: InjectionSchedule,
    tokenizer: Callable[[str], list[int]] | None = None,
    require_parallel_slots: bool = False,
) -> Iterator[list[CorpusDocument | EncodedDocument]]:
    """Yield each batch of a stream with its scheduled slots substituted.

    One merge pass: batches are read one at a time and each is yielded, as
    a new list, before the next is read, so memory is one batch plus the
    schedule. Checks run as early as the stream allows: the schedule must
    pass :func:`verify_schedule` before the first batch is read, so every
    target lies inside the window and the batch and no slot is targeted
    twice; the batch size and ``require_parallel_slots`` are checked per
    batch and the step count once the stream ends. A failed check raises
    :class:`ScheduleError` for a fault of the schedule alone and
    :class:`StreamShapeError` for one of the stream (both are
    ``ValueError``). Arguments and replacement documents are as in
    :func:`apply_schedule`, and a batch may also hold :class:`EncodedDocument` values.
    """
    config = schedule.config
    violations = verify_schedule(schedule).violations
    if violations:
        raise ScheduleError(f"schedule check: {len(violations)} violation(s), the first: {violations[0]}")
    targets: dict[int, dict[int, int]] = {}  # step -> slot -> entry index
    for i, (step, slot) in enumerate(zip(*schedule.entries.columns[:2])):
        targets.setdefault(step, {})[slot] = i
    steps = 0
    for step, batch in enumerate(batches):
        if len(batch) != config.batch_size:
            message = f"stream batch_size {len(batch)} does not match schedule batch_size {config.batch_size}"
            raise StreamShapeError(message)
        batch = list(batch)
        for slot, i in targets.pop(step, {}).items():
            e, incumbent = schedule.entries[i], batch[slot]
            if incumbent.category == CATEGORY_CONTAMINATION:
                raise StreamShapeError(
                    f"(step {step}, slot {slot}): incumbent is a contamination document; "
                    "plan the conditions as one schedule instead of applying one plan over another"
                )
            if require_parallel_slots and incumbent.category != CATEGORY_PARALLEL:
                raise StreamShapeError(
                    f"(step {step}, slot {slot}): incumbent is {incumbent.category!r}, "
                    "expected 'parallel'; replacing it would change the parallel-text budget"
                )
            batch[slot] = CorpusDocument(
                doc_id=f"inject/{e.example_id}/{e.copy_index}/{e.part}",
                tokens=tokenizer(e.rendered_text) if tokenizer is not None else [],
                category=CATEGORY_CONTAMINATION,
                lang=e.lang,
                text=e.rendered_text,
            )
        yield batch
        steps = step + 1
    if steps != config.total_steps:
        raise StreamShapeError(f"stream has {steps} steps, schedule expects {config.total_steps}")


@dataclass
class ScheduleReport:
    """Outcome of re-checking every schedule invariant."""

    entry_count: int
    steps_used: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"schedule check: {status} ({self.entry_count} entries over {self.steps_used} steps)"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines) + "\n"


def verify_schedule(schedule: InjectionSchedule, config: TrainingConfig | None = None) -> ScheduleReport:
    """Re-check cap, window, arity, co-location, and separation invariants.

    Each check runs in bulk over the entry columns; only a failed one walks the entries for its
    messages: in entry order for windows, slots and collisions, then per step, then per sorted copy.
    """
    config = config or schedule.config
    condition = schedule.condition
    violations: list[str] = []

    expected_cap = config.replace_cap()
    if schedule.cap != expected_cap:
        violations.append(f"header cap {schedule.cap} does not match config cap {expected_cap}")
    start, end = schedule.window_start, schedule.window_end
    if not 0 <= start < end <= config.total_steps:
        violations.append(f"window [{start}, {end}) outside training range [0, {config.total_steps})")

    entries = schedule.entries
    step, slot, example_id, copy_index, part = entries.columns[:5]
    expected_entries = schedule.example_count * condition.copies * condition.arity
    if len(entries) != expected_entries:
        violations.append(f"entry count {len(entries)} != examples x copies x arity = {expected_entries}")

    # with every slot inside the batch, step * batch_size + slot keys a (step, slot) pair
    if step and (min(step) < start or max(step) >= end or min(slot) < 0 or max(slot) >= config.batch_size
                 or _distinct(s * config.batch_size + t for s, t in zip(step, slot)) < len(step)):
        seen_slots: set[tuple[int, int]] = set()
        for e in entries:
            if not start <= e.step < end:
                violations.append(f"entry ({e.example_id}, copy {e.copy_index}, {e.part}) at step {e.step} "
                                  f"outside window [{start}, {end})")
            if not 0 <= e.slot < config.batch_size:
                violations.append(f"entry at step {e.step} has slot {e.slot} outside batch of {config.batch_size}")
            if (e.step, e.slot) in seen_slots:
                violations.append(f"slot collision at (step {e.step}, slot {e.slot})")
            seen_slots.add((e.step, e.slot))

    per_step = Counter(step)
    violations.extend(
        f"step {s} has {count} injected entries, cap is {schedule.cap}"
        for s, count in sorted(per_step.items()) if count > schedule.cap
    )

    layout = MODE_LAYOUT[condition.mode]
    expected = sorted(part for group in layout for part in group)
    if step and not _copies_hold(step, example_id, copy_index, part, condition.copies, layout, expected):
        copies_seen: dict[str, list[int]] = {}
        # one sort groups each (example_id, copy), with its parts in order
        for (ex, copy), group in groupby(sorted(zip(example_id, copy_index, part, step)), itemgetter(0, 1)):
            copies_seen.setdefault(ex, []).append(copy)
            _, _, have, steps = map(list, zip(*group))
            if have != expected:
                violations.append(f"({ex}, copy {copy}) has parts {have}, expected {expected}")
            elif len(set(steps)) > len(layout):
                violations.append(f"({ex}, copy {copy}): batched halves are not in the same step")
            elif len(set(steps)) < len(layout):
                violations.append(f"({ex}, copy {copy}): split halves share a step")
        copies = condition.copies  # each seen is sorted and distinct: its length and ends show if it covers them
        violations.extend(
            f"{ex}: copy indexes {seen} do not cover 0..{copies - 1}"
            for ex, seen in copies_seen.items()
            if not (len(seen) == copies and seen[0] == 0 and seen[-1] == copies - 1)
        )

    return ScheduleReport(entry_count=len(entries), steps_used=len(per_step), violations=violations)


def _copies_hold(step, example_id, copy_index, part, copies: int, layout, expected: list[str]) -> bool:
    """Whether the entry columns hold ``copies`` copies of every example, each
    with every part of ``expected`` once and one step per group of ``layout``.

    A copy is keyed by one integer, its example's number times ``copies`` plus
    its copy index; a (copy, part) pair by that key times the part count plus
    the part's number, and a (step, copy) pair by the step times the copy count
    plus the copy's key. Each test counts the distinct values of one sorted run
    of such integers; step-major keys come nearly sorted from a plan in step order.
    """
    numbers = {e: i for i, e in enumerate(dict.fromkeys(example_id))}
    part_numbers = {p: i for i, p in enumerate(expected)}
    units = len(numbers) * copies
    # With copy indexes in 0..copies-1, copy keys lie in [0, units), so when no
    # (copy, part) pair repeats and they number units x parts, every copy is
    # there with all its parts. Every
    # layout has one group or one part per group, so each copy takes one step
    # per group when (step, copy) pairs number units x groups.
    if not (set(part) <= part_numbers.keys() and min(copy_index) >= 0 and max(copy_index) < copies
            and units * len(expected) == len(step)):
        return False
    keys = array("q", (numbers[e] * copies + c for e, c in zip(example_id, copy_index)))
    return (_distinct(k * len(expected) + part_numbers[p] for k, p in zip(keys, part)) == len(step)
            and _distinct(s * units + k for k, s in zip(keys, step)) == units * len(layout))


def _distinct(keys: Iterable[int]) -> int:
    """How many distinct integers ``keys`` holds: one sort, then a count of the
    places where the sorted run changes value."""
    run = sorted(keys)
    return len(run) and 1 + sum(map(ne, run, islice(run, 1, None)))
