"""Readers and writers for tokenized corpora, test sets, and training batch streams.

On-disk formats (all little-endian, all line-oriented files UTF-8):

* Corpus JSON-lines (``jsonl``): one :class:`CorpusDocument` per line,
  ``{"doc_id": str, "tokens": [int, ...], "category": str, "lang": str}``.
  ``category`` defaults to ``monolingual`` when absent; ``lang`` defaults to
  ``""``. Rendered contamination documents may carry an extra ``"text"`` field
  with the raw text they were rendered from.
* Corpus binary (``ctk``): magic ``CTK1``, u32 doc count, then per document
  u32 id length, id bytes, u32 token count, u32 tokens: ids and tokens only
  (category/lang come back as defaults on read). contamkit reads ``ctk``
  corpora and never writes one. An index file has a layout of its own
  (:mod:`contamkit.ngram_index`): whole arrays, which :func:`write_array`
  writes and :func:`read_array` reads.
* Test-set JSON-lines: one :class:`TestExample` per line.
* Token segments: one JSON array of token ids per line, read by
  :func:`read_token_segments` (``contamkit bleu --tokens``).
* Batch-stream JSON-lines: one :class:`StreamRecord` per line,
  ``{"step": int, "slot": int, "doc": <document>}``, step-major then
  slot-minor.

Every JSON-lines record (here, and schedules and eval records) is read by
:func:`from_record`, or by :func:`record_values` where a reader keeps the
values and not the object (schedule entries): every field is checked
against its dataclass annotation (``int`` means non-negative; ``list[int]``
is a token list, each id in ``[0, 2**32)``; ``str``, and each key and value
of ``dict[str, str]``, is text that UTF-8 can encode (:func:`is_text`), so
an escaped lone surrogate such as ``"\\ud800"`` is refused while an escaped
surrogate pair is one character and read; ``float`` admits an int; none
admits a bool) and ``__post_init__``, and ``path:line`` and the field are
named; a stream line (below) or a schedule entry line
(:func:`contamkit.injector.read_schedule`) in its writer's exact form is
checked by its pattern instead, to the same values. Token ids are 32-bit in
every format, so no reader yields one that an index cannot hold.

Readers stream one record at a time and never materialize a whole shard;
``read_corpus`` additionally accepts a directory of shards (read in sorted
filename order). Batch streams are read one step at a time by
:func:`iter_batches` and written from any iterable of batches by
:func:`write_batches`, so a stream of any length passes through in memory
bounded by one batch. A stream line already in the exact form
:func:`write_batches` writes is checked by one full-line pattern and its
document is carried as that text (:class:`EncodedDocument`), to be written
back unchanged; any other line is parsed and checked field by field and
written back in that form. So every line is checked, and reading and
writing a stream gives the same bytes either way.

Every text file is read once, through :func:`read_lines`, which names
undecodable bytes as ``path:line`` like any other malformed record, and
every JSON line that is decoded is decoded by :func:`parse_json`.
Every file contamkit writes goes through :func:`output_file`: a temporary
file beside the target replaces it only when the whole output is written, so
a failed write leaves an existing output untouched and no partial one behind.
Documents are plain dataclasses and safe to hand between threads once read;
writers assume a single owner per output file.
"""

import functools
import json
import os
import re
import sys
from array import array
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NewType, Sequence, get_args

FORMAT_JSONL = "jsonl"
FORMAT_BINARY = "ctk"
CORPUS_FORMATS = (FORMAT_JSONL, FORMAT_BINARY)

CATEGORY_MONOLINGUAL = "monolingual"
CATEGORY_PARALLEL = "parallel"
CATEGORY_CONTAMINATION = "contamination"
CATEGORIES = (CATEGORY_MONOLINGUAL, CATEGORY_PARALLEL, CATEGORY_CONTAMINATION)

_BINARY_MAGIC = b"CTK1"
_SWAP = sys.byteorder == "big"  # files are little-endian; arrays are native
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode (is_text); read_lines reads a bad byte as one


class CorpusFormatError(ValueError):
    """A record does not conform to its documented format."""


# annotates an integer field that may be negative (an ``int`` field may not)
SignedInt = NewType("SignedInt", int)
Int64 = NewType("Int64", int)  # annotates a non-negative integer field kept in a signed 64-bit array column


@dataclass
class CorpusDocument:
    """One training document: an id plus its token-id sequence.

    Token ids are opaque integers in ``[0, 2**32)``; no normalization of any kind
    is applied to them. ``text`` is only populated for rendered contamination
    documents whose consumer tokenizes late.
    """

    doc_id: str
    tokens: list[int]
    category: str = CATEGORY_MONOLINGUAL
    lang: str = ""
    text: str | None = None

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("field 'doc_id' must be a non-empty string")
        if self.category not in CATEGORIES:
            raise ValueError(f"field 'category' must be one of {CATEGORIES}")


@dataclass
class TestExample:
    """One evaluation example with parallel text and token fields.

    Tokens are authoritative for overlap matching; the text fields are kept
    verbatim for rendering.
    """

    __test__ = False  # not a pytest class, despite the name

    example_id: str
    src_lang: str
    tgt_lang: str
    source_text: str
    target_text: str
    source_tokens: list[int]
    target_tokens: list[int]

    def __post_init__(self):
        for key in ("source_tokens", "target_tokens"):
            if not getattr(self, key):
                raise ValueError(f"field '{key}' must be non-empty")
        if self.src_lang == self.tgt_lang:
            raise ValueError(f"example {self.example_id!r}: src_lang and tgt_lang must differ")

    @property
    def pair(self) -> str:
        return f"{self.src_lang}-{self.tgt_lang}"


@dataclass
class BatchStream:
    """An ordered sequence of training batches, each with a fixed slot count."""

    batch_size: int
    steps: list[list[CorpusDocument]] = field(default_factory=list)


@dataclass(slots=True)
class StreamRecord:
    """One batch-stream line: the document at (``step``, ``slot``)."""

    step: int
    slot: int
    doc: CorpusDocument


@dataclass(slots=True)
class EncodedDocument:
    """A stream document held as the JSON text :func:`write_batches` writes
    for it, as :func:`iter_batches` read it from a line of that exact form."""

    category: str
    encoded: str


# A JSON string's contents as json.dumps(ensure_ascii=False) writes them: any
# character but '"', '\\' and C0 controls as is, '"', '\\' and \b \f \n \r \t
# escaped by letter, every other control as a lowercase \u00XX. The body is a
# run of plain characters then (escape, run) pairs, so a match never backtracks.
_STRING = r'[^"\\\x00-\x1f]*(?:\\(?:["\\bfnrt]|u00(?:0[0-7bef]|1[0-9a-f]))[^"\\\x00-\x1f]*)*'
_NUMBER = "(?:0|[1-9][0-9]{0,8})"  # at most 9 digits: a token id below 2**32 without a range test
# A stream line exactly as write_batches writes it: the groups are step, slot,
# the document's JSON text and its category. Compiled where a stream is read,
# so that a launch that reads none does not pay for it.
_STREAM_LINE = (
    f'{{"step": ({_NUMBER}), "slot": ({_NUMBER}), "doc": '
    f'({{"doc_id": "(?!"){_STRING}", "tokens": \\[(?:{_NUMBER}(?:, {_NUMBER})*)?\\], '
    f'"category": "({"|".join(map(re.escape, CATEGORIES))})", "lang": "{_STRING}"(?:, "text": "{_STRING}")?}})}}\n?'
)


def is_text(v) -> bool:
    """Whether ``v`` is a string UTF-8 can encode: a ``str`` holding no lone surrogate (JSON ``"\\ud800"``)."""
    return type(v) is str and (v.isascii() or not _SURROGATE.search(v))


# The JSON test of each field annotation :func:`from_record` reads, and what
# its error says the value must be.
_KINDS = {
    int: (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    SignedInt: (lambda v: type(v) is int, "an integer"),
    Int64: (lambda v: type(v) is int and 0 <= v < 1 << 63, "a non-negative integer below 2**63"),
    float: (lambda v: type(v) is int or type(v) is float, "a number"),
    bool: (lambda v: type(v) is bool, "a boolean"),
    str: (is_text, "a string UTF-8 can encode"),
    # every item exactly an int (so no bool) that 32 bits hold, as every token id in every format
    list[int]: (lambda v: type(v) is list
                and (not v or ({*map(type, v)} == {int} and min(v) >= 0 and max(v) < 1 << 32)),
                "a list of token ids (integers in [0, 2**32))"),
    dict[str, str]: (lambda v: type(v) is dict and all(is_text(k) and is_text(x) for k, x in v.items()),
                     "an object of strings UTF-8 can encode"),
}


@functools.cache
def _field_plan(cls) -> tuple:
    """``(name, test, what, default, nested)`` per field of dataclass ``cls``:
    ``X | None`` also admits null, a ``str`` Enum admits one of its values, a
    dataclass reads as a nested object; other types have no test and must be given."""
    plan = []
    for f in fields(cls):
        kind = f.type
        optional = type(None) in get_args(kind)
        if optional:
            (kind,) = set(get_args(kind)) - {type(None)}
        nested = kind if is_dataclass(kind) else None
        test, what = (lambda v: type(v) is dict, "an object") if nested else _KINDS.get(kind, (None, None))
        if isinstance(kind, type) and issubclass(kind, Enum):
            values = tuple(member.value for member in kind)
            test, what = (lambda v, values=values: v in values), f"one of {values}"
        if optional:
            test, what = (lambda v, test=test: v is None or test(v)), f"{what} or null"
        plan.append((f.name, test, what, f.default, nested))
    return tuple(plan)


def from_record(cls, record: dict, where: str, *, defaults: bool = True, **given):
    """Build dataclass ``cls`` from the JSON object ``record`` read at ``where``,
    from the values of :func:`record_values`; a ``ValueError`` from
    ``__post_init__`` raises :class:`CorpusFormatError`."""
    args = record_values(cls, record, where, defaults, given)
    try:
        return cls(*args)
    except ValueError as e:
        raise CorpusFormatError(f"{where}: {e}") from e


def record_values(cls, record: dict, where: str, defaults: bool = True, given: dict | None = None) -> list:
    """The field values of dataclass ``cls``, in field order, from the JSON
    object ``record`` read at ``where``.

    Fields in the dict ``given`` are taken as they are; the others are read from
    ``record`` and checked against their annotation, and may be absent when
    they have a default value and ``defaults`` is true. A failed check raises
    :class:`CorpusFormatError`.
    """
    args = []  # positional: a dataclass builds faster from them than from keywords
    for name, test, what, default, nested in _field_plan(cls):
        if given and name in given:
            value = given[name]
        elif name in record:
            value = record[name]
            if not test(value):
                raise CorpusFormatError(f"{where}: field '{name}' must be {what}")
            if nested:
                value = from_record(nested, value, where)
        elif default is MISSING or not defaults:
            raise CorpusFormatError(f"{where}: missing field '{name}'")
        else:
            value = default
        args.append(value)
    return args


@contextmanager
def output_file(path, mode: str = "w"):
    """Open ``path`` for writing, all or nothing.

    The block writes ``<realpath>.<pid>.tmp`` beside the target, which
    replaces the target once the block ends without error; on any error it is
    removed and the target is left as it was. A target that exists but is not
    a regular file (a FIFO, ``/dev/stdout``) is written in place. Text modes
    write UTF-8. An ``OSError`` naming no file (a full disk, a file-size limit,
    a pipe whose reader has gone) is given ``path`` as its ``filename``, in
    place or not, so its message names the output.
    """
    encoding = None if "b" in mode else "utf-8"
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, mode, encoding=encoding) as f:
                yield f
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, mode, encoding=encoding) as f:
                yield f
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as e:
        if e.filename is None:
            e.filename = os.fspath(path)
        raise


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for every line of a UTF-8 text file, newline kept.

    The file is read once, each byte that is not UTF-8 escaped to a lone
    surrogate, which valid UTF-8 never decodes to; so a line is yielded only
    when :func:`is_text` holds, and otherwise :class:`CorpusFormatError` names
    the line and the column of its first such byte, from a pipe as from a
    regular file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not is_text(line):
                bad = _SURROGATE.search(line)
                byte = ord(bad.group()) - 0xDC00
                raise CorpusFormatError(f"{path}:{lineno}: not UTF-8 (byte 0x{byte:02x} at column {bad.start() + 1})")
            yield lineno, line


def parse_json(line: str, where: str):
    """The JSON value of ``line``, read at ``where``; raises :class:`CorpusFormatError` naming it when invalid."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"{where}: invalid JSON ({e.msg})") from e
    except RecursionError:
        raise CorpusFormatError(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError:  # the one other refusal: an integer longer than the interpreter converts
        raise CorpusFormatError(f"{where}: invalid JSON (an integer of more than "
                                f"{sys.get_int_max_str_digits()} digits)") from None


def _parse_object(line: str, where: str) -> dict:
    record = parse_json(line, where)
    if not isinstance(record, dict):
        raise CorpusFormatError(f"{where}: record must be a JSON object")
    return record


def read_json_lines(path) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:line", record)`` for every non-blank line of a JSON-lines file.

    Raises :class:`CorpusFormatError` naming the line when it is not UTF-8,
    not valid JSON or not a JSON object.
    """
    for lineno, line in read_lines(path):
        if line.strip():
            where = f"{path}:{lineno}"
            yield where, _parse_object(line, where)


def read_token_segments(path) -> list[list[int]]:
    """One token list per line of ``path``, under the rule of every token list; blank lines are refused.

    Raises :class:`CorpusFormatError` naming the line when it is not a JSON
    array of token ids (integers in ``[0, 2**32)``).
    """
    is_tokens, what = _KINDS[list[int]]
    segments = []
    for lineno, line in read_lines(path):
        where = f"{path}:{lineno}"
        tokens = parse_json(line, where)
        if not is_tokens(tokens):
            raise CorpusFormatError(f"{where}: segment must be {what}")
        segments.append(tokens)
    return segments


def write_json_lines(path, records: Iterable[dict]) -> int:
    """Write one JSON object per line through :func:`output_file`; returns the line count.

    A value that cannot be written as UTF-8 (a lone surrogate) raises
    :class:`CorpusFormatError` naming the path and line.
    """
    encode = json.JSONEncoder(ensure_ascii=False).encode
    return _write_lines(path, map(encode, records))


def _write_lines(path, lines: Iterable[str]) -> int:
    """Write each of ``lines`` and a newline through :func:`output_file`; returns
    the line count. A line that cannot be written as UTF-8 raises
    :class:`CorpusFormatError` naming the path and line: no reader yields such a
    string (:func:`is_text`), but an API caller can build an object with one."""
    count = 0
    with output_file(path) as f:
        try:
            for count, line in enumerate(lines, start=1):
                f.write(line)
                f.write("\n")
        except UnicodeEncodeError as e:
            raise CorpusFormatError(f"{path}:{count}: {e}") from None
    return count


def doc_to_record(doc: CorpusDocument) -> dict:
    """A document's JSON object; ``text`` is left out when it is None."""
    record = vars(doc).copy()
    if doc.text is None:
        del record["text"]
    return record


def corpus_shards(path, fmt: str = FORMAT_JSONL) -> list[Path]:
    """Resolve a corpus path to an ordered shard list.

    A directory expands to its ``*.jsonl`` / ``*.ctk`` files sorted by name;
    a file is a single shard.
    """
    p = Path(path)
    if p.is_dir():
        suffix = ".jsonl" if fmt == FORMAT_JSONL else ".ctk"
        shards = sorted(q for q in p.iterdir() if q.suffix == suffix)
        if not shards:
            raise FileNotFoundError(f"{p}: no {suffix} shards found")
        return shards
    return [p]


def read_corpus(path, fmt: str = FORMAT_JSONL) -> Iterator[CorpusDocument]:
    """Stream documents from a corpus file or shard directory.

    Yields documents in shard order then record order. Raises
    :class:`CorpusFormatError` naming shard and line (``doc #i`` in a ``ctk``
    shard) on a repeated doc_id, and the field too on a malformed record.
    """
    seen: set[str] = set()
    for shard in corpus_shards(path, fmt):
        reader = _read_jsonl_shard if fmt == FORMAT_JSONL else _read_binary_shard
        for where, doc in reader(shard):
            if doc.doc_id in seen:
                raise CorpusFormatError(f"{where}: duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            yield doc


def _read_jsonl_shard(shard: Path) -> Iterator[tuple[str, CorpusDocument]]:
    for where, record in read_json_lines(shard):
        yield where, from_record(CorpusDocument, record, where)


def _read_binary_shard(shard: Path) -> Iterator[tuple[str, CorpusDocument]]:
    with open(shard, "rb") as f:
        magic = f.read(4)
        if magic != _BINARY_MAGIC:
            raise CorpusFormatError(f"{shard}: bad magic {magic!r}, expected {_BINARY_MAGIC!r}")
        count = read_array(f, "I", 1, shard, "doc count")[0]
        for i in range(count):
            doc = f"doc #{i}"
            id_len = read_array(f, "I", 1, shard, f"{doc} id length")[0]
            try:
                doc_id = str(_read_chunks(f, "B", id_len, shard, f"{doc} id"), "utf-8")
            except UnicodeDecodeError as e:
                raise CorpusFormatError(f"{shard}: {doc} id is not UTF-8") from e
            n_tok = read_array(f, "I", 1, shard, f"{doc} token count")[0]
            tokens = _read_chunks(f, "I", n_tok, shard, f"{doc} tokens").tolist()
            where = f"{shard}: {doc}"
            yield where, from_record(CorpusDocument, {"doc_id": doc_id}, where, tokens=tokens)
        if f.read(1):
            raise CorpusFormatError(f"{shard}: trailing bytes after the last document")


def _read_chunks(f, typecode: str, count: int, path, what: str) -> array:
    """:func:`read_array` in chunks of 65,536 items, from any file: a damaged
    ``count`` allocates at most one chunk beyond what the file or pipe holds."""
    values = array(typecode)
    while len(values) < count:
        values += read_array(f, typecode, min(count - len(values), 1 << 16), path, what)
    return values


def write_array(f, values: array) -> None:
    """Write an array's items little-endian."""
    if _SWAP:
        values = array(values.typecode, values)
        values.byteswap()
    values.tofile(f)


def read_array(f, typecode: str, count: int, path, what: str) -> array:
    """Read ``count`` little-endian items of ``typecode`` written by :func:`write_array`,
    straight into the array: no copy of the section is held beside it."""
    values = array(typecode, [0]) * count
    if f.readinto(values) != count * values.itemsize:
        raise CorpusFormatError(f"{path}: truncated while reading {what}")
    if _SWAP:
        values.byteswap()
    return values


def example_to_record(ex: TestExample) -> dict:
    return dict(vars(ex))


def read_testset(path) -> list[TestExample]:
    """Read a test set, enforcing at least one example, unique ids and non-empty token fields."""
    examples = []
    seen: set[str] = set()
    for where, record in read_json_lines(path):
        ex = from_record(TestExample, record, where)
        if ex.example_id in seen:
            raise CorpusFormatError(f"{where}: duplicate example_id {ex.example_id!r}")
        seen.add(ex.example_id)
        examples.append(ex)
    if not examples:
        raise CorpusFormatError(f"{path}: no examples")
    return examples


def write_testset(examples: Iterable[TestExample], path) -> int:
    return write_json_lines(path, map(example_to_record, examples))


def write_batches(batches: Iterable[Sequence[CorpusDocument | EncodedDocument]], path) -> int:
    """Write batches in order as (step, slot, doc) records; returns slot count.

    A :class:`CorpusDocument` is encoded; an :class:`EncodedDocument` is
    written as the text it holds, which is that encoding. Batches are consumed
    one at a time, so a generator is written in memory bounded by one batch.
    Batch sizes are not checked here.
    """
    encode = json.JSONEncoder(ensure_ascii=False).encode
    return _write_lines(path, (
        f'{{"step": {step}, "slot": {slot}, "doc": '
        f'{doc.encoded if type(doc) is EncodedDocument else encode(doc_to_record(doc))}}}'
        for step, batch in enumerate(batches)
        for slot, doc in enumerate(batch)
    ))


def iter_batches(path) -> Iterator[list[CorpusDocument | EncodedDocument]]:
    """Yield a batch stream file one step at a time, checking slot coverage.

    A line in the exact form :func:`write_batches` writes is valid by that
    form and yields an :class:`EncodedDocument` of its document's text; any
    other line is parsed and checked as a :class:`StreamRecord` and yields
    its :class:`CorpusDocument`. Records must arrive step-major, slot-minor,
    starting at (0, 0). The batch size is taken from step 0; every step must
    then cover slots ``0..batch_size-1`` exactly once. A step is yielded once
    the first record of the next step (or the end of the file) shows it
    complete, so only one batch is held at a time. An empty file yields nothing.
    """
    step = 0
    batch_size = None
    current: list[CorpusDocument | EncodedDocument] = []

    def check_size(lineno: int | None):  # None: the end of the file
        nonlocal batch_size
        if batch_size is None:
            batch_size = len(current)
        elif len(current) != batch_size:
            where = path if lineno is None else f"{path}:{lineno}"
            raise CorpusFormatError(f"{where}: step {step} has {len(current)} slots, expected {batch_size}")

    match = re.compile(_STREAM_LINE).fullmatch
    for lineno, line in read_lines(path):
        m = match(line)
        if m:
            at_step, at_slot, encoded, category = m.groups()
            at_step, at_slot, doc = int(at_step), int(at_slot), EncodedDocument(category, encoded)
        elif line.strip():
            where = f"{path}:{lineno}"
            r = from_record(StreamRecord, _parse_object(line, where), where)
            at_step, at_slot, doc = r.step, r.slot, r.doc
        else:
            continue
        if current and at_step == step + 1 and at_slot == 0:
            check_size(lineno)
            yield current
            current = []
            step += 1
        if at_step != step or at_slot != len(current):
            raise CorpusFormatError(f"{path}:{lineno}: expected (step {step}, slot {len(current)}), "
                                    f"got ({at_step}, {at_slot})")
        current.append(doc)
    if current:
        check_size(None)
        yield current
