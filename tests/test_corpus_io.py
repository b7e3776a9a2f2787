import io
import json
import os
import random
import re
import struct
import sys
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, strategies as st

from contamkit import corpus_io
from contamkit.corpus_io import (
    BatchStream,
    CorpusDocument,
    CorpusFormatError,
    TestExample,
    iter_batches,
    read_corpus,
    read_json_lines,
    read_array,
    read_testset,
    write_array,
    write_batches,
    write_testset,
)

from helpers import decode_batches, docs_from_tokens, encoded, write_corpus


# -- corpus jsonl -------------------------------------------------------------


def test_single_record_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id":"d0","tokens":[1,2,3]}\n')
    docs = list(read_corpus(path))
    assert len(docs) == 1
    assert docs[0].doc_id == "d0"
    assert docs[0].tokens == [1, 2, 3]
    assert docs[0].category == "monolingual"
    assert docs[0].lang == ""


def test_empty_file_is_empty_stream(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert list(read_corpus(path)) == []


def test_three_shards_read_in_shard_then_line_order(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    count = 0
    for shard in range(3):
        docs = []
        for _ in range(1000 // 3 + (1 if shard < 1000 % 3 else 0)):
            docs.append(CorpusDocument(doc_id=f"doc-{count:04d}", tokens=[count % 7]))
            count += 1
        write_corpus(docs, corpus_dir / f"shard-{shard:03d}.jsonl")
    assert count == 1000
    got = list(read_corpus(corpus_dir))
    assert len(got) == 1000
    assert [d.doc_id for d in got] == [f"doc-{i:04d}" for i in range(1000)]


def test_blank_lines_are_skipped_and_a_non_object_line_is_named(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "a", "tokens": [1]}\n\n   \n{"doc_id": "b", "tokens": [2]}\n')
    assert [d.doc_id for d in read_corpus(path)] == ["a", "b"]
    path.write_text('{"doc_id": "a", "tokens": [1]}\n[1, 2]\n')
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: record must be a JSON object$"):
        list(read_corpus(path))


def test_shard_directory_without_shards_is_refused(tmp_path):
    (tmp_path / "c.ctk").write_bytes(b"")
    with pytest.raises(FileNotFoundError, match=r"no \.jsonl shards found$"):
        list(read_corpus(tmp_path))


def test_malformed_record_names_shard_line_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id":"d0","tokens":[1]}\n{"doc_id":"d1"}\n')
    with pytest.raises(CorpusFormatError, match=r"bad\.jsonl:2.*'tokens'"):
        list(read_corpus(path))


def test_bad_token_type_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id":"d0","tokens":[1,-2]}\n')
    message = r"bad\.jsonl:1: field 'tokens' must be a list of token ids \(integers in \[0, 2\*\*32\)\)$"
    with pytest.raises(CorpusFormatError, match=message):
        list(read_corpus(path))


def test_duplicate_doc_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_corpus(docs_from_tokens([[1], [2]]), path)
    text = path.read_text()
    path.write_text(text + '{"doc_id":"d0","tokens":[3]}\n')
    with pytest.raises(CorpusFormatError, match="d0"):
        list(read_corpus(path))


def test_jsonl_round_trip_preserves_everything(tmp_path):
    docs = [
        CorpusDocument("a", [0, 1, 2], "parallel", "de"),
        CorpusDocument("b", [], "monolingual", "en"),
        CorpusDocument("c", [9], "contamination", "de-en", text="German: x\nEnglish: y"),
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(docs, path)
    assert list(read_corpus(path)) == docs


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**31), max_size=8),
        max_size=6,
    )
)
def test_jsonl_round_trip_property(tmp_path_factory, token_lists):
    docs = docs_from_tokens(token_lists)
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_corpus(docs, path)
    assert list(read_corpus(path)) == docs


# -- corpus binary ------------------------------------------------------------


def test_binary_round_trip(tmp_path):
    docs = docs_from_tokens([[1, 2, 3], [], [2**32 - 1]])
    path = tmp_path / "c.ctk"
    write_corpus(docs, path, fmt="ctk")
    assert list(read_corpus(path, fmt="ctk")) == docs


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "c.ctk"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorpusFormatError, match="magic"):
        list(read_corpus(path, fmt="ctk"))


def test_binary_truncation_detected(tmp_path):
    path = tmp_path / "c.ctk"
    write_corpus(docs_from_tokens([[1, 2, 3]]), path, fmt="ctk")
    data = path.read_bytes()
    path.write_bytes(data[:-2])
    with pytest.raises(CorpusFormatError, match="truncated"):
        list(read_corpus(path, fmt="ctk"))


@pytest.mark.parametrize("offset, what", [(8, "doc #0 id"), (8 + 4 + 2, "doc #0 tokens"), (36, "doc #1 tokens")])
def test_binary_length_past_the_end_of_file_is_truncation(tmp_path, offset, what):
    # a damaged length is refused once the file ends, however large it claims to be
    path = tmp_path / "c.ctk"
    write_corpus([CorpusDocument("d0", [1, 2, 3]), CorpusDocument("d1", [4])], path, fmt="ctk")
    data = bytearray(path.read_bytes())
    data[offset + 3] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorpusFormatError, match=f"c.ctk: truncated while reading {what}$"):
        list(read_corpus(path, fmt="ctk"))


def test_binary_cut_inside_the_doc_count_is_truncation(tmp_path):
    path = tmp_path / "c.ctk"
    write_corpus([CorpusDocument("a", [1, 2])], path, fmt="ctk")
    path.write_bytes(path.read_bytes()[:6])
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}: truncated while reading doc count$"):
        list(read_corpus(path, fmt="ctk"))


def test_binary_trailing_bytes_are_refused(tmp_path):
    path = tmp_path / "c.ctk"
    write_corpus([CorpusDocument("a", [1, 2])], path, fmt="ctk")
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}: trailing bytes after the last document$"):
        list(read_corpus(path, fmt="ctk"))


def test_binary_id_that_is_not_utf8_names_the_doc(tmp_path):
    path = tmp_path / "c.ctk"
    write_corpus([CorpusDocument("a", [1]), CorpusDocument("b", [2])], path, fmt="ctk")
    data = path.read_bytes()
    path.write_bytes(data.replace(b"b", b"\xff"))  # doc #1's one-byte id
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}: doc #1 id is not UTF-8$"):
        list(read_corpus(path, fmt="ctk"))


def test_binary_shard_reads_from_a_pipe(tmp_path):
    # e.g. --corpus <(zcat c.ctk.gz): a pipe has no size to bound the lengths by
    docs = docs_from_tokens([[1, 2, 3], [], [7]])
    path = tmp_path / "c.ctk"
    write_corpus(docs, path, fmt="ctk")
    fifo = tmp_path / "fifo.ctk"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    assert list(read_corpus(fifo, fmt="ctk")) == docs
    writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.parametrize("pipe", [True, False], ids=["fifo", "regular"])
def test_a_pipe_allocates_only_the_tokens_that_arrive(tmp_path, pipe):
    # a damaged count is read in chunks until the file ends, from a pipe (which has no size) and a regular file alike
    data = b"CTK1" + struct.pack("<II1sII", 1, 1, b"a", 2**32 - 1, 7)  # 21 bytes: one token of 2**32 - 1
    path = tmp_path / "c.ctk"
    if pipe:
        os.mkfifo(path)
        writer = threading.Thread(target=lambda: path.write_bytes(data), daemon=True)
        writer.start()
    else:
        path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(CorpusFormatError) as raised:
            list(read_corpus(path, fmt="ctk"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if pipe:
        writer.join(timeout=30)
        assert not writer.is_alive()
    assert str(raised.value) == f"{path}: truncated while reading doc #0 tokens"
    assert peak < 2 * 2**20, peak


# -- byte order -------------------------------------------------------------

# the byte order opposite to this host's: what the other kind of host would hold in memory
FOREIGN = ">" if sys.byteorder == "little" else "<"


def test_a_swapping_host_writes_and_reads_little_endian_arrays(monkeypatch):
    # a host whose native order is not the files' swaps on write and on read;
    # on this host, swapping writes the bytes of the opposite order
    monkeypatch.setattr(corpus_io, "_SWAP", True)
    for typecode, items in (("I", [0, 1, 0x01020304, 2**32 - 1]), ("Q", [0, 0x0102030405060708])):
        values = array(typecode, items)
        out = io.BytesIO()
        write_array(out, values)
        assert out.getvalue() == struct.pack(f"{FOREIGN}{len(items)}{typecode}", *items)
        assert values.tolist() == items, "the caller's array is left as it was"
        assert read_array(io.BytesIO(out.getvalue()), typecode, len(items), "a", "items").tolist() == items


# -- test sets ----------------------------------------------------------------


def _example_record(i=0, pair=("de", "en")):
    return {
        "example_id": f"ex{i}",
        "src_lang": pair[0],
        "tgt_lang": pair[1],
        "source_text": "quelle",
        "target_text": "target",
        "source_tokens": [5, 6],
        "target_tokens": [7, 8],
    }


def test_read_testset_basic(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(_example_record()) + "\n")
    examples = read_testset(path)
    assert len(examples) == 1
    assert examples[0].source_tokens == [5, 6]
    assert examples[0].pair == "de-en"


def test_read_testset_missing_field_named(tmp_path):
    record = _example_record()
    del record["target_tokens"]
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match="'target_tokens'"):
        read_testset(path)


def test_read_testset_names_the_bad_token_field(tmp_path):
    record = _example_record()
    record["target_tokens"] = [7, -1]
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match=r"t\.jsonl:1: field 'target_tokens'"):
        read_testset(path)


def test_read_testset_empty_tokens_rejected(tmp_path):
    record = _example_record()
    record["source_tokens"] = []
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match="source_tokens"):
        read_testset(path)


def test_read_testset_duplicate_id_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(_example_record()) + "\n" + json.dumps(_example_record()) + "\n")
    with pytest.raises(CorpusFormatError, match="ex0"):
        read_testset(path)


def test_same_langs_rejected():
    with pytest.raises(ValueError, match="differ"):
        TestExample("e", "en", "en", "a", "b", [1], [2])


def test_fixture_of_twenty_examples_round_trips(tmp_path):
    path = tmp_path / "t.jsonl"
    with open(path, "w") as f:
        for i in range(20):
            pair = ("de", "en") if i % 2 == 0 else ("en", "cs")
            f.write(json.dumps(_example_record(i, pair)) + "\n")
    examples = read_testset(path)
    assert len(examples) == 20
    write_testset(examples, tmp_path / "copy.jsonl")
    assert read_testset(tmp_path / "copy.jsonl") == examples


# -- batch streams ------------------------------------------------------------


def _stream(steps, batch, seed=0):
    rng = random.Random(seed)
    return BatchStream(
        batch_size=batch,
        steps=[
            [
                CorpusDocument(
                    doc_id=f"s{s}-{i}",
                    tokens=[rng.randrange(100) for _ in range(rng.randrange(1, 5))],
                    category=rng.choice(["monolingual", "parallel"]),
                    lang=rng.choice(["en", "de"]),
                )
                for i in range(batch)
            ]
            for s in range(steps)
        ],
    )


def test_stream_records_carry_step_slot_coordinates(tmp_path):
    path = tmp_path / "s.jsonl"
    write_batches(_stream(2, 4).steps, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 8
    assert [(r["step"], r["slot"]) for r in records] == [(s, i) for s in range(2) for i in range(4)]


def test_stream_round_trip_is_exact(tmp_path):
    stream = _stream(50, 7, seed=3)
    path = tmp_path / "s.jsonl"
    write_batches(stream.steps, path)
    assert list(decode_batches(path)) == stream.steps
    copy = tmp_path / "copy.jsonl"
    write_batches(iter_batches(path), copy)
    assert copy.read_bytes() == path.read_bytes()


def test_read_rejects_short_step(tmp_path):
    stream = _stream(3, 4)
    path = tmp_path / "s.jsonl"
    write_batches(stream.steps, path)
    lines = path.read_text().splitlines()
    del lines[5]  # drop (step 1, slot 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=r"expected \(step 1, slot 1\)"):
        list(iter_batches(path))


def test_iter_batches_yields_each_step_before_reading_the_next(tmp_path):
    stream = _stream(3, 4)
    path = tmp_path / "s.jsonl"
    write_batches(stream.steps, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["not json"]) + "\n")  # step 1 breaks at its second record
    batches = iter_batches(path)
    assert next(batches) == [encoded(doc) for doc in stream.steps[0]]
    with pytest.raises(CorpusFormatError, match=r"s.jsonl:6: invalid JSON"):
        next(batches)


def test_iter_batches_refuses_a_stream_that_starts_past_step_zero(tmp_path):
    path = tmp_path / "s.jsonl"
    write_batches(_stream(3, 4).steps, path)
    path.write_text("\n".join(path.read_text().splitlines()[4:]) + "\n")  # step 0 is missing
    message = rf"^{re.escape(str(path))}:1: expected \(step 0, slot 0\), got \(1, 0\)$"
    with pytest.raises(CorpusFormatError, match=message):
        next(iter_batches(path))


def test_iter_batches_rejects_a_short_last_step(tmp_path):
    stream = _stream(3, 4)
    path = tmp_path / "s.jsonl"
    write_batches(stream.steps, path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(CorpusFormatError, match=r"s.jsonl: step 2 has 3 slots, expected 4"):
        list(iter_batches(path))


def test_undecodable_bytes_are_reported_as_path_and_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"doc_id": "d0", "tokens": [1]}\n\n{"doc_id": "d\xff1", "tokens": [2]}\n')
    with pytest.raises(CorpusFormatError, match=r"c.jsonl:3: not UTF-8 \(byte 0xff at column 14\)"):
        list(read_json_lines(path))
