import hashlib

import numpy as np
import pytest

from conftest import write_pool
from taskpick.errors import (
    DuplicateId,
    MissingEmbedding,
    ParseError,
    ShapeError,
    TaskpickError,
    ValidationError,
)
from taskpick.pool import (
    Pool,
    PromptRecord,
    load_pool,
    read_embeddings,
    save_pool,
    write_embeddings,
)
from taskpick.selectors import select_k_center


def test_grouping_three_records(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [
            {"id": "x1", "task": "a"},
            {"id": "x2", "task": "a"},
            {"id": "x3", "task": "b"},
        ],
    )
    pool = load_pool(path)
    assert pool.partition.tasks == ("a", "b")
    assert pool.partition.codes.tolist() == [0, 0, 1]
    assert pool.partition.counts.tolist() == [2, 1]
    assert pool.partition.members_of("a").tolist() == [0, 1]
    assert pool.partition.members_of("b").tolist() == [2]


def test_embedding_length_mismatch(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [
            {"id": "x1", "task": "a", "embedding": [1.0, 2.0, 3.0, 4.0]},
            {"id": "x2", "task": "a", "embedding": [1.0, 2.0, 3.0, 4.0, 5.0]},
        ],
    )
    with pytest.raises(ShapeError):
        load_pool(path)


def test_dolly_shaped_pool_has_eight_tasks(tmp_path):
    # eight categories, arbitrary sizes
    rows = []
    for t in range(8):
        for i in range(t + 1):
            rows.append({"id": f"d{t}-{i}", "task": f"category_{t}"})
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", rows))
    assert len(pool.partition.tasks) == 8


def test_single_record_partition():
    pool = Pool([PromptRecord(id="only", task="x")])
    assert pool.partition.tasks == ("x",)
    assert pool.partition.counts.tolist() == [1]


def test_alternating_tasks():
    records = [PromptRecord(id=f"r{i}", task="p" if i % 2 == 0 else "q") for i in range(6)]
    part = Pool(records).partition
    assert part.counts.tolist() == [3, 3]
    assert part.members_of("p").tolist() == [0, 2, 4]
    assert part.members_of("q").tolist() == [1, 3, 5]


def test_partition_is_order_independent_up_to_labels():
    recs = [
        PromptRecord(id="a1", task="z"),
        PromptRecord(id="a2", task="m"),
        PromptRecord(id="a3", task="z"),
    ]
    shuffled = [recs[1], recs[2], recs[0]]
    p1 = Pool(recs).partition
    p2 = Pool(shuffled).partition
    assert p1.tasks == p2.tasks == ("m", "z")
    assert p1.counts.tolist() == p2.counts.tolist() == [1, 2]


def test_labels_differing_by_trailing_nul_stay_apart():
    part = Pool([PromptRecord(id="a", task="t"), PromptRecord(id="b", task="t\x00")]).partition
    assert part.tasks == ("t", "t\x00")
    assert part.counts.tolist() == [1, 1]


def test_duplicate_id(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [{"id": "same", "task": "a"}, {"id": "same", "task": "b"}],
    )
    with pytest.raises(DuplicateId):
        load_pool(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "ok", "task": "a"}\n{broken\n')
    with pytest.raises(ParseError, match=":2:"):
        load_pool(str(path))


def test_missing_required_field_is_parse_error(tmp_path):
    path = write_pool(tmp_path / "pool.jsonl", [{"id": "x"}])
    with pytest.raises(ParseError, match="task"):
        load_pool(path)


def test_probability_out_of_range(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [{"id": "x", "task": "a", "token_probs": [[1.2, 0.1]]}],
    )
    with pytest.raises(ValidationError):
        load_pool(path)


def test_probabilities_must_be_non_increasing(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [{"id": "x", "task": "a", "token_probs": [[0.3, 0.5]]}],
    )
    with pytest.raises(ValidationError, match="non-increasing"):
        load_pool(path)


def test_position_needs_two_entries(tmp_path):
    path = write_pool(
        tmp_path / "pool.jsonl",
        [{"id": "x", "task": "a", "token_probs": [[0.9]]}],
    )
    with pytest.raises(ValidationError, match="fewer than 2"):
        load_pool(path)


@pytest.mark.parametrize("value", [0.0, -0.5, 1.5])
def test_confidence_out_of_range(value):
    with pytest.raises(ValidationError):
        Pool([PromptRecord(id="x", task="a", confidence=value)])


def test_empty_pool_rejected(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError):
        load_pool(str(path))


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "a", "task": "t"}\n\n{"id": "b", "task": "t"}\n')
    pool = load_pool(str(path))
    assert pool.ids() == ("a", "b")


def test_load_is_order_stable(tmp_path):
    rows = [{"id": f"r{i}", "task": f"t{i % 4}"} for i in range(20)]
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", rows))
    assert list(pool.ids()) == [r["id"] for r in rows]


def test_partition_completeness(rng):
    for _ in range(20):
        n_tasks = int(rng.integers(1, 9))
        sizes = rng.integers(1, 12, size=n_tasks)
        records = []
        i = 0
        for t in range(n_tasks):
            for _ in range(sizes[t]):
                records.append(PromptRecord(id=f"r{i}", task=f"task-{t}"))
                i += 1
        pool = Pool(records)
        assert sum(pool.partition.counts) == len(pool)


def test_round_trip_inline(tmp_path):
    rows = [
        {"id": "a", "task": "t1", "embedding": [0.25, -1.5], "confidence": 0.37},
        {
            "id": "b",
            "task": "t0",
            "embedding": [1.0, 2.0],
            "token_probs": [[0.9, 0.05], [0.8, 0.1]],
        },
    ]
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", rows))
    out = tmp_path / "copy.jsonl"
    save_pool(pool, out)
    again = load_pool(str(out))
    assert again.partition.tasks == pool.partition.tasks
    assert np.array_equal(again.partition.codes, pool.partition.codes)
    for r1, r2 in zip(pool.records, again.records):
        assert r1.id == r2.id and r1.task == r2.task
        assert r1.confidence == r2.confidence
        assert r1.token_probs == r2.token_probs
        assert np.array_equal(r1.embedding, r2.embedding)


def test_round_trip_sidecar(tmp_path, rng):
    matrix = rng.normal(size=(7, 5)).astype(np.float32)
    sidecar = tmp_path / "emb.bin"
    write_embeddings(sidecar, matrix)
    rows = [{"id": f"r{i}", "task": f"t{i % 2}"} for i in range(7)]
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", rows), str(sidecar))

    out_pool = tmp_path / "copy.jsonl"
    out_emb = tmp_path / "copy.bin"
    save_pool(pool, out_pool, embeddings_path=out_emb)
    assert out_emb.read_bytes() == sidecar.read_bytes()
    again = load_pool(str(out_pool), str(out_emb))
    assert np.array_equal(again.embedding_matrix(), pool.embedding_matrix())


def test_sidecar_header_round_trip(tmp_path, rng):
    matrix = rng.normal(size=(3, 4)).astype(np.float32)
    path = tmp_path / "emb.bin"
    write_embeddings(path, matrix)
    raw = path.read_bytes()
    assert len(raw) == 16 + 3 * 4 * 4
    assert int.from_bytes(raw[:8], "little") == 3
    assert int.from_bytes(raw[8:16], "little") == 4
    assert np.array_equal(read_embeddings(path), matrix)


def test_sidecar_row_count_mismatch(tmp_path, rng):
    write_embeddings(tmp_path / "emb.bin", rng.normal(size=(3, 2)).astype(np.float32))
    path = write_pool(tmp_path / "pool.jsonl", [{"id": "a", "task": "t"}])
    with pytest.raises(ShapeError):
        load_pool(path, str(tmp_path / "emb.bin"))


def test_sidecar_truncated(tmp_path, rng):
    sidecar = tmp_path / "emb.bin"
    write_embeddings(sidecar, rng.normal(size=(3, 2)).astype(np.float32))
    sidecar.write_bytes(sidecar.read_bytes()[:-4])
    with pytest.raises(ShapeError):
        read_embeddings(sidecar)


def test_inline_and_sidecar_are_exclusive(tmp_path, rng):
    sidecar = tmp_path / "emb.bin"
    write_embeddings(sidecar, rng.normal(size=(1, 2)).astype(np.float32))
    path = write_pool(
        tmp_path / "pool.jsonl", [{"id": "a", "task": "t", "embedding": [1.0, 2.0]}]
    )
    with pytest.raises(ValidationError):
        load_pool(path, str(sidecar))


def test_embeddings_are_immutable(tmp_path, rng):
    matrix = rng.normal(size=(2, 3)).astype(np.float32)
    sidecar = tmp_path / "emb.bin"
    write_embeddings(sidecar, matrix)
    pool = load_pool(
        write_pool(tmp_path / "p.jsonl", [{"id": "a", "task": "t"}, {"id": "b", "task": "t"}]),
        str(sidecar),
    )
    with pytest.raises(ValueError):
        pool.records[0].embedding[0] = 3.0


def test_embedding_matrix_requires_all_rows():
    pool = Pool(
        [
            PromptRecord(id="a", task="t", embedding=np.array([1.0, 2.0])),
            PromptRecord(id="b", task="t"),
        ]
    )
    with pytest.raises(MissingEmbedding, match="'b'"):
        pool.embedding_matrix()


def test_non_finite_embedding_rejected():
    with pytest.raises(ValidationError):
        Pool([PromptRecord(id="a", task="t", embedding=np.array([1.0, np.nan]))])


def test_nan_confidence_is_rejected_not_absent(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "a", "task": "t", "confidence": NaN}\n')
    with pytest.raises(ValidationError, match="'a'.*outside"):
        load_pool(str(path))


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # each check names the first record that fails it
        (
            [
                {"id": "ok", "task": "t", "token_probs": [[0.9, 0.1]]},
                {"id": "bad", "task": "t", "token_probs": [[0.9, 0.1], [0.3, 0.5]]},
                {"id": "worse", "task": "t", "token_probs": [[0.1, 0.9]]},
            ],
            ValidationError,
            "'bad': probabilities at position 1 are not non-increasing",
        ),
        # within a record: a short position before a later out-of-range entry
        (
            [{"id": "x", "task": "t", "token_probs": [[0.9, 0.1], [0.5], [1.5, 0.1]]}],
            ValidationError,
            "'x': token_probs position 1 has fewer than 2 entries",
        ),
        # within a position: the range check before the order check
        (
            [{"id": "x", "task": "t", "token_probs": [[0.5, 0.4, 1.5]]}],
            ValidationError,
            r"'x': probability 1.5 at position 0 is outside \[0, 1\]",
        ),
        (
            [{"id": "a", "task": "t"}, {"id": "b", "task": "t", "token_probs": []}],
            ValidationError,
            "'b': token_probs has no positions",
        ),
        (
            [
                {"id": "a", "task": "t", "embedding": [1.0, 2.0]},
                {"id": "b", "task": "t", "embedding": [1.0, 2.0, 3.0], "confidence": 0.0},
            ],
            ShapeError,
            "'b': embedding length 3 != 2",
        ),
        (
            [{"id": "a", "task": "t"}, {"id": "b", "task": "t", "embedding": [1.0, float("nan")]}],
            ValidationError,
            "'b': embedding has non-finite values",
        ),
        (
            [{"id": "a", "task": "t"}, {"id": "b", "task": "t"}, {"id": "a", "task": "u"}],
            DuplicateId,
            "duplicate record id 'a'",
        ),
    ],
)
def test_validation_names_first_failing_record(tmp_path, rows, error, message):
    path = tmp_path / "pool.jsonl"
    with pytest.raises(error, match=message):
        load_pool(write_pool(tmp_path / "pool.jsonl", rows))


def test_records_view_rebuilds_an_equal_pool(tmp_path):
    rows = [
        {"id": "a", "task": "t1", "embedding": [0.25, -1.5], "confidence": 0.37},
        {"id": "b", "task": "t0", "embedding": [1.0, 2.0], "token_probs": [[0.9, 0.05], [0.8, 0.1]]},
        {"id": "c", "task": "t1", "embedding": [3.0, 4.0], "token_probs": [[0.6, 0.4, 0.0]]},
    ]
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", rows))
    again = Pool(pool.records)
    assert again.ids() == pool.ids()
    assert np.array_equal(again.partition.codes, pool.partition.codes)
    for name in ("confidence", "position_offsets", "candidate_offsets", "probs"):
        assert np.array_equal(getattr(again, name), getattr(pool, name), equal_nan=True)
    assert np.array_equal(again.embedding_matrix(), pool.embedding_matrix())
    assert pool.records[2].token_probs == ((0.6, 0.4, 0.0),)
    assert pool.records[1].confidence is None


def test_sidecar_header_checked_before_rows_are_read(tmp_path, monkeypatch):
    path = tmp_path / "emb.bin"
    path.write_bytes((2**40).to_bytes(8, "little") + (64).to_bytes(8, "little") + bytes(64))

    def no_read(*args, **kwargs):
        raise AssertionError("rows were read before the header was checked")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(ShapeError, match="expected"):
        read_embeddings(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"id": 5}, "missing or invalid 'id'"),
        ({"id": ""}, "missing or invalid 'id'"),
        ({"task": 7}, "missing or invalid 'task'"),
        ({"task": "\ud800"}, "'task' holds a lone surrogate, which is not valid Unicode"),
        ({"confidence": "0.5"}, "'confidence' must be a number"),
        ({"confidence": True}, "'confidence' must be a number"),
        ({"token_probs": (("x", 0.1),)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ((True, False),)}, "'token_probs' must be an array of arrays of numbers"),
        ({"embedding": np.array(["1", "2"])}, "'embedding' must be an array of numbers"),
        ({"confidence": 10**400}, "integer of 401 digits does not fit a float"),
        ({"token_probs": ((0.5, 10**400),)}, "integer of 401 digits does not fit a float"),
        ({"embedding": [1.0, -(10**400)]}, "integer of 401 digits does not fit a float"),
        ({"token_probs": ((0.9, False),)}, "'token_probs' must be an array of arrays of numbers"),
        ({"id": "true", "token_probs": ((0.9, 0.1), (0.9, True))},
         "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ((0.9, 0.1), None)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ({"p": 0.9},)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ({},)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ("",)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": (((0.9, 0.1),),)}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": "0.9"}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": ""}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": {"p": [0.9, 0.1]}}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": {}}, "'token_probs' must be an array of arrays of numbers"),
        ({"token_probs": 0.9}, "'token_probs' must be an array of arrays of numbers"),
    ],
)
def test_library_and_file_pools_reject_the_same_records(tmp_path, fields, message):
    record = {"id": "a", "task": "t", **fields}
    valid = {"id": "b", "task": "t", "confidence": 0.5}
    with pytest.raises(TaskpickError) as library:
        Pool([PromptRecord(**record), PromptRecord(**valid)])
    assert str(library.value) == f"record 0: {message}"

    line = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in record.items()}
    path = write_pool(tmp_path / "pool.jsonl", [line, valid])
    with pytest.raises(TaskpickError) as file:
        load_pool(path)
    assert type(file.value) is type(library.value)
    assert str(file.value) == f"{path}:1: {message}"


@pytest.mark.parametrize(
    "trace",
    [
        ((10**400, 0.5), ("x", 0.1)),  # the type error comes first; a file reports the integer
        ((np.bool_(True), np.bool_(False)),),
        (np.array([True, False]),),
        (np.array([[0.9, 0.1]]),),
    ],
)
def test_library_pool_rejects_traces_no_file_can_hold(trace):
    with pytest.raises(ParseError) as error:
        Pool([PromptRecord(id="a", task="t", token_probs=trace)])
    assert str(error.value) == "record 0: 'token_probs' must be an array of arrays of numbers"


def test_a_trace_failing_two_checks_gets_each_readers_first_error(tmp_path):
    # the library checks the trace's types first; the file reader meets the
    # 401-digit integer while it decodes the line, before any type check
    trace = [[10**400, 0.5], ["x", 0.1]]
    with pytest.raises(ParseError) as library:
        Pool([PromptRecord(id="a", task="t", token_probs=trace)])
    assert str(library.value) == "record 0: 'token_probs' must be an array of arrays of numbers"
    path = write_pool(tmp_path / "pool.jsonl", [{"id": "a", "task": "t", "token_probs": trace}])
    with pytest.raises(ParseError) as file:
        load_pool(path)
    assert str(file.value) == f"{path}:1: integer of 401 digits does not fit a float"


def test_true_false_in_an_id_and_nan_in_a_trace_load_as_before(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "true-false", "task": "t", "token_probs": [[0.9, 0.1], [1, 0]]}\n')
    pool = load_pool(str(path))
    assert pool.ids() == ("true-false",)
    assert pool.probs.tolist() == [0.9, 0.1, 1.0, 0.0]
    path.write_text('{"id": "a", "task": "t", "token_probs": [[0.9, 0.1], [NaN, 0.1]]}\n')
    with pytest.raises(ValidationError) as error:
        load_pool(str(path))
    assert str(error.value) == "record 'a': probability nan at position 1 is outside [0, 1]"


def _numpy_records():
    """Valid library records built from numpy values: float32 embedding rows
    (as a sidecar hands them back), numpy scalar confidences, ndarray and
    tuple positions."""
    rows = np.array([[0.25, -1.5], [1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    return [
        PromptRecord(id="a", task="t1", embedding=rows[0], confidence=np.float32(0.3)),
        PromptRecord(id="b", task="t0", embedding=rows[1], confidence=np.float64(0.37),
                     token_probs=(np.array([0.9, 0.05]), (np.float32(0.8), 0.1))),
        PromptRecord(id="c", task="t1", embedding=rows[2],
                     token_probs=[[0.6, 0.4, 0.0], (1, 0)]),
    ]


@pytest.mark.parametrize("sidecar", [False, True])
def test_saved_library_pool_reads_back_equal(tmp_path, sidecar):
    pool = Pool(_numpy_records())
    out, emb = tmp_path / "copy.jsonl", tmp_path / "copy.bin" if sidecar else None
    save_pool(pool, out, embeddings_path=emb)
    again = load_pool(str(out), None if emb is None else str(emb))
    assert again.ids() == pool.ids()
    assert again.partition.tasks == pool.partition.tasks
    assert np.array_equal(again.partition.codes, pool.partition.codes)
    for name in ("confidence", "position_offsets", "candidate_offsets", "probs"):
        assert np.array_equal(getattr(again, name), getattr(pool, name), equal_nan=True)
    assert np.array_equal(again.embedding_matrix(), pool.embedding_matrix())
    assert pool.confidence[0] == float(np.float32(0.3))


def _mixed_trace_rows():
    """500 seeded records: traces of 1-8 positions, 2-6 entries wide, some
    positions of integer entries, some records without a trace, and one id
    that holds the text ``false``."""
    rng = np.random.default_rng(1414)
    rows = []
    for i in range(500):
        row = {"id": f"m{i:03d}", "task": f"t{i % 7}"}
        if i % 10 == 9:
            row["confidence"] = round(float(rng.uniform(0.05, 1.0)), 6)
        else:
            widths = rng.integers(2, 7, size=int(rng.integers(1, 9)))
            row["token_probs"] = [sorted(rng.random(w).round(6).tolist(), reverse=True) for w in widths]
            if i % 25 == 0:
                row["token_probs"].append([1, 0])
        rows.append(row)
    rows[123]["id"] = "m123-false"
    return rows


# sha256 of each trace column's bytes, recorded before the trace loader
# converted one position at a time
PINNED_TRACE_COLUMNS = {
    "probs": "9e26a8dc95610021",
    "candidate_offsets": "e2f7ee8c2028d493",
    "position_offsets": "ed02669a626ced5d",
}


def test_trace_columns_are_pinned_for_file_and_library_pools(tmp_path):
    pool = load_pool(write_pool(tmp_path / "pool.jsonl", _mixed_trace_rows()))
    for built in (pool, Pool(pool.records)):
        digests = {name: hashlib.sha256(getattr(built, name).tobytes()).hexdigest()[:16]
                   for name in PINNED_TRACE_COLUMNS}
        assert digests == PINNED_TRACE_COLUMNS


def test_json_line_that_is_not_an_object(tmp_path):
    path = write_pool(tmp_path / "pool.jsonl", [{"id": "a", "task": "t"}, [1, 2]])
    with pytest.raises(ParseError, match=r"pool\.jsonl:2: record is not an object$"):
        load_pool(path)


def test_sidecar_shorter_than_its_header(tmp_path):
    sidecar = tmp_path / "emb.bin"
    sidecar.write_bytes(bytes(15))
    with pytest.raises(ShapeError, match="sidecar shorter than its 16-byte header$"):
        read_embeddings(sidecar)


def test_sidecar_header_with_zero_dimension(tmp_path):
    # 3 rows of 0 floats is exactly the 16-byte header, so only d is wrong
    sidecar = tmp_path / "emb.bin"
    sidecar.write_bytes((3).to_bytes(8, "little") + (0).to_bytes(8, "little"))
    with pytest.raises(ShapeError, match="embedding dimension must be >= 1, header says 0$"):
        read_embeddings(sidecar)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_write_embeddings_needs_a_matrix(tmp_path, shape):
    sidecar = tmp_path / "emb.bin"
    with pytest.raises(ShapeError, match="embedding matrix must be 2-dimensional"):
        write_embeddings(sidecar, np.zeros(shape))
    assert not sidecar.exists()


def test_integer_embeddings_widen_to_float64():
    pool = Pool([PromptRecord(id="a", task="t", embedding=np.array([1, -2], dtype=np.int32)),
                 PromptRecord(id="b", task="t", embedding=np.array([3, 4], dtype=np.int64))])
    matrix = pool.embedding_matrix()
    assert matrix.dtype == np.float64
    assert matrix.tolist() == [[1.0, -2.0], [3.0, 4.0]]


def test_embedding_matrix_dtype_follows_its_source(tmp_path, rng):
    # a sidecar gives float32, and so does Pool(records) of that pool; inline
    # float ndarrays keep their dtype, integer ones widen, and a pool read
    # from a file holds float64. The kernel widens every float dtype exactly,
    # so k-center picks the same points before and after the round trip
    rows = 4.0 * rng.normal(size=(40, 6))
    write_embeddings(tmp_path / "emb.bin", rows)
    ids = write_pool(tmp_path / "ids.jsonl", [{"id": f"r{i}", "task": f"t{i % 3}"} for i in range(40)])
    from_sidecar = load_pool(ids, str(tmp_path / "emb.bin"))
    assert from_sidecar.embedding_matrix().dtype == np.float32
    assert Pool(from_sidecar.records).embedding_matrix().dtype == np.float32
    for dtype, kept in ((np.float16, np.float16), (np.float32, np.float32),
                        (np.float64, np.float64), (np.int64, np.float64)):
        pool = Pool([PromptRecord(id=f"r{i}", task=f"t{i % 3}", embedding=row)
                     for i, row in enumerate(rows.astype(dtype))])
        save_pool(pool, tmp_path / "pool.jsonl")
        again = load_pool(str(tmp_path / "pool.jsonl"))
        assert (pool.embedding_matrix().dtype, again.embedding_matrix().dtype) == (kept, np.float64)
        assert np.array_equal(again.embedding_matrix(), pool.embedding_matrix())
        picks = select_k_center(pool.embedding_matrix(), 12).selected
        assert select_k_center(again.embedding_matrix(), 12).selected == picks
