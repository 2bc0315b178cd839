"""Prompt pool loading, validation, and task partitioning.

A pool file is JSON Lines: one record per line, each an object with

* ``id`` (string, unique across the pool),
* ``task`` (string label, matched exactly, never normalized; it and
  ``id`` must be Unicode text, so a lone surrogate such as JSON's
  ``"\\ud800"`` is rejected),
* ``embedding`` (optional array of reals, same length for every record),
* ``confidence`` (optional real in (0, 1]),
* ``token_probs`` (optional array of per-position probability arrays;
  within a position the entries are sorted non-increasing, lie in
  [0, 1], and there are at least two of them).

Embeddings may instead be supplied through a binary sidecar file whose
layout is: two little-endian uint64 values ``N`` and ``d``, followed by
``N * d`` little-endian IEEE-754 float32 values in row-major order.
Inline embeddings and a sidecar are mutually exclusive.

In memory a pool is a set of columns, one entry per record in line order.
"""

import json
import os
import re
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, starmap

import numpy as np

from .errors import (
    DuplicateId,
    MissingEmbedding,
    ParseError,
    ShapeError,
    ValidationError,
)

_SIDECAR_HEADER = struct.Struct("<QQ")
_NUMBERS = frozenset((int, float))
_SEQUENCES = frozenset((list, tuple))
_REALS = (int, float, np.integer, np.floating)
_FIELDS = ("id", "task", "confidence", "token_probs", "embedding")
# A JSON escape such as "\ud800" decodes to a lone surrogate: valid JSON,
# but not Unicode text, and no UTF-8 output or hash input can hold it.
_SURROGATE = re.compile("[\\ud800-\\udfff]")


@dataclass(frozen=True)
class PromptRecord:
    """One pool element. Only ``id`` and ``task`` are mandatory."""

    id: str
    task: str
    embedding: np.ndarray | None = None
    token_probs: tuple[tuple[float, ...], ...] | None = None
    confidence: float | None = None


@dataclass(frozen=True, eq=False)
class TaskPartition:
    """Pool indices grouped by task, tasks ordered lexicographically.

    Record ``i`` has label ``tasks[codes[i]]``; ``members[t]`` holds task
    ``t``'s indices in ascending order.
    """

    tasks: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray
    members: tuple[np.ndarray, ...]

    def members_of(self, task: str) -> np.ndarray:
        return self.members[self.tasks.index(task)]


def _partition(task_labels) -> TaskPartition:
    tasks = sorted(set(task_labels))
    code_of = {label: t for t, label in enumerate(tasks)}
    codes = np.fromiter(map(code_of.__getitem__, task_labels), np.int32, len(task_labels))
    counts = np.bincount(codes, minlength=len(tasks))
    order = np.argsort(codes, kind="stable")
    for column in (codes, counts, order):
        column.flags.writeable = False
    ends = np.cumsum(counts).tolist()
    return TaskPartition(tuple(tasks), codes, counts, tuple(order[a:b] for a, b in zip([0, *ends], ends)))


def _offsets(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _is_vector(values) -> bool:
    """A list or tuple of Python or numpy reals, or a 1-D integer or float ndarray."""
    if type(values) in _SEQUENCES:  # exact types first: the fast path for parsed JSON
        return _NUMBERS.issuperset(map(type, values)) or all(
            isinstance(v, _REALS) and type(v) is not bool for v in values)
    return isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf"


def _too_large(digits: int) -> str:
    return f"integer of {digits} digits does not fit a float"


def _int_overflow(where: str, values) -> ParseError:
    """The file reader's error for the first int in ``values`` beyond float64 range."""
    from decimal import Decimal  # counts digits past str()'s 4300-digit limit; errors only

    big = next(abs(v) for v in values if isinstance(v, int) and abs(v) > sys.float_info.max)
    return ParseError(f"{where}: {_too_large(Decimal(big).adjusted() + 1)}")


class Pool:
    """Immutable, validated prompt pool stored as columns.

    Safe for concurrent reads; all mutation happens before construction
    finishes. Build one via :func:`load_pool` or from PromptRecords, which
    pass the same checks. ``confidence`` is NaN where absent. Token traces are a two-level CSR:
    record ``i`` owns positions ``position_offsets[i]:position_offsets[i + 1]``
    and position ``j`` owns ``probs[candidate_offsets[j]:candidate_offsets[j + 1]]``.
    """

    def __init__(self, records):
        self._adopt((f"record {i}", vars(r), True) for i, r in enumerate(records))

    def _adopt(self, records, sidecar=None) -> None:
        """Validate (where, fields, typed) triples and store them as columns,
        with embeddings read from a ``sidecar`` file if given. ``fields`` is a
        dict keyed like PromptRecord; a malformed one raises ParseError naming
        ``where``, and each later check names the first failing record's id.
        ``typed`` asks for an exact type check of every trace entry. Without it
        ``array.fromlist`` is the only check, and it lets bools through; a file
        line can hold a bool only if its text holds ``true`` or ``false``, and
        only such lines are typed."""
        widths, flat = array("q"), array("d")  # no Python object per entry

        def flatten():  # checks each record and moves its trace onto the flat arrays
            for where, obj, typed in records:
                if not isinstance(obj, dict):
                    raise ParseError(f"{where}: record is not an object")
                rec_id, task, confidence, trace, embedding = map(obj.get, _FIELDS)
                if not isinstance(rec_id, str) or not rec_id:
                    raise ParseError(f"{where}: missing or invalid 'id'")
                if not isinstance(task, str) or not task:
                    raise ParseError(f"{where}: missing or invalid 'task'")
                for name, text in (("id", rec_id), ("task", task)):
                    if not text.isascii() and _SURROGATE.search(text):
                        raise ParseError(f"{where}: {name!r} holds a lone surrogate, which is not valid Unicode")
                if embedding is not None:
                    if not _is_vector(embedding):
                        raise ParseError(f"{where}: 'embedding' must be an array of numbers")
                    if type(embedding) in _SEQUENCES:
                        try:
                            embedding = array("d", embedding)
                        except OverflowError:
                            raise _int_overflow(where, embedding) from None
                if confidence is not None and (type(confidence) is bool or not isinstance(confidence, _REALS)):
                    raise ParseError(f"{where}: 'confidence' must be a number")
                if isinstance(confidence, int) and abs(confidence) > sys.float_info.max:
                    raise _int_overflow(where, (confidence,))
                if trace is not None:
                    try:  # fromlist converts one position and raises TypeError on a non-number
                        if type(trace) not in _SEQUENCES or typed and not all(map(_is_vector, trace)):
                            raise TypeError
                        for position in trace:
                            flat.fromlist(list(position) if typed else position)
                            widths.append(len(position))
                    except TypeError:
                        raise ParseError(f"{where}: 'token_probs' must be an array of arrays of numbers") from None
                    except OverflowError:
                        raise _int_overflow(where, chain.from_iterable(trace)) from None
                yield rec_id, task, confidence, -1 if trace is None else len(trace), embedding

        columns = list(zip(*flatten()))
        if not columns:
            raise ValidationError("pool contains no records")
        ids, tasks, confidence, npos, embeddings = columns

        def first(mask):
            hits = np.flatnonzero(mask)
            return int(hits[0]) if hits.size else None

        def fail(error, i, msg):
            raise error(f"record {ids[i]!r}: {msg}")

        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(rec_id for rec_id in ids if rec_id in seen or seen.add(rec_id))
            raise DuplicateId(f"duplicate record id {dup!r}")

        if sidecar is not None:
            if any(e is not None for e in embeddings):
                raise ValidationError("pool has inline embeddings; a sidecar file cannot also be given")
            matrix, given = read_embeddings(sidecar), np.arange(len(ids))
            if len(matrix) != len(ids):
                raise ShapeError(f"sidecar holds {len(matrix)} rows but pool has {len(ids)} records")
        else:
            given = np.flatnonzero([e is not None for e in embeddings])
            vectors = [embeddings[i] for i in given]
            lengths = np.fromiter(map(len, vectors), np.int64, len(vectors))
            if (g := first((lengths < 1) | (lengths != lengths[:1]))) is not None:
                fail(ShapeError, given[g], f"embedding length {lengths[g]} != {lengths[0]}"
                     if lengths[g] else "embedding must be a non-empty vector")
            matrix = np.array(vectors) if vectors else np.empty((0, 0))
            if matrix.dtype.kind != "f":
                matrix = matrix.astype(np.float64)
        if (g := first(~np.isfinite(matrix).all(axis=1))) is not None:
            fail(ValidationError, given[g], "embedding has non-finite values")

        conf = np.array(confidence, dtype=np.float64)  # None becomes NaN
        if (i := first(np.not_equal(confidence, None) & ~((conf > 0) & (conf <= 1)))) is not None:
            fail(ValidationError, i, f"confidence {float(conf[i])!r} is outside (0, 1]")

        npos = np.array(npos, dtype=np.int64)
        if (i := first(npos == 0)) is not None:
            fail(ValidationError, i, "token_probs has no positions")
        pos_offsets = _offsets(np.maximum(npos, 0))
        cand_offsets = _offsets(np.frombuffer(widths, dtype=np.int64))
        probs = np.frombuffer(flat, dtype=np.float64)

        def fail_at(j, msg, entry=False):
            # j indexes flat positions, or flat entries when ``entry`` is set
            if entry:
                j = np.searchsorted(cand_offsets, j, side="right") - 1
            i = np.searchsorted(pos_offsets, j, side="right") - 1
            fail(ValidationError, i, msg.format(j=j - pos_offsets[i]))

        if (j := first(np.diff(cand_offsets) < 2)) is not None:
            fail_at(j, "token_probs position {j} has fewer than 2 entries")
        if (k := first(~((probs >= 0) & (probs <= 1)))) is not None:
            fail_at(k, f"probability {float(probs[k])!r} at position {{j}} is outside [0, 1]", True)
        rising = np.append(False, probs[1:] > probs[:-1])
        rising[cand_offsets[:-1]] = False  # a position's first entry has no predecessor
        if (k := first(rising)) is not None:
            fail_at(k, "probabilities at position {j} are not non-increasing", True)

        if 0 < given.size < len(ids):  # absent rows are NaN, which no given row can be
            full = np.full((len(ids), matrix.shape[1]), np.nan, dtype=matrix.dtype)
            full[given] = matrix
            matrix = full
        self._ids = ids
        self.partition = _partition(tasks)
        self.confidence, self.probs = conf, probs
        self.position_offsets, self.candidate_offsets = pos_offsets, cand_offsets
        self._embeddings = matrix if given.size else None
        for column in (conf, pos_offsets, cand_offsets, probs, matrix):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def embedding_matrix(self) -> np.ndarray:
        """All embeddings as the stored read-only matrix of shape (N, d).

        From a sidecar it is float32. Inline vectors take their common numpy
        dtype, with lists and tuples counting as float64 and float64 in place
        of an integer result. So a float ndarray keeps its dtype,
        ``Pool(pool.records)`` of a sidecar pool stays float32, and a pool
        read from a file, whose vectors are lists, holds float64.

        Raises MissingEmbedding if any record lacks one.
        """
        emb = self._embeddings
        missing = [0] if emb is None else np.flatnonzero(np.isnan(emb[:, 0]))
        if len(missing):
            raise MissingEmbedding(f"record {self._ids[missing[0]]!r} has no embedding")
        return emb

    def _fields(self):
        """Yield each record's (id, task, embedding, token_probs, confidence)."""
        tasks = [self.partition.tasks[t] for t in self.partition.codes.tolist()]
        conf, pos, cand, probs = (column.tolist() for column in (
            self.confidence, self.position_offsets, self.candidate_offsets, self.probs))
        positions = [tuple(probs[a:b]) for a, b in zip(cand, cand[1:])]
        emb = self._embeddings
        absent = [True] * len(self) if emb is None else np.isnan(emb[:, 0]).tolist()
        for i, rec_id in enumerate(self._ids):
            embedding = None if absent[i] else emb[i]
            trace = tuple(positions[pos[i] : pos[i + 1]]) or None
            yield rec_id, tasks[i], embedding, trace, None if conf[i] != conf[i] else conf[i]

    @property
    def records(self) -> tuple[PromptRecord, ...]:
        """The pool as PromptRecords, rebuilt from the columns on each access."""
        return tuple(starmap(PromptRecord, self._fields()))


def _json_int(text: str) -> int:
    """An integer literal, which must fit a float64 as every number read is one.

    Literals longer than the 309 digits of the largest float are rejected
    before ``int`` parses them."""
    if len(text) > 310 or abs(value := int(text)) > sys.float_info.max:
        raise OverflowError(_too_large(len(text.lstrip("-"))))
    return value


_DECODER = json.JSONDecoder(parse_int=_json_int)


def _parse_json(text: str, where: str):
    """Parse one JSON document; errors are ParseErrors prefixed with ``where``."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc.msg})") from exc
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}: invalid JSON (nested too deeply)") from exc


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


def _json_lines(path):
    """Yield ("path:line", parsed value, whether the line holds a bool literal)
    for each non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    where = f"{path}:{line_no}"
                    yield where, _parse_json(line, where), "true" in line or "false" in line
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def load_pool(pool_path, embeddings_path=None) -> Pool:
    """Load and validate a pool file, optionally attaching sidecar embeddings.

    Records keep the order of their lines, so pool index equals input
    line index (blank lines are skipped).
    """
    pool = Pool.__new__(Pool)
    pool._adopt(_json_lines(pool_path), embeddings_path)
    return pool


def save_pool(pool: Pool, pool_path, embeddings_path=None) -> None:
    """Write a pool back to disk; reloading yields identical records.

    With ``embeddings_path`` the embeddings go to a binary sidecar and
    are omitted from the JSON lines, otherwise they are stored inline.
    """
    if embeddings_path is not None:
        write_embeddings(embeddings_path, pool.embedding_matrix())
    with open(pool_path, "w", encoding="utf-8") as fh:
        for rec_id, task, embedding, token_probs, confidence in pool._fields():
            obj = {"id": rec_id, "task": task}
            if embeddings_path is None and embedding is not None:
                obj["embedding"] = embedding.tolist()
            if confidence is not None:
                obj["confidence"] = confidence
            if token_probs is not None:
                obj["token_probs"] = [list(pos) for pos in token_probs]
            fh.write(json.dumps(obj) + "\n")


def read_embeddings(path) -> np.ndarray:
    """Read a binary embedding sidecar into a read-only float32 (N, d) matrix.

    The header is checked against the file size before any row is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_SIDECAR_HEADER.size)
        if len(header) < _SIDECAR_HEADER.size:
            raise ShapeError(f"{path}: sidecar shorter than its 16-byte header")
        n, d = _SIDECAR_HEADER.unpack(header)
        size = os.fstat(fh.fileno()).st_size
        expected = _SIDECAR_HEADER.size + n * d * 4
        if size != expected:
            raise ShapeError(f"{path}: expected {expected} bytes for ({n}, {d}), found {size}")
        if n > 0 and d < 1:
            raise ShapeError(f"{path}: embedding dimension must be >= 1, header says {d}")
        matrix = np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)
    matrix.flags.writeable = False
    return matrix


def write_embeddings(path, matrix) -> None:
    """Write an (N, d) array as a binary embedding sidecar (float32)."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ShapeError("embedding matrix must be 2-dimensional")
    with open(path, "wb") as fh:
        fh.write(_SIDECAR_HEADER.pack(matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes())
