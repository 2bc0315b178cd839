"""Per-example confidence and uncertainty scores, and task-level means.

All scores are pure functions of the token-probability trace (or of a
precomputed confidence). ``score_pool`` computes them for a whole pool
with segment reductions over its trace columns.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateProbability, MissingConfidence, ParseError, ValidationError
from .pool import _NUMBERS, Pool, _json_lines

# Task means are floored before they are ever inverted downstream.
CONFIDENCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Scores:
    """Per-record scores as float64 columns in pool order, NaN where absent.

    ``confidence`` is the raw product (exactly the record's field when it
    has one); ``log_confidence`` is its log-space form, which selectors
    rank by because it stays resolvable where the product underflows.
    """

    confidence: np.ndarray
    log_confidence: np.ndarray
    mean_entropy: np.ndarray
    mean_margin: np.ndarray
    min_margin: np.ndarray


_SCORE_FIELDS = tuple(f.name for f in fields(Scores))
_SCORE_TYPES = _NUMBERS | {type(None)}


def score_pool(pool: Pool) -> Scores:
    """Compute every score derivable from each record's fields.

    A precomputed confidence field takes precedence over the trace.
    """
    trace_log, entropy, mean_m, min_m = (np.full(len(pool), np.nan) for _ in range(4))
    pos = pool.position_offsets
    traced = np.flatnonzero(pos[1:] > pos[:-1])
    starts, lengths = pos[traced], (pos[1:] - pos[:-1])[traced]
    first = pool.candidate_offsets[:-1]  # each position's realized-token entry
    probs = pool.probs
    top = probs[first]
    gaps = top - probs[first + 1]
    with np.errstate(divide="ignore"):
        trace_log[traced] = np.add.reduceat(np.log(top), starts)
    plogp = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    plogp *= probs
    position_entropy = -np.add.reduceat(plogp, first)
    entropy[traced] = np.add.reduceat(position_entropy, starts) / lengths
    mean_m[traced] = np.add.reduceat(gaps, starts) / lengths
    min_m[traced] = np.minimum.reduceat(gaps, starts)

    given = ~np.isnan(pool.confidence)
    if (degenerate := np.flatnonzero(~given & (trace_log == -np.inf))).size:
        i = degenerate[0]
        j = int(np.argmax(top[pos[i] : pos[i + 1]] <= 0.0))
        raise DegenerateProbability(
            f"record {pool.ids()[i]!r}: realized-token probability 0 at position {j}")
    log_conf = trace_log.copy()
    # math.log, so each equals math.log(confidence) bit for bit; np.log need not
    log_conf[given] = np.fromiter(map(math.log, pool.confidence[given].tolist()), np.float64)
    conf = np.where(given, pool.confidence, np.exp(trace_log))
    return Scores(conf, log_conf, entropy, mean_m, min_m)


def task_mean_confidence(pool: Pool, scores: Scores | None = None) -> np.ndarray:
    """Mean raw confidence per task, floored at CONFIDENCE_FLOOR, as a
    read-only float64 array in the partition's task order.

    Confidences come from ``scores`` (such as a loaded cache) or, when it
    is None, from scoring the pool.
    """
    conf = (score_pool(pool) if scores is None else scores).confidence
    if (missing := np.flatnonzero(np.isnan(conf))).size:
        rec_id = pool.ids()[missing[0]]
        raise MissingConfidence(f"record {rec_id!r} has neither a confidence nor token_probs")
    part = pool.partition
    sums = np.array([conf[members].sum() for members in part.members])
    values = np.maximum(sums / part.counts, CONFIDENCE_FLOOR)
    values.flags.writeable = False
    return values


def render_scores(pool: Pool, scores: Scores) -> str:
    """Serialize per-example scores as JSON lines, omitting absent (NaN) fields."""
    columns = [getattr(scores, name).tolist() for name in _SCORE_FIELDS]
    lines = (
        json.dumps({"id": rec_id, **{k: v for k, v in zip(_SCORE_FIELDS, values) if v == v}})
        for rec_id, *values in zip(pool.ids(), *columns)
    )
    return "".join(line + "\n" for line in lines)


def read_scores(path, pool: Pool) -> Scores:
    """Load a scores cache and check that it holds this pool's scores.

    Each pool id must appear once and no other id may. ``confidence`` and
    ``log_confidence`` come in pairs, and a confidence of 0.0 is accepted
    only where ``exp(log_confidence)`` underflows to it. Then every value
    must equal ``score_pool(pool)``'s bit for bit (NaN where absent), so a
    cache written for another pool with the same ids is refused.
    """
    ids = pool.ids()
    index = {rec_id: i for i, rec_id in enumerate(ids)}
    rows, line_of = [None] * len(ids), [0] * len(ids)
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            raise ParseError(f"{path}:{line_no}: score record needs a string 'id'")
        i = index.get(obj["id"])
        if i is None or line_of[i]:
            what = "is not in the pool" if i is None else f"repeats line {line_of[i]}"
            raise ValidationError(f"{path}:{line_no}: id {obj['id']!r} {what}")
        rows[i], line_of[i] = [obj.get(name) for name in _SCORE_FIELDS], line_no
    if None in rows:
        raise ValidationError(f"scores cache is missing record {ids[rows.index(None)]!r}")

    def check(mask, msg, error=ParseError):
        if (bad := np.flatnonzero(mask)).size:
            raise error(f"{path}:{line_of[bad[0]]}: record {ids[bad[0]]!r}: {msg}")

    check([not _SCORE_TYPES.issuperset(map(type, row)) for row in rows], "a score is not a number")
    table = np.array(rows, dtype=np.float64)  # None becomes NaN
    given = np.not_equal(rows, None)
    check((given & ~np.isfinite(table)).any(axis=1), "a score is not finite")
    check(given[:, 0] != given[:, 1], "'confidence' and 'log_confidence' come in pairs;"
          " re-run `taskpick score` to rewrite the cache")
    conf, log_conf = table[:, 0], table[:, 1]
    underflow = (conf == 0.0) & (np.exp(np.minimum(log_conf, 0.0)) == 0.0)
    check((~((conf > 0.0) & (conf <= 1.0)) & given[:, 0] & ~underflow) | (log_conf > 0.0),
          "cached confidence is outside (0, 1] and is not the underflow of its log_confidence",
          ValidationError)
    scores = score_pool(pool)
    fresh = np.column_stack([getattr(scores, name) for name in _SCORE_FIELDS])
    same = (table.view(np.uint64) == fresh.view(np.uint64)) | (np.isnan(table) & np.isnan(fresh))
    check(~same.all(axis=1), "cached scores differ from this pool's;"
          " re-run `taskpick score` to rewrite the cache", ValidationError)
    return scores
