"""Per-example confidence and uncertainty scores, and task-level means.

All scores are pure functions of the token-probability trace (or of a
precomputed confidence). ``score_pool`` computes them for a whole pool
with segment reductions over its trace columns. A scores cache is valid
only as the exact bytes ``render_scores`` writes for the pool at hand.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateProbability, MissingConfidence, ValidationError
from .pool import Pool, _not_utf8

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
    """This pool's scores, if ``path`` holds the exact bytes ``render_scores``
    writes for them; any other file is refused at its first differing line."""
    scores = score_pool(pool)
    expected = render_scores(pool, scores).encode()
    with open(path, "rb") as fh:
        data = fh.read()
    if data == expected:
        return scores
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    size = min(len(data), len(expected))
    differ = np.frombuffer(data, np.uint8, size) != np.frombuffer(expected, np.uint8, size)
    row = data.count(b"\n", 0, int(np.argmax(differ)) if differ.any() else size)
    where = f"record {pool.ids()[row]!r}" if row < len(pool) else f"past the pool's {len(pool)} records"
    raise ValidationError(f"{path}:{row + 1}: {where}: cached scores differ from this pool's;"
                          " re-run `taskpick score` to rewrite the cache")
