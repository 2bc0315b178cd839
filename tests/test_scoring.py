import json
import math

import numpy as np
import pytest

from conftest import make_pool
from reference import log_confidence, margins, mean_entropy
from taskpick.errors import (
    DegenerateProbability,
    MissingConfidence,
    ParseError,
    ValidationError,
)
from taskpick.pool import Pool, PromptRecord
from taskpick.scoring import (
    CONFIDENCE_FLOOR,
    read_scores,
    render_scores,
    score_pool,
    task_mean_confidence,
)


def scored(*traces):
    """score_pool over a pool holding one record per trace."""
    return score_pool(make_pool({"t": len(traces)}, token_probs=traces))


def test_confidence_identity_case():
    assert scored(((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))).confidence[0] == 1.0


def test_confidence_product():
    assert scored(((0.5, 0.0), (0.5, 0.0))).confidence[0] == pytest.approx(0.25, rel=1e-12)


def test_confidence_three_tokens():
    # oracle: direct product of the realized-token probabilities
    probs = ((0.9, 0.05), (0.8, 0.1), (0.7, 0.2))
    direct = 0.9 * 0.8 * 0.7
    assert direct == pytest.approx(0.504, rel=1e-12)
    assert scored(probs).confidence[0] == pytest.approx(0.504, rel=1e-9)


def test_confidence_zero_probability():
    with pytest.raises(DegenerateProbability):
        scored(((0.0, 0.0),))


def test_confidence_empty_sequence():
    # an empty trace never reaches the scorer: the pool rejects it
    with pytest.raises(ValidationError, match="token_probs has no positions"):
        scored(())


def test_entropy_deterministic_positions():
    assert scored(((1.0, 0.0), (1.0, 0.0))).mean_entropy[0] == 0.0


def test_entropy_uniform_pair():
    assert scored(((0.5, 0.5),)).mean_entropy[0] == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_mixed_positions():
    # oracle: mean of ln 2 and 0
    expected = math.log(2) / 2
    assert expected == pytest.approx(0.34657359, rel=1e-7)
    assert scored(((0.5, 0.5), (1.0, 0.0))).mean_entropy[0] == pytest.approx(expected, rel=1e-12)


def test_entropy_empty_sequence():
    with pytest.raises(ValidationError, match="token_probs has no positions"):
        scored(((0.5, 0.5),), ())


def margins_of(scores, i=0):
    return scores.mean_margin[i], scores.min_margin[i]


def test_margins_constant():
    assert margins_of(scored(((0.9, 0.1), (0.9, 0.1)))) == pytest.approx((0.8, 0.8))


def test_margins_mixed():
    # oracle: mean((0.2, 0.8)) and min
    mean_m, min_m = margins_of(scored(((0.6, 0.4), (0.9, 0.1))))
    assert mean_m == pytest.approx(0.5, rel=1e-12)
    assert min_m == pytest.approx(0.2, rel=1e-12)


def test_margins_tie():
    assert margins_of(scored(((0.5, 0.5),))) == (0.0, 0.0)


def test_margins_insufficient_candidates():
    # a position without a runner-up never reaches the scorer: the pool rejects it
    with pytest.raises(ValidationError, match="position 0 has fewer than 2 entries"):
        scored(((0.9,),))


def test_log_space_matches_direct_product(rng):
    traces = []
    for _ in range(200):
        length = int(rng.integers(1, 21))
        traces.append(tuple((float(p), 0.0) for p in rng.uniform(0.01, 1.0, size=length)))
    conf = scored(*traces).confidence
    for i, probs in enumerate(traces):
        direct = float(np.prod([p[0] for p in probs]))
        assert conf[i] == pytest.approx(direct, rel=1e-9)


def test_permutation_invariance(rng):
    probs = [
        (float(a), float(b))
        for a, b in zip(rng.uniform(0.5, 1.0, size=12), rng.uniform(0.0, 0.5, size=12))
    ]
    shuffled = [probs[i] for i in rng.permutation(len(probs))]
    scores = scored(tuple(probs), tuple(shuffled))
    assert scores.confidence[0] == pytest.approx(scores.confidence[1], rel=1e-12)
    assert scores.mean_entropy[0] == pytest.approx(scores.mean_entropy[1], rel=1e-12)
    assert margins_of(scores, 0) == pytest.approx(margins_of(scores, 1), rel=1e-12)


def test_lowering_one_probability_lowers_confidence():
    base = [(0.9, 0.0), (0.8, 0.0), (0.7, 0.0)]
    for j in range(3):
        bumped = list(base)
        bumped[j] = (base[j][0] - 0.05, 0.0)
        conf = scored(tuple(bumped), tuple(base)).confidence
        assert conf[0] < conf[1]


def test_precomputed_confidence_takes_precedence():
    rec = PromptRecord(
        id="r", task="t", confidence=0.123456789, token_probs=((0.9, 0.1), (0.9, 0.1))
    )
    scores = score_pool(Pool([rec]))
    assert scores.confidence[0] == 0.123456789  # exactly the field value
    assert scores.log_confidence[0] == math.log(0.123456789)
    assert not np.isnan(scores.mean_entropy[0])  # trace still feeds the other scores


def test_score_pool_omits_absent_inputs():
    scores = score_pool(Pool([PromptRecord(id="r", task="t", confidence=0.5)]))
    assert np.isnan(scores.mean_entropy[0])
    assert np.isnan(scores.mean_margin[0])
    assert scores.confidence[0] == 0.5


def test_min_margin_never_exceeds_mean_margin(rng):
    traces = []
    for _ in range(50):
        length = int(rng.integers(1, 10))
        top = rng.uniform(0.5, 1.0, size=length)
        second = rng.uniform(0.0, 0.5, size=length)
        traces.append(tuple((float(a), float(b)) for a, b in zip(top, second)))
    scores = scored(*traces)
    assert np.all(scores.min_margin <= scores.mean_margin + 1e-15)


def test_task_mean_confidence_simple():
    pool = make_pool({"a": 2}, confidences=[0.2, 0.4])
    tc = task_mean_confidence(pool)
    assert tc[0] == pytest.approx(0.3, rel=1e-12)


def test_task_mean_confidence_single_member():
    pool = make_pool({"a": 1}, confidences=[0.7])
    assert task_mean_confidence(pool)[0] == pytest.approx(0.7)


def test_task_mean_confidence_from_traces():
    # oracle: mean of the confidence-example products
    traces = [
        ((0.9, 0.05), (0.8, 0.1), (0.7, 0.2)),
        ((0.5, 0.5), (0.5, 0.5)),
        ((0.5, 0.4), (0.5, 0.4)),
    ]
    expected = (0.504 + 0.25 + 0.25) / 3
    pool = make_pool({"a": 3}, token_probs=traces)
    assert task_mean_confidence(pool)[0] == pytest.approx(expected, rel=1e-9)


def test_task_mean_confidence_bounded_by_members(rng):
    confs = [float(c) for c in rng.uniform(0.05, 1.0, size=9)]
    pool = make_pool({"a": 4, "b": 5}, confidences=confs)
    tc = task_mean_confidence(pool)
    for t, label in enumerate(pool.partition.tasks):
        vals = [confs[i] for i in pool.partition.members_of(label)]
        assert min(vals) <= tc[t] <= max(vals)


def test_task_mean_confidence_floor():
    # long trace drives the raw product far below the floor
    trace = tuple(((0.1, 0.05),) * 200)
    pool = make_pool({"a": 1}, token_probs=[trace])
    assert task_mean_confidence(pool)[0] == CONFIDENCE_FLOOR


def test_missing_confidence_raises():
    pool = Pool([PromptRecord(id="bare", task="t")])
    with pytest.raises(MissingConfidence, match="'bare'"):
        task_mean_confidence(pool)


def test_scores_cache_round_trip(tmp_path):
    traces = [((0.9, 0.05), (0.8, 0.1)), ((0.7, 0.3), (0.6, 0.2))]
    pool = make_pool({"a": 2}, token_probs=traces)
    scores = score_pool(pool)
    path = tmp_path / "scores.jsonl"
    path.write_text(render_scores(pool, scores))
    loaded = read_scores(path, pool)
    for name in ("confidence", "log_confidence", "mean_entropy", "mean_margin", "min_margin"):
        assert np.array_equal(getattr(loaded, name), getattr(scores, name))


def test_scores_cache_omits_absent_fields(tmp_path):
    pool = make_pool({"a": 1}, confidences=[0.5])
    text = render_scores(pool, score_pool(pool))
    assert "mean_entropy" not in text
    assert "confidence" in text


def ulps(a, b):
    """Distance in units in the last place between float64 arrays."""
    ia, ib = (np.asarray(x, dtype=np.float64).view(np.int64) for x in (a, b))
    ia = np.where(ia < 0, np.int64(-(2**63)) - ia, ia)
    ib = np.where(ib < 0, np.int64(-(2**63)) - ib, ib)
    return np.abs(ia - ib)


def test_score_pool_matches_scalar_reference(rng):
    traces = []
    for _ in range(300):
        length = int(rng.integers(1, 60))
        width = int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(width + 1), size=length)[:, :width]
        rows[rng.random(size=rows.shape) < 0.05] = 0.0  # some exact zeros
        rows = -np.sort(-rows, axis=1)
        rows[:, 0] = np.maximum(rows[:, 0], 1e-3)  # a realized token is never 0
        traces.append(tuple(tuple(map(float, row)) for row in rows))
    pool = make_pool({"t": len(traces)}, token_probs=traces)
    scores = score_pool(pool)
    ref_log = [log_confidence(t) for t in traces]
    ref_entropy = [mean_entropy(t) for t in traces]
    ref_mean_margin, ref_min_margin = zip(*(margins(t) for t in traces))
    assert ulps(scores.log_confidence, ref_log).max() <= 4
    assert ulps(scores.mean_entropy, ref_entropy).max() <= 8
    assert ulps(scores.mean_margin, ref_mean_margin).max() <= 8
    assert np.array_equal(scores.min_margin, ref_min_margin)
    assert np.array_equal(scores.confidence, np.exp(scores.log_confidence))


def test_task_means_of_confidence_fields_are_exact(rng):
    sizes = {f"t{i:02d}": int(rng.integers(1, 400)) for i in range(30)}
    confs = [float(c) for c in rng.uniform(0.01, 1.0, size=sum(sizes.values()))]
    labels = [t for t, size in sizes.items() for _ in range(size)]
    order = rng.permutation(len(confs))  # interleave the tasks
    pool = Pool(
        [PromptRecord(id=f"r{i}", task=labels[i], confidence=confs[i]) for i in order]
    )
    values = task_mean_confidence(pool)
    conf = np.array([confs[i] for i in order])
    for t, label in enumerate(pool.partition.tasks):
        members = np.array([i for i, j in enumerate(order) if labels[j] == label])
        assert values[t] == conf[members].mean()  # bit for bit
    scores = score_pool(pool)
    assert np.array_equal(scores.confidence, conf)
    assert scores.log_confidence.tolist() == [math.log(c) for c in conf]


def test_degenerate_trace_without_confidence_fails_scoring():
    pool = make_pool({"t": 2}, token_probs=[((0.9, 0.1),), ((0.5, 0.5), (0.0, 0.0))])
    with pytest.raises(DegenerateProbability, match="'ex-0001'.*position 1"):
        score_pool(pool)
    rescued = make_pool({"t": 1}, confidences=[0.4], token_probs=[((0.0, 0.0),)])
    assert score_pool(rescued).confidence[0] == 0.4


def test_scores_cache_keeps_log_confidence_past_underflow(tmp_path):
    pool = make_pool({"t": 2}, token_probs=[((0.3, 0.2),) * 700, ((0.9, 0.1),)])
    path = tmp_path / "scores.jsonl"
    path.write_text(render_scores(pool, score_pool(pool)))
    loaded = read_scores(path, pool)
    assert loaded.confidence[0] == 0.0
    assert loaded.log_confidence[0] == score_pool(pool).log_confidence[0] < -745


def _cache(tmp_path, lines):
    path = tmp_path / "scores.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return path


@pytest.mark.parametrize(
    "lines, error, message",
    [
        (
            [{"id": "ex-0000"}, {"id": "ex-0001"}, {"id": "ex-0000"}],
            ValidationError,
            ":3: id 'ex-0000' repeats line 1",
        ),
        ([{"id": "ex-0000"}, {"id": "zzz"}], ValidationError, ":2: id 'zzz' is not in the pool"),
        ([{"id": "ex-0000"}], ValidationError, "missing record 'ex-0001'"),
        (
            [{"id": "ex-0000"}, {"id": "ex-0001", "confidence": 0.5}],
            ParseError,
            ":2: record 'ex-0001': .*re-run `taskpick score`",
        ),
        (
            [{"id": "ex-0000"}, {"id": "ex-0001", "confidence": 0.0, "log_confidence": -1.0}],
            ValidationError,
            ":2: record 'ex-0001': cached confidence is outside",
        ),
        (
            [{"id": "ex-0000", "mean_margin": float("nan")}, {"id": "ex-0001"}],
            ParseError,
            ":1: record 'ex-0000': a score is not finite",
        ),
    ],
)
def test_read_scores_rejects_malformed_caches(tmp_path, lines, error, message):
    pool = make_pool({"t": 2})
    with pytest.raises(error, match=message):
        read_scores(_cache(tmp_path, lines), pool)
