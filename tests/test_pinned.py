"""Pinned selections on prefixes of the desk pool.

The greedy selectors run on 6K prefixes; each case pins a digest of the
selected indices, the selector's work counters, and the final objective
value. The scoring strategies run on the 3K token-trace pool;
each case pins a digest of the selected ids and one of the per-task counts.
A change that alters a pick on purpose updates these tables and says why in
CHANGES.md; any other change must leave them as they are. The embeddings
are the float32 rows the sidecar holds, widened to float64 as the
selectors' kernel widens them. Each strategy's whole CLI manifest is pinned
on both pools too, less its input paths and its objective trace.

Every input here comes from perfbench/gen.py, the desk pool's one generator,
which acceptance criterion 7, the benchmark and tools/desk_probe.py use too.
The token pool is one file that the in-process pins and the CLI pins both
read.
"""

import hashlib
import json

import numpy as np
import pytest

import gen
from reference import kcenter_sq_radii
from taskpick.cli import main
from taskpick.pool import load_pool
from taskpick.selectors import (
    KernelSpec,
    StrategyConfig,
    run_strategy,
    select_dpp,
    select_facility_location,
    select_k_center,
)

ROWS = 6_000
RBF = KernelSpec("rbf", 0.002)

# name: (selector, seed, kernel, budget, digest, stats, final objective)
PINNED = {
    "fl-rbf-801": (
        select_facility_location, 801, RBF, 1_000, "8282ce93afac9feb",
        {"kernel_entries": 62408631, "gain_evaluations": 5249, "front_demotions": 4115,
         "near_tie_picks": 197},
        4138.972677889521,
    ),
    "fl-rbf-802": (
        select_facility_location, 802, RBF, 1_000, "0ad6d9cbbda08e16",
        {"kernel_entries": 64778025, "gain_evaluations": 5250, "front_demotions": 4132,
         "near_tie_picks": 208},
        4292.784531382566,
    ),
    "fl-rbf-803": (
        select_facility_location, 803, RBF, 1_000, "27aaafd07d2fc826",
        {"kernel_entries": 64704795, "gain_evaluations": 5234, "front_demotions": 3991,
         "near_tie_picks": 208},
        4273.87790542694,
    ),
    "fl-euclidean-801": (
        select_facility_location, 801, KernelSpec("euclidean"), 1_000, "f3d531161bc5840d",
        {"kernel_entries": 128849853, "gain_evaluations": 16339, "front_demotions": 15144,
         "near_tie_picks": 280},
        -4338496.555274526,
    ),
    "fl-cosine-801": (
        select_facility_location, 801, KernelSpec("cosine"), 1_000, "88da6d5bddac7c4e",
        {"kernel_entries": 226788024, "gain_evaluations": 30598, "front_demotions": 29391,
         "near_tie_picks": 181},
        5448.743443021247,
    ),
    "dpp-euclidean-801": (
        select_dpp, 801, KernelSpec("euclidean"), 1_000, "3593359e554b168d",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 0},
        -12211.81074683567,
    ),
    "dpp-cosine-801": (
        select_dpp, 801, KernelSpec("cosine"), 1_000, "128b62bbdbe247b0",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 1},
        -12755.938832026588,
    ),
    "dpp-euclidean-802": (
        select_dpp, 802, KernelSpec("euclidean"), 1_000, "4df6f9ab47ec99f9",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 0},
        -12211.893762974765,
    ),
    "dpp-cosine-802": (
        select_dpp, 802, KernelSpec("cosine"), 1_000, "6b366ff79c1acc50",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 1},
        -12755.973412412848,
    ),
    "dpp-euclidean-803": (
        select_dpp, 803, KernelSpec("euclidean"), 1_000, "99ab4463fc000502",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 0},
        -12212.395598839183,
    ),
    "dpp-cosine-803": (
        select_dpp, 803, KernelSpec("cosine"), 1_000, "e39f324928f655f5",
        {"kernel_entries": 0, "jitter_step": 64, "near_tie_picks": 1},
        -12755.975717793228,
    ),
    "k-center-801": (
        select_k_center, 801, None, 2_000, "77839b8e547567ed",
        {"kernel_entries": 13920000, "column_blocks": 145, "near_tie_picks": 0}, 24.04958949202492,
    ),
    "k-center-802": (
        select_k_center, 802, None, 2_000, "a27c213d82f41770",
        {"kernel_entries": 13824000, "column_blocks": 144, "near_tie_picks": 0}, 21.132099657988412,
    ),
    "k-center-803": (
        select_k_center, 803, None, 2_000, "4909c3fac53f6d29",
        {"kernel_entries": 13728000, "column_blocks": 143, "near_tie_picks": 0}, 19.95603029620634,
    ),
}

TOKEN_ROWS, TOKEN_SEED, TOKEN_BUDGET = 3_000, 801, 2_800

# strategy: (selected ids digest, per-task counts digest) on the token-trace pool
PINNED_TOKEN = {
    "least_confidence": ("49ca31f1abed0205", "c0e7eaefeee9be67"),
    "mean_entropy": ("a9c432938904033a", "724a75e683d0c290"),
    "mean_margin": ("b237b586130d43af", "866f23cc98589975"),
    "min_margin": ("824a54213123dfc6", "8fa405ec0056b54e"),
    "weighted_task_diversity": ("5a1521458894784f", "d6257c384879b3f1"),
    "active_it": ("af19ce166c481ea7", "8bffff4a68b74fc8"),
}


# strategy: extra CLI arguments on the 6K desk prefix, which runs at budget
# 1K and facility location with the benchmark's kernel
DESK_MANIFEST_ARGS = {
    "random": (),
    "least_confidence": (),
    "task_diversity": (),
    "weighted_task_diversity": (),
    "active_it": (),
    "k_center": ("--budget", "2000"),
    "facility_location": ("--kernel", "rbf", "--gamma", "0.002"),
    "dpp": (),
}

# (pool, strategy): digest of the CLI manifest without inputs and objective_trace
PINNED_MANIFESTS = {
    ("token", "random"): "af9b49238568cc60",
    ("token", "least_confidence"): "2f6647308f310204",
    ("token", "mean_entropy"): "57f189abe8eae6af",
    ("token", "mean_margin"): "ed7d24ddfbdc8e9f",
    ("token", "min_margin"): "22163a48c3764a75",
    ("token", "task_diversity"): "fce26bdc9f46677d",
    ("token", "weighted_task_diversity"): "36eeeca433d20d08",
    ("token", "active_it"): "f399d32718aa7187",
    ("desk", "random"): "1cf191785b6f79b8",
    ("desk", "least_confidence"): "ebeccf34849b3e72",
    ("desk", "task_diversity"): "673eaf0a6bc0981e",
    ("desk", "weighted_task_diversity"): "a62748132b30ed10",
    ("desk", "active_it"): "19a3b28146407daa",
    ("desk", "k_center"): "90fa4173443d1b44",
    ("desk", "facility_location"): "665bb8668fba57cd",
    ("desk", "dpp"): "d98fd7577d817ad1",
}


@pytest.fixture(scope="module")
def prefixes():
    cache = {}

    def prefix(seed):
        if seed not in cache:
            cache[seed] = gen.desk_arrays(seed)[3][:ROWS].astype(np.float64)
        return cache[seed]

    return prefix


@pytest.fixture(scope="module")
def token_path(tmp_path_factory):
    """The first TOKEN_ROWS desk ids and tasks, each with a 40 x 5 token trace."""
    path = tmp_path_factory.mktemp("token") / "token.jsonl"
    gen.write_token_pool(path, TOKEN_SEED, TOKEN_ROWS)
    return path


@pytest.fixture(scope="module")
def token_pool(token_path):
    return load_pool(token_path)


def digest(items) -> str:
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()[:16]


# DPP's trace values, as float.hex, at the last step and at the step where an
# in-place re-base on the kernel's row-major rows moved them most (by up to
# 128 ulps); the re-base into a column-major copy gives them to the bit.
# They hold for the BLAS these pins were recorded with (scipy-openblas
# 0.3.31, DYNAMIC_ARCH, on a Haswell-class x86-64 core); another BLAS kernel
# may round the products differently, while the picks above still hold
PINNED_DPP_TRACES = {
    "dpp-euclidean-801": {104: "0x1.53f02a6c72184p+1", 999: "-0x1.7d9e7c68d6445p+13"},
    "dpp-euclidean-802": {104: "0x1.31cd2ea1dcc9cp+1", 999: "-0x1.7d9f266d33d7ep+13"},
    "dpp-euclidean-803": {104: "0x1.9dd07e8aa52c8p+0", 999: "-0x1.7da32a2fb9650p+13"},
    "dpp-cosine-801": {125: "-0x1.9ad7771f72655p+9", 999: "-0x1.8e9f82ba5d951p+13"},
    "dpp-cosine-802": {301: "-0x1.8ee3d5256a4e2p+11", 999: "-0x1.8e9fc98c72759p+13"},
    "dpp-cosine-803": {999: "-0x1.8e9fce4521604p+13"},
}


@pytest.mark.parametrize("name", PINNED)
def test_selection_is_pinned(name, prefixes):
    select, seed, kernel, budget, expected, stats, objective = PINNED[name]
    result = select(prefixes(seed), budget, kernel)
    assert len(result.selected) == budget
    assert digest(result.selected) == expected
    assert result.stats == stats
    assert result.objective_trace[-1] == pytest.approx(objective, rel=1e-12)
    for step, value in PINNED_DPP_TRACES.get(name, {}).items():
        assert result.objective_trace[step].hex() == value, step


# the greedy selectors and kernels whose budget sweeps PREFIX_BUDGETS check
GREEDY = {
    "fl-rbf": (select_facility_location, RBF),
    "fl-cosine": (select_facility_location, KernelSpec("cosine")),
    "k-center": (select_k_center, None),
    "dpp-euclidean": (select_dpp, KernelSpec("euclidean")),
    "dpp-rbf": (select_dpp, RBF),
}
PREFIX_ROWS, PREFIX_BUDGETS = 3_000, (150, 600)


@pytest.mark.parametrize("name", GREEDY)
def test_greedy_budgets_are_prefixes(name, prefixes):
    # a greedy run never looks at its budget before it stops, so the run at
    # a smaller budget is the first picks and trace values of a larger one
    select, kernel = GREEDY[name]
    small, large = PREFIX_BUDGETS
    short, full = (select(prefixes(801)[:PREFIX_ROWS], budget, kernel) for budget in PREFIX_BUDGETS)
    assert len(full.selected) == large
    assert short.selected == full.selected[:small]
    assert [x.hex() for x in short.objective_trace] == [x.hex() for x in full.objective_trace[:small]]
    # the near-tie warning counts the picks made, so only its first step
    # must hold; every other warning is the same
    ties = [[w for w in run.warnings if w.startswith("near-tie picks: ")] for run in (short, full)]
    assert [w for w in short.warnings if w not in ties[0]] == [w for w in full.warnings if w not in ties[1]]
    assert short.stats["near_tie_picks"] <= full.stats["near_tie_picks"]
    if ties[0]:
        assert ties[0][0].split(", ")[1] == ties[1][0].split(", ")[1]


def test_k_center_trace_is_within_the_kernel_tolerance(prefixes):
    # each trace value, squared, is within (d + 2) eps (|x|^2 + |y|^2) of the
    # squared covering radius that cdist gives for the same picks
    points = prefixes(801)[:PREFIX_ROWS]
    result = select_k_center(points, PREFIX_BUDGETS[1])
    radii, bounds = kcenter_sq_radii(points, result.selected)
    assert np.all(np.abs(np.square(result.objective_trace) - radii) <= bounds)


@pytest.mark.parametrize("strategy", PINNED_TOKEN)
def test_token_pool_selection_is_pinned(strategy, token_pool):
    result = run_strategy(token_pool, StrategyConfig(strategy, budget=TOKEN_BUDGET))
    ids = token_pool.ids()
    part = token_pool.partition
    counts = np.bincount(part.codes[result.selected], minlength=len(part.tasks))
    assert (digest(ids[i] for i in result.selected), digest(counts.tolist())) == PINNED_TOKEN[strategy]


@pytest.fixture(scope="module")
def cli_pools(tmp_path_factory, token_path):
    """CLI arguments for the token pool file and the 6K desk prefix with its sidecar."""
    root = tmp_path_factory.mktemp("pinned")
    # the same seed as the token pool, so both have the same ids and tasks
    gen.write_desk_pool(root / "desk.jsonl", root / "desk.bin", TOKEN_SEED, rows=ROWS)
    return root, {
        "token": ("--pool", str(token_path), "--budget", str(TOKEN_BUDGET)),
        "desk": ("--pool", str(root / "desk.jsonl"), "--embeddings", str(root / "desk.bin"),
                 "--budget", "1000"),
    }


@pytest.mark.parametrize("pool, strategy", PINNED_MANIFESTS)
def test_cli_manifest_is_pinned(pool, strategy, cli_pools):
    root, pool_args = cli_pools
    out = root / f"{pool}-{strategy}.json"
    extra = DESK_MANIFEST_ARGS[strategy] if pool == "desk" else ()
    args = ["select", *pool_args[pool], "--strategy", strategy, *extra, "--output", str(out)]
    assert main(args) == 0
    manifest = json.loads(out.read_text())
    del manifest["inputs"]
    manifest.pop("objective_trace", None)
    blob = json.dumps(manifest, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PINNED_MANIFESTS[pool, strategy]
