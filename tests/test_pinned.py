"""Pinned selections of the greedy selectors on 6K prefixes of the desk pool.

Each case pins a digest of the selected indices, FL's work counters, and
the final objective value. A change that alters a pick on purpose updates
this table and says why in CHANGES.md; any other change must leave it as
it is. The embeddings are the float32 rows the sidecar holds, widened to
float64 as ``Pool.embedding_matrix`` widens them.
"""

import hashlib

import numpy as np
import pytest

from desk import desk_arrays
from taskpick.selectors import KernelSpec, select_dpp, select_facility_location, select_k_center

ROWS = 6_000
RBF = KernelSpec("rbf", 0.002)

# name: (selector, seed, kernel, budget, digest, FL stats, final objective)
PINNED = {
    "fl-rbf-801": (
        select_facility_location, 801, RBF, 1_000, "8282ce93afac9feb",
        {"kernel_entries": 64657335, "gain_evaluations": 5249, "front_demotions": 4115,
         "near_tie_picks": 197},
        4138.972677889521,
    ),
    "fl-rbf-802": (
        select_facility_location, 802, RBF, 1_000, "0ad6d9cbbda08e16",
        {"kernel_entries": 67026729, "gain_evaluations": 5250, "front_demotions": 4132,
         "near_tie_picks": 208},
        4292.784531382566,
    ),
    "fl-rbf-803": (
        select_facility_location, 803, RBF, 1_000, "27aaafd07d2fc826",
        {"kernel_entries": 66953499, "gain_evaluations": 5234, "front_demotions": 3991,
         "near_tie_picks": 208},
        4273.87790542694,
    ),
    "fl-euclidean-801": (
        select_facility_location, 801, KernelSpec("euclidean"), 1_000, "f3d531161bc5840d",
        {"kernel_entries": 149858493, "gain_evaluations": 16339, "front_demotions": 15144,
         "near_tie_picks": 280},
        -4338496.555274526,
    ),
    "fl-cosine-801": (
        select_facility_location, 801, KernelSpec("cosine"), 1_000, "88da6d5bddac7c4e",
        {"kernel_entries": 247796664, "gain_evaluations": 30598, "front_demotions": 29391,
         "near_tie_picks": 181},
        5448.743443021247,
    ),
    "dpp-euclidean-801": (
        select_dpp, 801, KernelSpec("euclidean"), 1_000, "3593359e554b168d", None,
        -12211.81074683567,
    ),
    "dpp-cosine-801": (
        select_dpp, 801, KernelSpec("cosine"), 1_000, "128b62bbdbe247b0", None,
        -12755.938832026588,
    ),
    "k-center-801": (
        select_k_center, 801, None, 2_000, "77839b8e547567ed", None, 24.04958949202492,
    ),
}


@pytest.fixture(scope="module")
def prefixes():
    cache = {}

    def prefix(seed):
        if seed not in cache:
            cache[seed] = desk_arrays(seed)[3][:ROWS].astype(np.float64)
        return cache[seed]

    return prefix


def digest(selected) -> str:
    return hashlib.sha256(",".join(map(str, selected)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", PINNED)
def test_selection_is_pinned(name, prefixes):
    select, seed, kernel, budget, expected, stats, objective = PINNED[name]
    result = select(prefixes(seed), budget, kernel)
    assert len(result.selected) == budget
    assert digest(result.selected) == expected
    assert result.stats == stats
    assert result.objective_trace[-1] == pytest.approx(objective, rel=1e-12)
