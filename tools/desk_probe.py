"""Run one greedy selector on acceptance criterion 7's 90K pool and report it.

Usage, from a taskpick checkout:

    PYTHONPATH=src python tools/desk_probe.py facility_location --kernel rbf --gamma 0.002
    PYTHONPATH=src python tools/desk_probe.py dpp --kernel euclidean --budget 1000
    PYTHONPATH=src python tools/desk_probe.py dpp --kernel cosine
    PYTHONPATH=src python tools/desk_probe.py k_center --budget 30000

k-center always runs on the euclidean kernel, and the probe refuses any other
``--kernel`` for it. The kernel is resolved as ``taskpick select`` resolves it:
facility location defaults to rbf and DPP to euclidean, ``--gamma`` applies to
rbf only, and the JSON echoes the kernel and gamma the selector ran with.

The inputs are ``perfbench/gen.py``'s desk embeddings at seed 707 (90K x 64
float32), the same rows criterion 7 reads back from its sidecar, widened to
float64 as criterion 7 does. A child process generates them, so the
generator's float64 temporaries never count in this process's peak; this
process then runs one selector, so its ru_maxrss is the loaded rows plus that
selector's.

It prints one JSON object: a digest of the selected ids (p000000..p089999,
as criterion 7 digests them), ``stats``, the last objective value and a
digest of the whole trace (``float.hex``), the warnings, the call's seconds,
and ru_maxrss before and after the call in MiB.

The probe is opt-in: neither the tests nor the benchmark run it.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)

from gen import record_id  # noqa: E402
from taskpick.selectors import (  # noqa: E402
    _KERNEL_KINDS,
    _resolve_kernel,
    select_dpp,
    select_facility_location,
    select_k_center,
)

SELECTORS = {"facility_location": select_facility_location, "dpp": select_dpp, "k_center": select_k_center}


def digest(items) -> str:
    return hashlib.sha256(",".join(items).encode()).hexdigest()[:16]


def max_rss_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("strategy", choices=SELECTORS)
    parser.add_argument("--kernel", choices=_KERNEL_KINDS)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--budget", type=int, default=1_000)
    args = parser.parse_args(argv)
    if args.strategy == "k_center" and (args.kernel not in (None, "euclidean") or args.gamma is not None):
        parser.error("k_center uses the euclidean kernel only")
    # as the CLI resolves it: the strategy's default kind, gamma for rbf only
    kernel = _resolve_kernel(args.strategy, args.kernel, args.gamma)

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/emb707.npy"
        build = "import sys, numpy; sys.path.insert(0, sys.argv[1]); from gen import desk_arrays;" \
                " numpy.save(sys.argv[2], desk_arrays(707)[3])"
        subprocess.run([sys.executable, "-c", build, PERFBENCH, path], check=True)
        embeddings = np.load(path).astype(np.float64)
    before = max_rss_mib()
    started = time.perf_counter()
    result = SELECTORS[args.strategy](embeddings, args.budget, kernel)
    seconds = time.perf_counter() - started
    trace = result.objective_trace
    print(json.dumps({
        "strategy": args.strategy, "kernel": kernel.kind, "gamma": kernel.gamma,
        "budget": args.budget,
        "ids_digest": digest(record_id(i) for i in result.selected),
        "stats": result.stats,
        "objective_last": trace[-1].hex(),
        "trace_digest": digest(x.hex() for x in trace),
        "warnings": result.warnings,
        "seconds": round(seconds, 2),
        "max_rss_before_mib": before,
        "max_rss_mib": max_rss_mib(),
    }))


if __name__ == "__main__":
    main()
