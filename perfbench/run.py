"""End-to-end benchmark of the taskpick CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload token_traces --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 58 --trace 1

Run it from anywhere inside a source checkout; it uses ``src/`` of the
checkout it lives in and never an installed copy. The inputs are generated
from ``--seed`` into ``perfbench/.work`` (kept for the last seed of each
workload, made outside any timing), so the program sees only files.

Every command runs as a user would run it: one ``python3 -m taskpick.cli``
child process at a time, timed from this process and with its peak RSS read
by ``os.wait4``. BLAS never gets more threads than the CPUs this process
may use. A run repeats the workload's command sequence (a "pass") while
another pass still fits in ``--seconds`` and reports each command's median
over its samples. Before every ``SETUP_EVERY``-th command of a pass it
times a fresh process that imports taskpick and loads the workload's pool
(``setup_s``, the median of at least ``SETUP_SAMPLES`` samples), and a
fresh process that runs ``REFERENCE_CODE``.

The times of ``--trace 0`` are scaled to a fixed host speed: each is
multiplied by ``REFERENCE_S`` over the median reference time of the same
run. On a shared machine the host's speed drifts by 20-30% over minutes,
and the program's times and the reference's drift together, so the
scaled times are steady from run to run while a change to the program
moves them as it moves raw wall time. The raw times are kept in the
record and printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer ones: it probes the pool layer alone, then runs passes in which
each command's untraced run is followed at once by its traced twin:
``traced.py`` runs the same CLI command in its own process with a span
around every call into the package's public functions. The twin's
selection must equal the CLI's. A traced command's ``cli.overhead_s`` is
its wall time minus the spans of the other layers, so the layers plus cli
account for the whole command; the tracing overhead,
``cli.trace_overhead_s``, is the twin's wall time minus that of the
untraced run just before it, summed over a pass. It includes the
difference in how the two start (the CLI runs under ``-m``), and it is
reported as unresolved while it is within its passes' quartile spread.

Every command's output is checked (see ``check_select``); a failed check
counts as a failed operation and never stops the run. The last line of
stdout is the JSON result; the lines above it are a readable report, and
the full record (machine, inputs, digests, per-pass times) is written to
``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_SAMPLES = 3
SETUP_EVERY = 2
# Fixed work that never imports taskpick: start Python, import numpy,
# round-trip token-trace-like JSON records and multiply a few matrices,
# the kinds of work the workloads do.
REFERENCE_CODE = """
import json
import numpy as np
rng = np.random.default_rng(0)
probs = rng.random((1000, 40, 5)).round(6).tolist()
lines = [json.dumps({"id": i, "token_probs": p}) for i, p in enumerate(probs)]
rows = [json.loads(line) for line in lines]
x = rng.random((2000, 64))
for _ in range(5):
    (x @ x.T).sum()
"""
# Fixes the unit of the scaled times: the seconds a run would have taken on
# a host where the reference takes this long. On the machine of
# perfbench/baseline.json the reference took 0.4 s in a quiet hour and
# about 0.57 s while the baseline was measured (its host_speed_scale).
REFERENCE_S = 0.4
STARTUP_SAMPLES = 3
# A child that runs longer than this is killed and counted as failed, so a
# run always ends.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``kind`` groups commands into metrics: score, alloc (allocation
    strategies), rank (random and uncertainty), fl, dpp, kcenter, report.
    """

    name: str
    kind: str
    budget: int = 0
    cached: bool = False  # pass --scores-cache, written earlier by the score step
    extra: tuple = ()
    target: str = ""  # report: the select step whose manifest it reads
    # Runs per pass. Sub-second commands vary by 20-30% from one process to
    # the next on a shared 2-CPU machine, so they get more samples.
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    pool: str  # "desk": confidence-only records; "token": token_probs traces
    rows: int
    sidecar: bool
    why: str
    steps: tuple


# BENCHMARK.json lists token_traces and desk_geometric. desk_alloc runs the
# same CLI paths at 15x the records and budget; on a shared 2-CPU machine its
# raw times spread by up to 26% of their median from one run to the next, and
# a third gated workload would not fit the benchmark's time limit at 58 s per
# run, so it is kept for reading, not for gating.
WORKLOADS = {
    "desk_alloc": Workload(
        pool="desk",
        rows=45_000,
        sidecar=False,
        why="The first 45K rows of criterion 7's 1,691-task confidence pool at budget 15K:"
        " flat-record parsing, allocation, round robin and 15K-id manifests; scoring and"
        " kernels idle.",
        steps=(
            Step("score", "score", repeat=2),
            Step("task_diversity", "alloc", 15_000),
            Step("weighted_task_diversity", "alloc", 15_000, cached=True),
            Step("active_it", "alloc", 15_000),
            Step("random", "rank", 15_000),
            Step("least_confidence", "rank", 15_000, cached=True),
            Step("report", "report", target="weighted_task_diversity"),
        ),
    ),
    "token_traces": Workload(
        pool="token",
        rows=3_000,
        sidecar=False,
        why="The first 3K desk ids and tasks with 40x5 token_probs traces at budget 2.8K:"
        " nested-JSON parsing, per-position validation and scoring dominate; the score cache"
        " is written and read.",
        steps=(
            Step("score", "score", repeat=2),
            Step("mean_entropy", "rank", 2_800, cached=True),
            Step("weighted_task_diversity", "alloc", 2_800, cached=True, repeat=2),
            Step("active_it", "alloc", 2_800),
            Step("min_margin", "rank", 2_800),
            Step("report", "report", target="weighted_task_diversity"),
        ),
    ),
    "desk_geometric": Workload(
        pool="desk",
        rows=6_000,
        sidecar=True,
        why="A 6K desk prefix with a float32 sidecar: FL kernel tiles and the DPP and"
        " k-center greedy loops dominate, next to task_diversity and random at budget 1K.",
        steps=(
            Step("score", "score", repeat=3),
            Step("task_diversity", "alloc", 1_000, repeat=3),
            Step("random", "rank", 1_000, repeat=3),
            Step("facility_location", "fl", 1_000, extra=("--kernel", "rbf", "--gamma", "0.002")),
            Step("dpp", "dpp", 1_000),
            Step("k_center", "kcenter", 2_000),
        ),
    ),
}

# (name, unit, what it is). The --trace 0 result carries exactly these, its
# times scaled to the reference's host speed (see the module docstring). The
# times each sum several commands: one sub-second command varies by 20-30%
# between processes on a shared 2-CPU machine, a sum of medians much less.
END_TO_END = (
    ("wall_s", "s", "summed wall time of every CLI command in a pass"),
    ("setup_s", "s", "fresh process: import taskpick, then load_pool (+ sidecar)"),
    ("select_s", "s", "summed wall time of every select command"),
    ("peak_rss_mb", "MB", "largest child ru_maxrss among the commands"),
)
# Reported beside them (and, for the geometric ones, only on the workload
# that runs the command); too noisy, or too specific, for the result line.
END_TO_END_EXTRA = (
    ("score_s", "s", "wall time of taskpick score"),
    ("select_alloc_s", "s", "summed wall time of the allocation-strategy selects"),
    ("select_rank_s", "s", "summed wall time of the random and uncertainty selects"),
    ("select_fl_s", "s", "wall time of the facility_location select"),
    ("select_dpp_s", "s", "wall time of the dpp select"),
    ("select_kcenter_s", "s", "wall time of the k_center select"),
    ("failed_ops", "ratio", "operations failed / attempted"),
)
KIND_METRIC = {
    "score": "score_s",
    "alloc": "select_alloc_s",
    "rank": "select_rank_s",
    "fl": "select_fl_s",
    "dpp": "select_dpp_s",
    "kcenter": "select_kcenter_s",
}

# (name, unit, the end-to-end metric it should move, and where). The
# --trace 1 result carries exactly these; every workload has them.
PER_LAYER = (
    ("pool.load_s", "s", "setup_s and every command; dominant on token_traces"),
    ("pool.validate_s", "s", "setup_s via load_pool: a Pool(records) rebuild"),
    ("pool.json_floor_s", "s", "reference only: json.loads over the same lines"),
    ("pool.load_over_floor", "ratio", "setup_s: how far load_pool is above plain parsing"),
    ("pool.self_s", "s", "wall_s: pool spans summed over a traced pass"),
    ("scoring.self_s", "s", "score_s, select_rank_s, select_alloc_s on token_traces"),
    ("scoring.score_pool_s", "s", "score_s on token_traces"),
    ("scoring.render_scores_s", "s", "score_s"),
    ("scoring.cache_bytes", "bytes", "score_s and cached selects (bytes written, read back)"),
    ("allocation.self_s", "s", "select_alloc_s on desk_alloc (milliseconds: little effect)"),
    ("selectors.self_s", "s", "every select; on desk_geometric the kernel selectors"),
    ("selectors.round_robin_s", "s", "select_alloc_s on desk_alloc"),
    ("selectors.round_robin_passes", "count", "select_alloc_s on desk_alloc (max per-task count)"),
    ("selectors.manifest_s", "s", "every select (manifest_payload)"),
    ("cli.startup_s", "s", "wall_s: bare process plus import taskpick.cli; most on desk_alloc"),
    ("cli.overhead_s", "s", "wall_s: traced command wall time minus its layer spans"),
)
PER_LAYER_EXTRA = (
    ("pool.read_embeddings_s", "s", "geometric selects on desk_geometric (small)"),
    ("pool.embedding_matrix_s", "s", "geometric selects on desk_geometric (small)"),
    ("scoring.positions_per_s", "1/s", "score_s on token_traces"),
    ("scoring.read_scores_s", "s", "select_rank_s (cached), most on token_traces"),
    ("scoring.task_mean_s", "s", "select_alloc_s, most on token_traces"),
    ("allocation.task_diversity_s", "s", "select_alloc_s on desk_alloc"),
    ("allocation.weighted_s", "s", "select_alloc_s on desk_alloc"),
    ("allocation.active_it_s", "s", "select_alloc_s on desk_alloc"),
    ("selectors.random_s", "s", "select_rank_s"),
    ("selectors.uncertainty_s", "s", "select_rank_s"),
    ("selectors.facility_location_s", "s", "select_fl_s and peak_rss_mb on desk_geometric"),
    ("selectors.dpp_s", "s", "select_dpp_s and peak_rss_mb on desk_geometric"),
    ("selectors.dpp_factor_bytes", "bytes", "peak_rss_mb: the k*N*8 DPP factor"),
    ("selectors.k_center_s", "s", "select_kcenter_s on desk_geometric"),
    ("selectors.k_center_flops", "flop", "select_kcenter_s: 2*k*N*d"),
    ("cli.trace_overhead_s", "s", "none: traced minus the paired untraced wall time, summed"),
)
LAYERS = ("pool", "scoring", "allocation", "selectors")


class Ops:
    """Operations attempted and failed; every child process is one."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


@dataclass(frozen=True)
class Inputs:
    pool: str
    sidecar: str | None
    ids: list
    task_of: dict
    record: dict


def blas_threads():
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    return max(1, min(asked, nproc))


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv, env, log_path):
    """Run one child to completion: (wall seconds, peak RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=log, env=env, cwd=ROOT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def _log_tail(path):
    text = Path(path).read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


# ---------------------------------------------------------------- inputs


def machine_record():
    def cache_size(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                continue
        return None

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "l2_cache": cache_size(2),
        "l3_cache": cache_size(3),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def prepare_inputs(name, wl, seed):
    """Generate (or reuse) the workload's files for this seed."""
    inputs_dir = WORK / "inputs"
    target = inputs_dir / f"{name}-seed{seed}"
    pool = target / "pool.jsonl"
    sidecar = target / "embeddings.bin" if wl.sidecar else None
    stamp = target / "complete"
    if not stamp.exists():
        for old in inputs_dir.glob(f"{name}-seed*"):
            shutil.rmtree(old)
        target.mkdir(parents=True)
        if wl.pool == "desk":
            gen.write_desk_pool(pool, sidecar, seed, wl.rows)
        else:
            gen.write_token_pool(pool, seed, wl.rows)
        stamp.write_text("")
    ids, tasks = gen.ids_and_tasks(seed, wl.rows)
    files = [pool] + ([sidecar] if sidecar else [])
    record = {
        "seed": seed,
        "files": {f.name: f.stat().st_size for f in files},
        "records": wl.rows,
        "positions": wl.rows * gen.TRACE_POSITIONS if wl.pool == "token" else 0,
        "candidates_per_position": gen.TRACE_CANDIDATES if wl.pool == "token" else 0,
        "tasks": len(set(tasks)),
        "embedding_dim": gen.DESK_DIM if wl.sidecar else 0,
    }
    return Inputs(str(pool), str(sidecar) if sidecar else None, ids, dict(zip(ids, tasks)), record)


# ---------------------------------------------------------------- checks


def digest(ids):
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()[:16]


def check_cache(path, inputs, token):
    """The score cache has one line per record, in pool order, with valid scores."""
    wanted = ("confidence", "mean_entropy", "mean_margin", "min_margin") if token else ("confidence",)
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"score cache unreadable: {exc}"]
    if [r.get("id") for r in rows] != inputs.ids:
        return ["score cache ids differ from the pool's"]
    for r in rows:
        if any(not isinstance(r.get(k), (int, float)) for k in wanted):
            return [f"score cache line {r['id']} lacks one of {wanted}"]
        if not 0.0 < r["confidence"] <= 1.0:
            return [f"score cache confidence {r['confidence']!r} outside (0, 1]"]
    return []


def check_select(step, path, inputs):
    """Problems with one select manifest, and the digest of its selection."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        selected = manifest["selected_ids"]
        per_task = manifest["per_task"]
        warnings = manifest["warnings"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest unreadable: {exc!r}"], None, None
    problems = []
    expected = min(step.budget, len(inputs.ids))
    if len(selected) != expected and not warnings:
        problems.append(f"selected {len(selected)}, expected {expected} and no warning says why")
    if len(set(selected)) != len(selected):
        problems.append("selected ids are not unique")
    if any(i not in inputs.task_of for i in selected):
        problems.append("selected ids outside the pool")
        return problems, digest(selected), manifest
    recount = Counter(inputs.task_of[i] for i in selected)
    if {t: c for t, c in per_task.items() if c} != dict(recount):
        problems.append("per_task differs from a recount of the selected ids")
    if step.kind == "alloc":
        for row in manifest.get("allocation") or ():
            if row["selected"] != per_task.get(row["task"]) or row["selected"] > row["alpha_ceil"]:
                problems.append(f"task {row['task']} exceeds its alpha_ceil or disagrees with per_task")
                break
        else:
            if not manifest.get("allocation"):
                problems.append("allocation table missing")
    trace = manifest.get("objective_trace") or []
    if step.kind == "fl" and any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])):
        problems.append("facility-location trace decreases")
    if step.kind == "kcenter" and any(b > a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])):
        problems.append("k-center trace increases")
    if step.kind in ("fl", "kcenter", "dpp") and len(trace) != len(selected):
        problems.append("objective trace length differs from the selection")
    return problems, digest(selected), manifest


# ---------------------------------------------------------------- passes


def cli_args(step, inputs, out_dir):
    pool_args = ["--pool", inputs.pool]
    if inputs.sidecar:
        pool_args += ["--embeddings", inputs.sidecar]
    cache = out_dir / "scores.jsonl"
    if step.kind == "score":
        return ["score", *pool_args, "--output", cache]
    if step.kind == "report":
        return ["report", out_dir / f"{step.target}.json"]
    args = ["select", *pool_args, "--strategy", step.name, "--budget", str(step.budget), *step.extra]
    if step.cached:
        args += ["--scores-cache", cache]
    return args + ["--output", out_dir / f"{step.name}.json"]


class Runner:
    def __init__(self, wl, inputs, run_dir, ops):
        self.wl, self.inputs, self.run_dir, self.ops = wl, inputs, run_dir, ops
        self.env = child_env()
        self.digests = {}  # step name -> selected-ids digest of the first pass
        self.reported = False
        self.passes = 0
        self.setup = []  # setup_s samples
        self.reference = []  # REFERENCE_CODE samples

    def child(self, argv):
        log = self.run_dir / "child.log"
        seconds, rss, code = run_child(argv, self.env, log)
        problems = [] if code == 0 else [f"exit code {code}: {_log_tail(log)}"]
        return seconds, rss, problems

    def setup_samples(self, count):
        code = "import sys, taskpick; taskpick.load_pool(sys.argv[1], sys.argv[2] or None)"
        for _ in range(count):
            argv = [sys.executable, "-c", code, self.inputs.pool, self.inputs.sidecar or ""]
            seconds, _, problems = self.child(argv)
            self.ops.record("setup", problems)
            self.setup.append(seconds)
            seconds, _, problems = self.child([sys.executable, "-c", REFERENCE_CODE])
            self.ops.record("reference", problems)
            self.reference.append(seconds)

    def startup_samples(self, count):
        times = []
        for _ in range(count):
            seconds, _, problems = self.child([sys.executable, "-c", "import taskpick.cli"])
            self.ops.record("startup", problems)
            times.append(seconds)
        return times

    def cli_pass(self, setup=False, traced=False):
        """One pass: per-step rows of seconds, RSS and checked outputs.

        ``setup`` interleaves setup and reference samples with the
        commands. ``traced`` follows each step's last run with its traced
        twin, stored in that step's last row under ``"traced"``.
        """
        self.passes += 1
        out_dir = self.run_dir / f"cli{self.passes}"
        out_dir.mkdir()
        if traced:
            traced_dir = self.run_dir / f"traced{self.passes}"
            traced_dir.mkdir()
        rows = []
        for index, step in enumerate(self.wl.steps):
            if setup and index % SETUP_EVERY == 0:
                self.setup_samples(1)
            argv = [sys.executable, "-m", "taskpick.cli", *cli_args(step, self.inputs, out_dir)]
            for _ in range(step.repeat):
                seconds, rss, problems = self.child(argv)
                row = {"step": step.name, "kind": step.kind, "seconds": seconds, "rss_mb": rss}
                if not problems:
                    problems, row["digest"], row["manifest"] = self.check(step, out_dir)
                self.ops.record(f"pass {self.passes} {step.name}", problems)
                rows.append(row)
            if traced:
                row["traced"] = self.traced_twin(step, out_dir, traced_dir)
        if not self.reported:
            self.reported = True
            self.report_every_manifest(out_dir)
        return out_dir, rows

    def check(self, step, out_dir):
        if step.kind == "score":
            return check_cache(out_dir / "scores.jsonl", self.inputs, self.wl.pool == "token"), None, None
        if step.kind == "report":
            return [], None, None
        try:
            problems, dig, manifest = check_select(step, out_dir / f"{step.name}.json", self.inputs)
        except (KeyError, TypeError, AttributeError) as exc:
            return [f"malformed manifest: {exc!r}"], None, None
        first = self.digests.setdefault(step.name, dig)
        if dig != first:
            problems.append(f"selection digest {dig} differs from the first pass's {first}")
        return problems, dig, manifest

    def report_every_manifest(self, out_dir):
        for step in self.wl.steps:
            if step.kind in ("score", "report"):
                continue
            manifest = out_dir / f"{step.name}.json"
            if manifest.exists():
                argv = [sys.executable, "-m", "taskpick.cli", "report", manifest]
                _, _, problems = self.child(argv)
                self.ops.record(f"report {step.name}", problems)

    def traced_twin(self, step, cli_dir, out_dir):
        """Run the step in traced.py; compare its output with the CLI's."""
        spans_path = out_dir / f"{step.name}.spans.json"
        argv = [sys.executable, HERE / "traced.py", spans_path, "--",
                *cli_args(step, self.inputs, out_dir)]
        seconds, _, problems = self.child(argv)
        spans = []
        if not problems:
            spans = json.loads(spans_path.read_text())["spans"]
            problems = self.compare(step, cli_dir, out_dir)
        self.ops.record(f"traced {step.name}", problems)
        return {"seconds": seconds, "spans": spans}

    def compare(self, step, cli_dir, out_dir):
        """The traced score cache is byte-identical; a traced selection has the same ids and counts."""
        if step.kind == "report":
            return []
        try:
            if step.kind == "score":
                same = (cli_dir / "scores.jsonl").read_bytes() == (out_dir / "scores.jsonl").read_bytes()
            else:
                ours = json.loads((out_dir / f"{step.name}.json").read_text())
                theirs = json.loads((cli_dir / f"{step.name}.json").read_text())
                same = all(ours[k] == theirs[k] for k in ("selected_ids", "per_task"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]
        return [] if same else ["traced output differs from the CLI's"]


# ---------------------------------------------------------------- metrics


def command_metrics(passes):
    """Each command's median over the passes, summed into wall_s and per kind."""
    times = {}
    for rows in passes:
        for r in rows:
            times.setdefault((r["step"], r["kind"]), []).append(r["seconds"])
    out = {"wall_s": 0.0}
    for (_, kind), values in times.items():
        median = statistics.median(values)
        out["wall_s"] += median
        metric = KIND_METRIC.get(kind)
        if metric:
            out[metric] = out.get(metric, 0.0) + median
        if kind not in ("score", "report"):
            out["select_s"] = out.get("select_s", 0.0) + median
    return out


def span_metrics(rows, inputs):
    """Per-layer numbers of one traced pass: self time per layer, time per
    traced call (``<span name>_s``, summed over the pass), and counts."""
    out, calls = Counter(), Counter()
    for row in rows:
        twin = row.get("traced")
        if twin is None:
            continue
        spans = twin["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        layer_time = 0.0
        for (name, start, end, _), inner in zip(spans, covered):
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                continue
            own = end - start - inner
            out[f"{layer}.self_s"] += own
            out[f"{name}_s"] += end - start
            calls[name] += 1
            layer_time += own
        out["cli.overhead_s"] += twin["seconds"] - layer_time
        out["cli.trace_overhead_s"] += twin["seconds"] - row["seconds"]
    if inputs.record["positions"] and out["scoring.score_pool_s"]:
        scored = inputs.record["positions"] * calls["scoring.score_pool"]
        out["scoring.positions_per_s"] = scored / out["scoring.score_pool_s"]
    n = len(inputs.ids)
    last_sample = {r["step"]: r for r in rows if r.get("manifest")}
    for row in last_sample.values():
        manifest = row["manifest"]
        k = len(manifest["selected_ids"])
        if row["kind"] == "alloc":
            out["selectors.round_robin_passes"] += max(manifest["per_task"].values())
        elif row["kind"] == "dpp":
            out["selectors.dpp_factor_bytes"] = k * n * 8
        elif row["kind"] == "kcenter":
            out["selectors.k_center_flops"] = 2 * k * n * inputs.record["embedding_dim"]
    return dict(out)


def medians(dicts):
    keys = {k for d in dicts for k in d}
    out = {}
    for k in keys:
        values = [d[k] for d in dicts if d.get(k) is not None]
        if values:
            out[k] = statistics.median(values)
    return out


# ---------------------------------------------------------------- runs


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    inputs = prepare_inputs(name, wl, seed)
    ops = Ops()
    run_dir = WORK / f"run-{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(wl, inputs, run_dir, ops)
    record = {"workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(), "inputs": inputs.record}
    try:
        started = time.perf_counter()
        if trace:
            metrics, extra = traced_run(runner, started, seconds, record)
        else:
            metrics, extra = untraced_run(runner, started, seconds, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["digests"] = runner.digests
    record["attempted"], record["failed"], record["problems"] = ops.attempted, ops.failed, ops.problems
    extra["failed_ops"] = ops.failed / max(1, ops.attempted)
    record["metrics"], record["extra_metrics"] = metrics, extra
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record, trace)
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def untraced_run(runner, started, seconds, record):
    passes, durations = [], []
    while True:
        pass_started = time.perf_counter()
        _, rows = runner.cli_pass(setup=True)
        for r in rows:
            r.pop("manifest", None)
        passes.append(rows)
        durations.append(time.perf_counter() - pass_started)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            break
    runner.setup_samples(max(0, SETUP_SAMPLES - len(runner.setup)))
    record["setup_samples_s"] = runner.setup
    record["reference_samples_s"] = runner.reference
    record["passes"] = passes
    values = command_metrics(passes)
    values["setup_s"] = statistics.median(runner.setup)
    record["raw_times_s"] = dict(values)
    scale = REFERENCE_S / statistics.median(runner.reference)
    record["host_speed_scale"] = scale
    values = {m: v * scale for m, v in values.items()}
    values["peak_rss_mb"] = max(r["rss_mb"] for rows in passes for r in rows)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in END_TO_END}
    extra = {m: values[m] for m, _, _ in END_TO_END_EXTRA if m in values}
    return metrics, extra


def traced_run(runner, started, seconds, record):
    inputs = runner.inputs
    probe_path = runner.run_dir / "probe.json"
    argv = [sys.executable, HERE / "traced.py", probe_path, "--probe", inputs.pool]
    if inputs.sidecar:
        argv.append(inputs.sidecar)
    _, _, problems = runner.child(argv)
    runner.ops.record("probe", problems)
    probe = json.loads(probe_path.read_text())["probe"] if not problems else {}
    startup = runner.startup_samples(STARTUP_SAMPLES)

    per_pass, all_rows, durations = [], [], []
    while True:
        pass_started = time.perf_counter()
        cli_dir, rows = runner.cli_pass(traced=True)
        values = span_metrics(rows, inputs)
        cache = cli_dir / "scores.jsonl"
        if cache.exists():
            values["scoring.cache_bytes"] = cache.stat().st_size
        per_pass.append(values)
        for r in rows:
            r.pop("manifest", None)
            if "traced" in r:
                r["traced"] = r["traced"]["seconds"]
        all_rows.append(rows)
        durations.append(time.perf_counter() - pass_started)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            break
    record["passes"] = all_rows
    record["probe"] = probe
    overheads = [p["cli.trace_overhead_s"] for p in per_pass]
    record["trace_overhead_per_pass_s"] = overheads
    values = medians(per_pass)
    # Resolved when the median stands out of the passes' own quartile spread.
    if len(overheads) > 1:
        q1, _, q3 = statistics.quantiles(overheads, n=4)
        record["trace_overhead_resolved"] = abs(values["cli.trace_overhead_s"]) > q3 - q1
    values.update(probe)
    values["cli.startup_s"] = statistics.median(startup)
    if probe:
        values["pool.load_over_floor"] = probe["pool.load_s"] / probe["pool.json_floor_s"]
    metrics = {m: {"value": values.get(m), "unit": unit} for m, unit, _ in PER_LAYER}
    extra = {m: values[m] for m, _, _ in PER_LAYER_EXTRA if values.get(m) is not None}
    return metrics, extra


def print_report(record, trace):
    print(f"== {record['workload']} seed={record['seed']} trace={trace}: {record['why']}")
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("   inputs: " + ", ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    print(f"   passes={len(record['passes'])} attempted={record['attempted']}"
          f" failed={record['failed']}")
    for step, dig in record["digests"].items():
        print(f"   digest {step}: {dig}")
    table = PER_LAYER + PER_LAYER_EXTRA if trace else END_TO_END + END_TO_END_EXTRA
    values = {m: v["value"] for m, v in record["metrics"].items()}
    values.update(record["extra_metrics"])
    if trace and not record.get("trace_overhead_resolved"):
        values["cli.trace_overhead_s"] = None
        print("   cli.trace_overhead_s unresolved: within the spread of its per-pass values "
              + str([round(v, 4) for v in record.get("trace_overhead_per_pass_s", ())]))
    for name, unit, note in table:
        if values.get(name) is not None:
            print(f"   {name:<32}{values[name]:>16.6g} {unit:<6} {note}")
    if not trace:
        print(f"   times above are scaled by {record['host_speed_scale']:.4f} to the reference's"
              f" {REFERENCE_S} s; raw: "
              + ", ".join(f"{k}={v:.4f}" for k, v in sorted(record["raw_times_s"].items())))
    for problem in record["problems"]:
        print(f"   FAILED {problem}")


def _terminate(signum, frame):
    # Unwind through run_child, which kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "taskpick" / "cli.py").is_file():
        print(f"error: no taskpick sources under {SRC}; run from a taskpick checkout",
              file=sys.stderr)
        return 2
    located = subprocess.run(
        [sys.executable, "-c", "import taskpick.cli; print(taskpick.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if located.returncode != 0 or Path(located.stdout.strip()).parent != SRC / "taskpick":
        print(f"error: taskpick does not import from {SRC}: {located.stderr.strip()}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{m}": v for n, r in zip(names, results)
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
