"""Benchmark of wirecut: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload mc_deep --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): decompose, synth_scale, mc_deep, mc_wide.  Run
it from the repository root; it imports wirecut from ./src and nothing else.

``--trace 0`` repeats untraced passes until they add up to ``--seconds``
seconds and reports the end-to-end metrics:

  wall_s       median wall time of one pass (the pass count is printed)
  setup_s      import wirecut and build the inputs and reference values;
               median over SETUP_SAMPLES fresh processes, this one included,
               the others started between passes across the run
  peak_mem_mb  peak resident set of this process (ru_maxrss), which runs one
               workload: interpreter, inputs and its largest pass
  fail_ratio   failed over attempted operations; printed, and reported as
               ``failed`` and ``attempted`` in the result

``--trace 1`` alternates untraced and traced passes for ``--seconds`` seconds
and reports the per-layer metrics (layers.py) of the median traced pass, the
traced-over-untraced wall time ratio and, on the Monte-Carlo workloads, the
time-model fit.  The spans of that pass go to .perfbench-out/.

Every run prints its environment first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 1 when an operation failed or missed its correctness gate, and 2 when
wirecut's sources are not found.  The benchmark's own tests:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("decompose", "synth_scale", "mc_deep", "mc_wide")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# BLAS/OpenMP pools capped at one thread: the load comes from one process
# and one thread, the steadiest setting on a small shared machine.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> dict[str, str]:
    """Fix the thread caps before numpy loads; children inherit them.

    WIRECUT_THREADS (gate_count_bench's pool) is pinned to the CPUs this
    process may use, so the pool has the same size on every run here.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["WIRECUT_THREADS"] = str(len(os.sched_getaffinity(0)))
    return {var: os.environ[var] for var in (*THREAD_VARS, "WIRECUT_THREADS")}


def import_wirecut():
    """Import wirecut from this checkout's sources, never from elsewhere."""
    if not (SRC / "wirecut" / "__init__.py").is_file():
        print(f"error: wirecut sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import wirecut

    if Path(wirecut.__file__).resolve().parent != SRC / "wirecut":
        print(f"error: imported wirecut from {wirecut.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def set_up(name: str, seed: int):
    """Import wirecut and build the workload; returns (workload, ops, seconds)."""
    t0 = perf_counter()
    import_wirecut()
    import workloads

    ops = workloads.Ops()
    workload = workloads.WORKLOADS[name](seed, ops)
    return workload, ops, perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_pass(workload, ops) -> float:
    t0 = perf_counter()
    workload.run(ops)
    return perf_counter() - t0


def environment(threads: dict[str, str]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_caps": threads,
    }


def untraced_run(args, workload, ops, setup_s: float) -> dict:
    walls, setups = [], [setup_s]
    while not walls or sum(walls) < args.seconds:
        walls.append(timed_pass(workload, ops))
        # fresh-process set-up samples, spread over the run between passes
        while len(setups) < SETUP_SAMPLES and len(setups) * args.seconds <= SETUP_SAMPLES * sum(walls):
            setups.append(setup_probe(args.workload, args.seed))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup samples {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_mb": (peak_mib, "MiB"),
    }


def traced_pass(workload, ops, tracer, layers) -> tuple[dict, list]:
    layers.install(tracer)
    try:
        wall = timed_pass(workload, ops)
    finally:
        tracer.restore()
    spans = tracer.take()
    return layers.summarize(spans, wall), spans


def traced_run(args, workload, ops, env: dict) -> dict:
    import layers
    import spans as spanlib
    import workloads

    tracer = spanlib.Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        untraced.append(timed_pass(workload, ops))
        traced.append(traced_pass(workload, ops, tracer, layers))
    for summary, _ in traced[1:]:
        differ = [k for k in layers.EXACT if summary[k] != traced[0][0][k]]
        if differ:
            ops.fail(f"exact counts differ between traced passes: {differ}")
    order = sorted(range(len(traced)), key=lambda i: traced[i][0]["bench.traced_pass_s"])
    metrics, spans = traced[order[(len(order) - 1) // 2]]
    metrics["bench.trace_overhead"] = metrics["bench.traced_pass_s"] / statistics.median(untraced)
    model = {"estimator.t_c_ms": 0.0, "estimator.t_q_us": 0.0, "costs.time_model_err": 0.0}
    if args.workload in workloads.SIBLING:
        sibling = workloads.SIBLING[args.workload](args.seed, ops)
        other, _ = traced_pass(sibling, ops, tracer, layers)
        model = layers.time_model(metrics, other)
    metrics.update(model)
    print(f"passes {len(traced)} traced, {len(untraced)} untraced")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "pass_s": metrics["bench.traced_pass_s"],
        "spans": spanlib.to_json(spans),
    }))
    return {name: (value, layers.unit(name)) for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    threads = cap_threads()
    workload, ops, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = environment(threads)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        metrics = traced_run(args, workload, ops, env)
    else:
        metrics = untraced_run(args, workload, ops, setup_s)
    estimate = getattr(workload, "estimate", None)
    if estimate is not None:
        print(f"estimate {estimate!r} exact {workload.exact!r}")
    for problem in ops.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio {ops.failed / ops.attempted!r} ratio ({ops.failed} of {ops.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
