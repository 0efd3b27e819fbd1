"""fbmfg benchmark: time to a certified solve on four workloads, split by module.

Run from the root of a checkout:

    python3 benchmark/run.py --workload mfg1d --seed 0 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all          # every workload, one table

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of the workload (``setup_s``, ``solve_s``,
``sweeps_per_s``, ``peak_rss_mib``); with ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  The line before it holds the
details: quartiles and sample counts, every failed check, the environment.
NOTES.md says why each workload exists and what each metric should move.

This script uses only the standard library.  It pins the environment (one
BLAS/OpenMP thread, ``FBMFG_THREADS`` unset) and starts every measurement
and every set-up probe as a fresh process running ``worker.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("mfg1d", "mfg2d-run", "critical-sweep", "congestion2d-audit")
SETUP_PROBES = 5
# Every run must end within 180 s; the worker stops starting operations
# after 120 s of measuring.
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "sweeps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "parabolic.forward_s": "s",
    "parabolic.backward_s": "s",
    "parabolic.marches": "count",
    "parabolic.point_steps_per_s": "1/s",
    "parabolic.conservative_s": "s",
    "truncation.source_calls": "count",
    "truncation.clamp_s": "s",
    "models.source_s": "s",
    "models.final_cost_s": "s",
    "models.final_cost_calls": "count",
    "models.build_s": "s",
    "torus_grid.norms_s": "s",
    "torus_grid.derivative_calls": "count",
    "fixed_point.sweeps": "count",
    "fixed_point.self_s": "s",
    "fixed_point.sweep_ms_p50": "ms",
    "fixed_point.sweep_ms_p90": "ms",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.solve_s": "s",
    "trace.accounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("FBMFG_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def revision() -> dict:
    """Git revision when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    rev = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    rev = fh.read().strip()
    return {"git": rev, "src_sha256": digest.hexdigest()}


def call_worker(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def setup_times(workload: str, seed: int, env: dict, deadline: float) -> list[float]:
    """Wall time of fresh processes that import fbmfg and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        call_worker(["--workload", workload, "--seed", str(seed), "--setup-only"],
                    env, deadline)
        times.append(time.perf_counter() - start)
    return times


def stats(values: list[float]) -> dict:
    values = [v for v in values if v is not None and math.isfinite(v)]
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and its details."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env()
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        setup = [] if trace else setup_times(workload, seed, env, deadline)
        proc = call_worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--work-dir", work_dir],
            env, deadline,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    measured = json.loads(lines[-1])

    all_ops = [measured["warmup"], *measured["ops"]]
    outcomes = [o for op in all_ops for o in op["outcomes"]]
    failures = [o for o in outcomes if not o[1]]
    untraced = [op for op in measured["ops"] if not op["traced"]]
    solve = [op["seconds"] for op in untraced]
    rate = [op["sweeps"] / op["seconds"] for op in untraced if op["seconds"]]

    if trace:
        traced = [op["seconds"] for op in measured["ops"] if op["traced"]]
        series = {name: [fig[name] for fig in measured["layers"]]
                  for name in measured["layers"][0]} if measured["layers"] else {}
        summary = {name: stats(series[name]) for name in series}
        # Sweep percentiles pool the sweeps of every traced operation.
        sweep_ms = measured["sweep_ms"]
        summary["fixed_point.sweep_ms_p50"] = {"median": percentile(sweep_ms, 50),
                                               "n": len(sweep_ms)}
        summary["fixed_point.sweep_ms_p90"] = {"median": percentile(sweep_ms, 90),
                                               "n": len(sweep_ms)}
        overhead = stats(traced)["median"] / stats(solve)["median"] - 1.0
        summary["trace.overhead_frac"] = {"median": overhead, "n": len(traced)}
        units = PER_LAYER_UNITS
    else:
        summary = {
            "setup_s": stats(setup),
            "solve_s": stats(solve),
            "sweeps_per_s": stats(rate),
            "peak_rss_mib": stats([measured["peak_rss_kib"] / 1024.0]),
        }
        units = END_TO_END_UNITS

    result = {
        "correct": not failures and bool(outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        # A figure no operation produced (every traced one failed) is NaN.
        "metrics": {name: {"value": summary.get(name, {"median": math.nan})["median"],
                           "unit": units[name]}
                    for name in units},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "failed_frac": len(failures) / len(outcomes) if outcomes else 1.0,
        "failures": failures,
        "summary": summary,
        "warmup_s": measured["warmup"]["seconds"],
        "measured_s": measured["measured_s"],
        "revision": revision(),
        "env": measured["env"],
    }
    return result, details


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fbmfg", "__init__.py")):
        print(f"error: no fbmfg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"details": details}))
            if args.workload != "all":
                print(json.dumps(result))
                return 0
            print(json.dumps({"workload": name, "failed_frac": details["failed_frac"],
                              **result}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
