"""Run one benchmark workload in this process and print what it measured.

``run.py`` starts this script as a fresh process for every measurement and
for every set-up probe; it prints one JSON object as its last line.

    python3 benchmark/worker.py --workload mfg1d --seed 0 --seconds 10 --trace 0
    python3 benchmark/worker.py --workload mfg1d --seed 0 --setup-only

A measurement builds the inputs, runs one untimed warm-up operation, then
repeats the operation until ``--seconds`` have passed (and at least
``MIN_OPS`` times).  With ``--trace 1`` every untraced operation is followed
by a traced one, so the tracing overhead is measured under the same
conditions.  Every operation, the warm-up included, is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

MIN_OPS = 3
# Stop starting operations after this long, so the run ends within its limit.
MAX_MEASURE_S = 120.0


def import_package():
    """Import fbmfg from the checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import fbmfg

    if not os.path.abspath(fbmfg.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"fbmfg was imported from {fbmfg.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k, "") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "FBMFG_THREADS")},
    }


class Runner:
    """Runs and checks the operations of one workload and seed."""

    def __init__(self, workloads, workload, seed: int, work_dir: str):
        self.w = workloads
        self.workload = workload
        self.work_dir = work_dir
        self.count = 0
        reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                reference = json.load(fh).get(workload.name, {})
        self.reference = reference.get(str(seed))

    def op(self, api, inputs, root=None) -> dict:
        """Run, time and check one operation; never raises for its failures."""
        self.count += 1
        out_dir = os.path.join(self.work_dir, f"op{self.count}")
        os.makedirs(out_dir)
        if hasattr(inputs, "config"):
            self.w.write_config(inputs, out_dir)
        result = {"seconds": None, "sweeps": 0, "artifact_bytes": 0, "outcomes": []}
        try:
            start = time.perf_counter()
            if root is None:
                raw = self.workload.run(api, inputs, out_dir)
            else:
                with root:
                    raw = self.workload.run(api, inputs, out_dir)
            result["seconds"] = time.perf_counter() - start
            checked = self.workload.check(raw, inputs, out_dir)
        except Exception:  # noqa: BLE001 - a failed operation is a result
            result["outcomes"] = [["operation", False, traceback.format_exc(limit=4)]]
            return result
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        outcomes = [[o.label, o.ok, o.detail] for o in checked.outcomes]
        if self.reference is not None:
            mismatch = self.w.compare_reference(
                checked.summary, self.reference, self.workload.reference_rtol)
            if mismatch:
                outcomes[0][1] = False
                outcomes[0][2] = "; ".join(filter(None, [outcomes[0][2], *mismatch]))
        result.update(sweeps=checked.sweeps, artifact_bytes=checked.artifact_bytes,
                      outcomes=outcomes, summary=checked.summary)
        return result


def measure(args) -> dict:
    import workloads as w

    workload = w.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    runner = Runner(w, workload, args.seed, args.work_dir)
    plain = w.plain_api()
    out = {"env": environment(), "warmup": runner.op(plain, inputs), "ops": []}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced_api = tracer.api()
        out["layers"], out["sweep_ms"] = [], []
    start = time.perf_counter()
    while True:
        untraced = runner.op(plain, inputs)
        untraced["traced"] = False
        out["ops"].append(untraced)
        if tracer is not None:
            tracer.run_id += 1
            with tracer.span(tracing.BUILD):
                traced_inputs = workload.build(args.seed)
            with tracer.installed():
                traced = runner.op(traced_api, traced_inputs,
                                   root=tracer.span(tracing.OP_ROOT))
            traced["traced"] = True
            out["ops"].append(traced)
            if traced["seconds"] is not None:
                figures, sweeps = tracing.run_metrics(tracer.spans, tracer.run_id)
                figures["cli.artifact_bytes"] = traced["artifact_bytes"]
                out["layers"].append(figures)
                out["sweep_ms"].extend(sweeps)
        elapsed = time.perf_counter() - start
        done = sum(1 for op in out["ops"] if not op["traced"])
        if (elapsed >= args.seconds and done >= MIN_OPS) or elapsed >= MAX_MEASURE_S:
            break
    out["measured_s"] = time.perf_counter() - start
    if tracer is not None and tracer.run_id:
        tracing.write_spans(tracer.spans, tracer.run_id,
                            os.path.join(WORK, f"spans-{args.workload}.csv"))
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", help="directory for the operations' artifacts")
    args = parser.parse_args()

    import_package()
    import workloads as w

    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        w.WORKLOADS[args.workload].build(args.seed)
        return 0
    if not args.work_dir:
        parser.error("--work-dir is required for a measurement")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
