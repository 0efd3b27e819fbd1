"""Record the outcome summaries that later runs are checked against.

    python3 benchmark/record_reference.py [--seeds 0-9]

Runs each workload once per seed at the checked-out commit and rewrites
``reference.json``: iteration counts of converged solves and summary
scalars of the final pair (see ``workloads.py``).  Record again only when a
change is meant to alter results beyond round-off, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import worker
from run import pinned_env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    os.environ.update(pinned_env())
    worker.import_package()
    import workloads as w

    reference = {}
    os.makedirs(worker.WORK, exist_ok=True)
    for name, workload in w.WORKLOADS.items():
        reference[name] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=worker.WORK) as work_dir:
                runner = worker.Runner(w, workload, seed, work_dir)
                runner.reference = None
                result = runner.op(w.plain_api(), workload.build(seed))
            failed = [o for o in result["outcomes"] if not o[1]]
            if failed:
                print(f"{name} seed {seed}: {failed}", file=sys.stderr)
                return 1
            reference[name][str(seed)] = result["summary"]
            print(name, seed, result["summary"], flush=True)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
