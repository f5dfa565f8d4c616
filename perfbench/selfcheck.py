"""Check that the traced run's counts repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload on one seed and compares every
per-layer metric whose unit is a count or computed bytes.  Exits 1 when a
count differs between the two runs or a run fails its oracle checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("taylor-swell", "derive-fine", "ivp-wide", "cli-oneshot")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=WORKLOADS, choices=WORKLOADS)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        counts = [m["name"] for m in json.load(fh)["per_layer"] if m["unit"] in ("count", "bytes")]
    ok = True
    for workload in args.workload:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        correct = first["correct"] and second["correct"]
        ok = ok and correct and not differ
        status = "identical" if not differ else f"DIFFER: {', '.join(differ)}"
        print(f"{workload:14s} seed {args.seed}: {len(counts)} counts {status}"
              f"{'' if correct else '; oracle check FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
