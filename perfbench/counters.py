"""Check that the exact counters repeat across runs and hash seeds.

    python3 perfbench/counters.py

For each workload it makes three traced runs (``run.py --trace 1``) with
seed ``SEED``: two under ``PYTHONHASHSEED=0`` and one under
``PYTHONHASHSEED=1``.  The counters in ``workload.EXACT_COUNTERS`` (SAT
counts, check encoding sizes, formal checks, frames, blast-cache hits
and discharge counts) must be identical in all three, as must the
operations attempted and failed; any counter that differs is named.
These counts are what a claim can rest on when host time is noisy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import EXACT_COUNTERS, WORKLOADS  # noqa: E402

#: the seed of every run
SEED = 1
RUNS = (("hash 0, run 1", "0"), ("hash 0, run 2", "0"), ("hash 1", "1"))


def traced(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        results = [traced(workload, SEED, hash_seed)
                   for _, hash_seed in RUNS]
        rows = ["attempted", "failed"] + EXACT_COUNTERS
        differing = []
        print(f"\n{workload} (seed {SEED})")
        print(f"  {'counter':<32}" + "".join(f"{label:>16}"
                                           for label, _ in RUNS))
        for row in rows:
            values = [r[row] if row in ("attempted", "failed")
                      else r["metrics"][row]["value"] for r in results]
            same = len(set(values)) == 1
            if not same:
                differing.append(row)
            print(f"  {row:<32}" + "".join(f"{v:>16}" for v in values)
                  + ("" if same else "   DIFFERS"))
        if differing:
            ok = False
            print(f"  counters that differ: {', '.join(differing)}")
        else:
            print("  all counters identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
