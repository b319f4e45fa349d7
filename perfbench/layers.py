"""Per-layer time table of one workload, with its tracing overhead.

    python3 perfbench/layers.py --workload NAME

Runs the workload ``PAIRS`` times untraced and traced (``run.py``, seed
``SEED``), alternating which goes first, then prints, for every span name in the
trace, its calls, its total time and its self time (total minus the
time its child spans cover), and shows that the self times add up: the
self times of the spans under the timed work plus the work's
unattributed time equal its wall time.  The tracing overhead is the
median traced minus the median untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the seed of every run
SEED = 1
#: untraced/traced pairs of runs
PAIRS = 2


def run(workload: str, seed: int, trace: int) -> Dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def read_totals(path: str) -> Dict[str, Tuple[int, float, float]]:
    totals = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "total" in record:
                totals[record["total"]] = (record["calls"], record["seconds"],
                                           record["self_seconds"])
    return totals


def print_table(totals: Dict[str, Tuple[int, float, float]]) -> None:
    work = totals.get("bench.work", (0, 0.0, 0.0))
    setup = totals.get("bench.setup", (0, 0.0, 0.0))
    wall = work[1] or 1.0
    print(f"{'span':<28} {'calls':>9} {'total s':>10} {'self s':>10} "
          f"{'self/work':>9}")
    layers = sorted((name for name in totals if not name.startswith("bench.")),
                    key=lambda name: -totals[name][2])
    for name in layers:
        calls, total, self_s = totals[name]
        print(f"{name:<28} {calls:>9} {total:>10.3f} {self_s:>10.3f} "
              f"{self_s / wall:>9.1%}")
    layer_self = sum(totals[name][2] for name in layers)
    print(f"\nself times of all layer spans      {layer_self:10.3f} s")
    print(f"  + set-up outside any layer span  {setup[2]:10.3f} s")
    print(f"  + work outside any layer span    {work[2]:10.3f} s")
    print(f"  = set-up + work wall time        "
          f"{layer_self + setup[2] + work[2]:10.3f} s "
          f"(set-up {setup[1]:.3f} + work {work[1]:.3f} = "
          f"{setup[1] + work[1]:.3f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    plain, traced = [], []
    for pair in range(PAIRS):
        for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
            metrics = run(args.workload, SEED, trace)
            if trace:
                traced.append(metrics)
            else:
                plain.append(metrics["wall_s"])
    print_table(read_totals(os.path.join(
        ROOT, ".bench_out", f"trace-{args.workload}-{SEED}.jsonl")))
    traced_wall = statistics.median(m["trace.wall_s"] for m in traced)
    plain_wall = statistics.median(plain)
    overhead = traced_wall - plain_wall
    print(f"\ntracing overhead over {PAIRS} pairs: median traced wall "
          f"{traced_wall:.3f} s - median untraced wall {plain_wall:.3f} s = "
          f"{overhead:+.3f} s ({overhead / plain_wall:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
