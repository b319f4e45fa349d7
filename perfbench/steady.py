"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steady.py

Each set runs every workload ``RUNS`` times, one seed per run (set A
takes seeds 1-10, set B seeds 11-20), the workloads alternating within
a set.  For every end-to-end metric and workload it prints each set's
median, quartiles and spread (quartile distance over the median), and
the drift of set B's median from set A's, against the bound in
``BENCHMARK.json``.  A spread above its bound (``setup_s`` excepted), a
drift worse than its bound, or a different share of failed operations
in the two sets marks the row ``FAIL``.  Raw results go to ``OUT`` after
every run, so an interrupted check keeps what it measured.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: runs per workload in each set
RUNS = 10
#: where the raw results go
OUT = os.path.join(ROOT, ".bench_out", "steady.json")


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench: Dict, workload: str, seed: int) -> Dict:
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(drift: float, better: str) -> float:
    """How much worse set B is than set A, as a share (negative = better)."""
    return drift if better == "lower" else -drift


def report(bench: Dict, results: Dict, workloads: List[str]) -> bool:
    ok = True
    sets = ["A", "B"]
    print(f"{'workload':<13} {'metric':<12} " + " ".join(
        f"{s + ' median':>12} {s + ' q1..q3':>19} {'spread':>7}"
        for s in sets) + f" {'drift':>7} {'bound':>6}")
    for workload in workloads:
        shares = set()
        for s in sets:
            runs = results[s][workload]
            shares.add(sum(r["failed"] for r in runs) /
                       sum(r["attempted"] for r in runs))
            if any(not r["correct"] for r in runs):
                print(f"{workload}: set {s} has an incorrect run")
                ok = False
        if len(shares) > 1:
            print(f"{workload}: failed share differs between sets: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, verdict = [], [], "ok"
            for s in sets:
                values = [r["metrics"][name]["value"]
                          for r in results[s][workload]]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                if spread > bound and name != "setup_s":
                    verdict = "FAIL"
                cells.append(f"{median:>12.4f} {q1:>9.4f}..{q3:<9.4f} "
                             f"{spread:>7.3f}")
            drift = (medians[1] - medians[0]) / medians[0]
            if worse(drift, metric["better"]) > bound:
                verdict = "FAIL"
            if verdict != "ok":
                ok = False
            print(f"{workload:<13} {name:<12} " + " ".join(cells) +
                  f" {drift:+7.3f} {bound:>6.2f} {verdict}")
    return ok


def main() -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    results: Dict[str, Dict[str, List[Dict]]] = {}
    for index, label in enumerate("AB"):
        results[label] = {w: [] for w in workloads}
        for run in range(RUNS):
            seed = 1 + index * RUNS + run
            for workload in workloads:
                result = run_once(bench, workload, seed)
                result["seed"] = seed
                results[label][workload].append(result)
                print(f"set {label} seed {seed} {workload}: " + ", ".join(
                    f"{k}={v['value']:.4f}"
                    for k, v in result["metrics"].items()), flush=True)
                with open(OUT, "w", encoding="utf-8") as handle:
                    json.dump({"results": results}, handle, indent=1)
    return 0 if report(bench, results, workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
