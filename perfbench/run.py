"""The benchmark command: run one workload, print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it first starts ``SETUP_PROBES`` interpreters that
only set up, then runs whole rounds of the workload (each in a fresh
interpreter, see ``workload.py``) until ``S`` seconds of timed work have
passed, at least one.  It prints the end-to-end metrics: the median
``wall_s`` and ``cpu_s`` of the rounds, the median ``setup_s`` over every
interpreter started (spawn to end of set-up), and ``peak_rss_mb``, the
largest resident set among all of them and their children.  With
``--trace 1`` it runs one traced round and prints the per-layer metrics.

The last line of standard output is the result object.  Children get
``src`` on ``PYTHONPATH`` and ``PYTHONHASHSEED=0`` unless one is set.
A child that fails or overruns is killed with its process group, and
the command exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import WORKLOADS  # noqa: E402

#: set-up-only interpreters started before the timed rounds
SETUP_PROBES = 2
#: the whole command must end within this many seconds
DEADLINE_S = 175.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def run_child(args: List[str], deadline: float) -> Dict:
    """Run ``workload.py`` with ``args``; returns its result object with
    ``setup_s`` (spawn to end of set-up) added."""
    command = [sys.executable, os.path.join(HERE, "workload.py")] + args
    spawned = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise ChildFailed(f"{' '.join(args)}: over the time limit")
    finally:
        # Pool workers are in the child's process group; none may outlive
        # the round.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {process.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> Dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(run_child(base, deadline))
    setups.extend(r["setup_s"] for r in rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return summarize(rounds, metrics)


def trace(workload: str, seed: int, deadline: float) -> Dict:
    path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.jsonl")
    result = run_child(["--workload", workload, "--seed", str(seed),
                        "--trace", path], deadline)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer"]
    layers = result["layers"]
    metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"])
               for m in listed}
    return summarize([result], metrics)


def summarize(rounds: List[Dict], metrics: Dict) -> Dict:
    for result in rounds:
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = trace(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
