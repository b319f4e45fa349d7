"""Self-test: the benchmark's checks must catch a wrong answer.

    python3 perfbench/selftest.py

1. Deletes one axiom (``MUTATED_AXIOM``) from the shipped model and runs
   the ``litmus_tests`` round on it: SC-forbidden tests become
   observable, so the round must count failed operations.
2. Runs the ``litmus_sweep`` round on the same mutated model: outcomes
   SC forbids become observable, so it must count failed outcomes.
3. Truncates the ``litmus_sweep`` round's sweep (``limit=``) by a few
   programs: the input-size guard must mark the round incorrect.

Every round uses seed ``SEED``.  Exits 0 only if every check fails where
it should.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workload as bench  # noqa: E402

#: the axiom deleted from the shipped model
MUTATED_AXIOM = "spatial_mem_mem"
#: programs cut from the end of the sweep
TRUNCATE = 3
#: the seed of every round
SEED = 1


def delete_axiom(model) -> None:
    axioms = [a for a in model.axioms if a.name != MUTATED_AXIOM]
    assert len(axioms) == len(model.axioms) - 1, MUTATED_AXIOM
    model.axioms = axioms


def mutated_model_fails(workload) -> bool:
    round_ = workload(SEED)
    round_.setup()
    delete_axiom(round_.model)
    round_.work()
    problems = []
    attempted, failed = round_.check(problems)
    print(f"{workload.__name__} on the model without {MUTATED_AXIOM!r}: "
          f"{failed} of {attempted} failed, problems {problems}")
    return failed > 0


def truncated_sweep_fails() -> bool:
    round_ = bench.LitmusSweep(SEED)
    round_.setup()
    verify = round_.verify
    cut = len(round_.programs) - TRUNCATE
    round_.verify = lambda model, programs: verify(model, programs=programs,
                                                   limit=cut)
    round_.work()
    problems = []
    round_.check(problems)
    print(f"sweep truncated to {cut} programs: problems {problems}")
    return bool(problems)


def main() -> int:
    results = {
        "mutated model is caught by litmus_tests":
            mutated_model_fails(bench.LitmusTests),
        "mutated model is caught by litmus_sweep":
            mutated_model_fails(bench.LitmusSweep),
        "truncated sweep is caught": truncated_sweep_fails(),
    }
    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
