"""Seeded inputs and the benchmark's own reference answers.

Inputs depend only on ``--seed``: the canonical 56-test suite and the
exhaustive 2x2 sweep are fixed, and a seeded draw is added from the
3-thread corpus ``threads=3,len=2,addrs=2,values=1`` (1,047 SC-forbidden
tests over 488 programs).  The draw is systematic: the corpus is sorted
by a structural size key (instructions, cross-thread same-address pairs
with a store, loads or outcomes), and every ``N/count``-th item is taken
from a seeded random start.  Every seed thus draws the same mix of small
and large programs, which keeps the work, and the time, of a round
nearly the same from seed to seed.

The reference answers are computed here, apart from the code under
test: SC permission of a final condition is decided against the
outcomes of :func:`repro.mcm.sc.sc_outcomes` with this module's own
matching, and the number of outcomes a sweep must decide is counted
from the programs' loads and stores.
"""

from __future__ import annotations

import random
from typing import List, Sequence

#: the corpus every seeded draw comes from
CORPUS_SPEC = "threads=3,len=2,addrs=2,values=1"
#: drawn 3-thread tests added to the 56-test suite (litmus_tests)
TEST_DRAW = 100
#: drawn 3-thread programs added to the 2x2 sweep (litmus_sweep)
PROGRAM_DRAW = 12


def _instructions(program) -> int:
    return sum(len(thread) for thread in program)


def _loads(program) -> int:
    return sum(1 for thread in program for access in thread
               if access.kind == "R")


def _racing_pairs(program) -> int:
    """Cross-thread pairs of accesses to one address, one a store."""
    accesses = [(tid, access) for tid, thread in enumerate(program)
                for access in thread if access.kind != "F"]
    return sum(1 for i, (tid_a, a) in enumerate(accesses)
               for tid_b, b in accesses[i + 1:]
               if tid_a != tid_b and a.addr == b.addr and "W" in (a.kind, b.kind))


def systematic_draw(items: Sequence, count: int, seed: int, key) -> List:
    """Every ``len(items)/count``-th item of ``items`` sorted by ``key``,
    from a seeded random start; returned in corpus order."""
    order = sorted(range(len(items)), key=lambda i: (key(items[i]), i))
    step = len(order) / count
    start = random.Random(seed).random() * step
    chosen = sorted(order[int(start + k * step)] for k in range(count))
    return [items[index] for index in chosen]


def drawn_tests(seed: int) -> list:
    from repro.litmus.generator import iter_tests, parse_spec
    corpus = list(iter_tests(parse_spec(CORPUS_SPEC)))
    return systematic_draw(corpus, TEST_DRAW, seed, key=lambda test: (
        _instructions(test.program), _racing_pairs(test.program),
        _loads(test.program)))


def drawn_programs(seed: int) -> list:
    from repro.litmus.generator import iter_programs, parse_spec
    corpus = [program for _, program in iter_programs(parse_spec(CORPUS_SPEC))]
    return systematic_draw(corpus, PROGRAM_DRAW, seed, key=lambda program: (
        _instructions(program), sweep_outcome_count(program),
        _racing_pairs(program)))


# -- reference answers -------------------------------------------------------

def sc_states(program) -> list:
    """The final states SC interleavings of ``program`` reach, as dicts."""
    from repro.mcm.sc import sc_outcomes
    return [dict(outcome) for outcome in sc_outcomes(program)]


def permits(states, final) -> bool:
    """Does one of ``states`` satisfy the final condition?"""
    return any(all(state.get(key) == value for key, value in final)
               for state in states)


def sc_permits(program, final) -> bool:
    """Is the final condition reached by some SC interleaving?"""
    return permits(sc_states(program), final)


def sweep_outcome_count(program) -> int:
    """Outcomes a sweep decides for one program: every 0/1 assignment of
    its loads, each alone and with each final value (0 or 1) of each
    written address; a program without loads has only the memory
    conditions."""
    loads = _loads(program)
    written = {access.addr for thread in program for access in thread
               if access.kind == "W"}
    memory = 2 * len(written)
    if loads == 0:
        return memory
    return (2 ** loads) * (1 + memory)
