"""One round of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N
        [--setup-only] [--trace FILE]

The round sets up (imports, design or model, seeded inputs), runs the
timed work, then checks every output against the benchmark's own
references (:mod:`inputs`).  The last line of standard output is one
JSON object: the monotonic time set-up ended, ``wall_s`` and ``cpu_s``
of the timed work, ``correct``/``attempted``/``failed``, the problems
found, and with ``--trace`` the per-layer metrics.  ``--setup-only``
stops after set-up.  ``run.py`` drives this script; it can also be run
by hand with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

#: counters that must repeat exactly across runs and hash seeds
EXACT_COUNTERS = [
    "sat.clauses", "sat.solves", "sat.conflicts", "sat.propagations",
    "sat.decisions", "check.vars", "check.clauses", "check.order_clauses",
    "formal.checks", "formal.bmc_frames", "formal.blast_hits",
    "formal.blast_misses", "formal.discharge_executed",
    "formal.discharge_skipped", "formal.discharge_deduplicated",
]


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile, or 0 when fewer than ten samples lie
    beyond it (too few to call it a tail)."""
    if not values or len(values) * (1.0 - share) < 10:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def load_shipped_model():
    from repro.designs.models import load_reference_model
    return load_reference_model()


def check_tests_against_sc(verdicts, tests, problems: List[str]) -> int:
    """Size guard plus per-test agreement with the SC reference; returns
    the number of failed tests (undecided or disagreeing with SC)."""
    if [v.name for v in verdicts] != [t.name for t in tests]:
        problems.append(f"{len(verdicts)} verdicts for {len(tests)} tests "
                        "(or out of order)")
        return len(tests)
    failed = 0
    for verdict, test in zip(verdicts, tests):
        if not verdict.decided:
            failed += 1
        elif verdict.observable != inputs.sc_permits(test.program, test.final):
            failed += 1
    return failed


def _without_comments(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if not line.lstrip().startswith("%")]


def check_model(text: str, problems: List[str]):
    """The emitted ``.uarch`` text must parse and print back to the same
    text, comments aside (the parser drops them); returns the parsed
    model."""
    from repro.uspec import format_model, parse_model
    model = parse_model(text, name="multi_vscale")
    if _without_comments(format_model(model)) != _without_comments(text):
        problems.append("model does not round-trip through parse/format")
    return model


def check_synthesis(result, problems: List[str]):
    """No UNKNOWN SVA, no interface bug report, and one record per
    executed obligation; returns (attempted, failed)."""
    records = result.sva_records
    unknown = sum(1 for record in records if record.verdict.unknown)
    if result.bug_reports:
        problems.append(f"{len(result.bug_reports)} interface bug report(s)")
    stats = result.discharge_stats
    if not records or len(records) != stats.executed:
        problems.append(f"{len(records)} SVA records for "
                        f"{stats.executed} executed obligations")
    return len(records), unknown


def check_suite_on(model, problems: List[str]):
    """Decide the 56-test suite on ``model``; (attempted, failed)."""
    from repro.check import Checker
    from repro.litmus import load_suite
    suite = load_suite()
    verdicts = Checker(model).check_suite(suite)
    return len(suite), check_tests_against_sc(verdicts, suite, problems)


class Workload:
    """set-up, timed work, checks and per-layer metrics of one round."""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def span(self, name: str):
        if self.tracer is None:
            return _NoSpan()
        return self.tracer.span(name)

    def setup(self) -> None:
        raise NotImplementedError

    def work(self) -> None:
        raise NotImplementedError

    def check(self, problems: List[str]):
        """Returns (attempted, failed)."""
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        """Workload-specific per-layer values (the rest come from spans)."""
        return {}

    def cleanup(self) -> None:
        pass


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return None


def _engine_layers(checker, discharge) -> Dict[str, float]:
    stats = checker.stats
    return {
        "formal.checks": stats["checks"],
        "formal.bmc_frames": stats["bmc_frames"],
        "formal.blast_hits": stats["blast_hits"],
        "formal.blast_misses": stats["blast_misses"],
        "formal.discharge_executed": discharge.executed,
        "formal.discharge_skipped": discharge.skipped,
        "formal.discharge_deduplicated": discharge.deduplicated,
    }


def _sva_percentiles(result) -> Dict[str, float]:
    times = [record.verdict.time_seconds * 1000.0
             for record in result.sva_records]
    return {"formal.check_p50_ms": percentile(times, 0.50),
            "formal.check_p90_ms": percentile(times, 0.90)}


def _test_layers(verdicts) -> Dict[str, float]:
    times = [verdict.time_ms for verdict in verdicts]
    return {"check.vars": sum(v.vars for v in verdicts),
            "check.clauses": sum(v.clauses for v in verdicts),
            "check.test_p50_ms": percentile(times, 0.50),
            "check.test_p90_ms": percentile(times, 0.90),
            "check.outcomes": len(verdicts)}


class Synth(Workload):
    """Full monolithic serial synthesis of multi-V-scale."""

    def setup(self) -> None:
        from repro.core.synthesizer import Rtl2Uspec
        from repro.designs import (FORMAL_CONFIG, SIM_CONFIG, load_design,
                                   multi_vscale_metadata)
        self.rtl2uspec = Rtl2Uspec
        self.sim = load_design(SIM_CONFIG)
        self.formal = load_design(FORMAL_CONFIG)
        self.metadata = multi_vscale_metadata(SIM_CONFIG)

    def work(self) -> None:
        with self.rtl2uspec(self.sim, self.formal,
                            self.metadata) as synthesizer:
            self.result = synthesizer.synthesize()
        self.checker = synthesizer.checker

    def check(self, problems):
        from repro.uspec import format_model
        attempted, failed = check_synthesis(self.result, problems)
        model = check_model(format_model(self.result.model), problems)
        tests, wrong = check_suite_on(model, problems)
        return attempted + tests, failed + wrong

    def layers(self):
        values = _engine_layers(self.checker, self.result.discharge_stats)
        values.update(_sva_percentiles(self.result))
        return values


class LitmusTests(Workload):
    """The 56-test suite plus a seeded draw, one fresh solve per test."""

    def setup(self) -> None:
        from repro.check import Checker
        from repro.litmus import load_suite
        self.checker_cls = Checker
        self.model = load_shipped_model()
        with self.span("litmus.generate"):
            self.tests = load_suite() + inputs.drawn_tests(self.seed)

    def work(self) -> None:
        self.verdicts = self.checker_cls(self.model).check_suite(self.tests)

    def check(self, problems):
        drawn = self.tests[-inputs.TEST_DRAW:]
        if len(self.tests) != 56 + inputs.TEST_DRAW or any(
                inputs.sc_permits(t.program, t.final) for t in drawn):
            problems.append(f"drawn input is not {inputs.TEST_DRAW} "
                            "SC-forbidden tests")
        return len(self.tests), check_tests_against_sc(
            self.verdicts, self.tests, problems)

    def layers(self):
        return _test_layers(self.verdicts)


class LitmusSweep(Workload):
    """The exhaustive 2x2 sweep plus seeded 3-thread programs, every
    outcome decided by the incremental engine."""

    def setup(self) -> None:
        from importlib import import_module
        from repro.check import enumerate_sweep_programs, verify_exactness
        self.verify = verify_exactness
        self.model = load_shipped_model()
        with self.span("litmus.generate"):
            self.fixed = enumerate_sweep_programs()
            self.programs = self.fixed + inputs.drawn_programs(self.seed)
        # Keep every batch of decisions, so that each outcome is checked
        # here rather than through the sweep's own classification.
        self.decided = []
        solver = import_module("repro.check.incremental").ProgramSolver
        decide_batch = solver.decide_batch

        def record(instance, conditions, *args, **kwargs):
            conditions = list(conditions)
            results = decide_batch(instance, conditions, *args, **kwargs)
            self.decided.append((instance.test.program, conditions, results))
            return results

        solver.decide_batch = record

    def work(self) -> None:
        self.report = self.verify(self.model, programs=self.programs)

    def check(self, problems):
        report = self.report
        expected = sum(inputs.sweep_outcome_count(p) for p in self.programs)
        fixed = sum(inputs.sweep_outcome_count(p) for p in self.fixed)
        if len(self.fixed) != 230 or fixed != 2768:
            problems.append(f"2x2 sweep is {len(self.fixed)} programs, "
                            f"{fixed} outcomes (want 230, 2768)")
        if len(self.programs) != 230 + inputs.PROGRAM_DRAW:
            problems.append(f"{len(self.programs)} programs drawn")
        if report.programs != len(self.programs) or \
                report.outcomes_checked != expected:
            problems.append(
                f"sweep decided {report.programs} programs / "
                f"{report.outcomes_checked} outcomes, input has "
                f"{len(self.programs)} / {expected}")
        decided = sum(len(results) for _, _, results in self.decided)
        if [program for program, _, _ in self.decided] != self.programs or \
                decided != expected:
            problems.append(f"{len(self.decided)} programs / {decided} "
                            f"outcomes decided in batches, input has "
                            f"{len(self.programs)} / {expected}")
        failed = 0
        for program, conditions, results in self.decided:
            states = inputs.sc_states(program)
            for condition, result in zip(conditions, results):
                if not result.decided or \
                        result.observable != inputs.permits(states, condition):
                    failed += 1
        reported = len(report.unsound) + len(report.overstrict) + \
            len(report.undecided)
        if reported != failed:
            problems.append(f"report lists {reported} wrong or undecided "
                            f"outcomes, the SC reference finds {failed}")
        return expected, failed

    def layers(self):
        return {"check.outcomes": self.report.outcomes_checked}


class PipelineJ2(Workload):
    """parse -> synth -> check with two workers, into a fresh state
    directory."""

    def setup(self) -> None:
        import repro.check as check
        import repro.core.synthesizer as synthesizer
        from repro.pipeline import PipelineConfig, run_pipeline
        self.config = PipelineConfig
        self.run_pipeline = run_pipeline
        self.state_dir = os.path.join(ROOT, ".bench_out",
                                      f"pipeline-{os.getpid()}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        # Keep the synthesis result and the suite run the pipeline makes
        # internally: the checks and the pool counters need them.
        self.captured = {}
        synthesize = synthesizer.Rtl2Uspec.synthesize
        run_suite = check.run_suite

        def capture_synthesize(rtl2uspec):
            self.captured["synth"] = rtl2uspec
            self.captured["result"] = synthesize(rtl2uspec)
            return self.captured["result"]

        def capture_suite(*args, **kwargs):
            self.captured["suite"] = run_suite(*args, **kwargs)
            return self.captured["suite"]

        synthesizer.Rtl2Uspec.synthesize = capture_synthesize
        check.run_suite = capture_suite

    def work(self) -> None:
        before = os.times()
        self.outcome = self.run_pipeline(
            self.config(state_dir=self.state_dir, jobs=2))
        after = os.times()
        self.worker_cpu = (after.children_user + after.children_system
                           - before.children_user - before.children_system)

    def check(self, problems):
        from repro.litmus import load_suite
        result = self.captured.get("result")
        if result is None:
            problems.append("pipeline ran no synthesis")
            return 1, 1
        attempted, failed = check_synthesis(result, problems)
        with open(self.outcome.model_path, "r", encoding="utf-8") as handle:
            check_model(handle.read(), problems)
        suite = load_suite()
        failed += check_tests_against_sc(self.outcome.verdicts, suite,
                                         problems)
        return attempted + len(suite), failed

    def layers(self):
        synth = self.captured["synth"]
        result = self.captured["result"]
        discharge = result.discharge_stats
        pool = self.captured["suite"].pool_stats
        values = _engine_layers(synth.checker, discharge)
        values.update(_sva_percentiles(result))
        values.update(_test_layers(self.outcome.verdicts))
        stats = synth.checker.stats
        # The SAT work runs in the workers: take the synthesis engine's
        # counters, which the program merges back from them.
        values.update({
            "sat.solves": stats["sat_solves"],
            "sat.conflicts": stats["sat_conflicts"],
            "sat.propagations": stats["sat_propagations"],
            "sat.decisions": stats["sat_decisions"],
            "pool.worker_cpu_s": self.worker_cpu,
            "pool.tasks": discharge.pool_tasks + pool.pool_tasks,
            "pool.retries": discharge.retries + pool.retries,
        })
        return values

    def cleanup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


WORKLOADS = {
    "synth": Synth,
    "litmus_tests": LitmusTests,
    "litmus_sweep": LitmusSweep,
    "pipeline_j2": PipelineJ2,
}


def layer_metrics(tracer, workload: Workload) -> Dict[str, float]:
    """Per-layer values: span totals, self times and counters, then the
    workload's own values.  A metric the workload does not exercise may
    be missing (``run.py`` reports it as 0)."""
    t = tracer.total
    values = {
        "verilog.load_s": t("verilog.load"),
        "dfg.extract_s": t("dfg.extract"),
        "sva.monitor_s": t("sva.monitor"),
        "formal.blast_s": t("formal.blast"),
        "formal.unroll_s": t("formal.unroll"),
        "sat.load_s": t("sat.load"),
        "sat.search_s": t("sat.search"),
        "formal.check_s": t("formal.check"),
        "core.emit_s": t("core.emit"),
        "core.other_s": tracer.self_time("core.synth"),
        "pipeline.parse_s": t("pipeline.parse"),
        "pipeline.synth_s": t("pipeline.synth"),
        "pipeline.check_s": t("pipeline.check"),
        "resilience.journal_commit_s": t("resilience.journal_commit"),
        "resilience.journal_commits": tracer.calls_of(
            "resilience.journal_commit"),
        "uspec.parse_s": t("uspec.parse"),
        "litmus.generate_s": t("litmus.generate"),
        "check.ground_s": t("check.ground"),
        "check.order_s": t("check.order"),
        "check.witness_s": t("check.witness"),
        "check.program_ground_s": t("check.program_ground"),
        "check.batch_s": t("check.batch"),
        "mcm.sc_s": t("mcm.sc"),
        "trace.wall_s": t("bench.work"),
        "trace.layer_self_s": t("bench.work") - tracer.self_time("bench.work"),
        "trace.unattributed_s": tracer.self_time("bench.work"),
    }
    for name in ("sva.monitors", "sat.clauses", "sat.solves",
                 "sat.conflicts", "sat.propagations", "sat.decisions",
                 "check.order_clauses", "check.vars", "check.clauses",
                 "check.fresh_fallbacks", "check.batch_shared_levels",
                 "check.batch_assumption_levels"):
        values[name] = tracer.counters.get(name, 0)
    values.update(workload.layers())
    stage_wall = values["pipeline.synth_s"] + values["pipeline.check_s"]
    worker_cpu = values.get("pool.worker_cpu_s", 0.0)
    values["pool.busy_ratio"] = worker_cpu / (2 * stage_wall) \
        if stage_wall and worker_cpu else 0.0
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="FILE",
                        help="record spans and write them to FILE")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    workload = WORKLOADS[args.workload](args.seed, tracer)
    try:
        with workload.span("bench.setup"):
            workload.setup()
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0
        cpu0 = os.times()
        start = time.perf_counter()
        with workload.span("bench.work"):
            workload.work()
        wall = time.perf_counter() - start
        cpu1 = os.times()
        if tracer is not None:
            tracer.active = False
        cpu = sum(cpu1[:4]) - sum(cpu0[:4])
        problems: List[str] = []
        attempted, failed = workload.check(problems)
        payload = {
            "setup_end": setup_end, "wall_s": wall, "cpu_s": cpu,
            "correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems,
        }
        if tracer is not None:
            payload["layers"] = layer_metrics(tracer, workload)
            tracer.write(args.trace)
    finally:
        workload.cleanup()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
