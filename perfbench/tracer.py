"""In-memory span tracer that wraps the package's layer entry points.

The benchmark records spans from its own files: :func:`install` replaces
the public entry points of each layer (functions in every loaded
``repro.*`` module namespace, methods on their classes) with wrappers
that time the call.  Nothing inside the package changes.

Each span has a name (``layer.what``), a start, an end and the id of the
span that was open when it started.  A layer's *self time* is its span
time minus the time its child spans cover.  High-frequency spans (one
per unrolled frame or clause feed) are aggregated only; every other span
is kept in memory and written out as JSON lines when the run ends.

Spans are recorded only in the process that installed the tracer: pool
workers forked from it call straight through.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib import import_module
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name totals (count, total time, self time)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.stack: List[list] = []          # [name, span_id, child_time]
        self.totals: Dict[str, list] = {}    # name -> [count, total, self]
        self.spans: List[tuple] = []         # (id, parent, name, start, end)
        self.counters: Dict[str, float] = {}
        self._next_id = 0

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self._next_id, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float,
              record: bool) -> float:
        self.stack.pop()
        duration = end - start
        total = self.totals.get(frame[0])
        if total is None:
            total = self.totals[frame[0]] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            self.spans.append((frame[1], parent[1] if parent else 0,
                               frame[0], start, end))
        return duration

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened from benchmark code."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn: Callable, name: str, record: bool = True,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span called ``name``.  A call made while a
        span of the same name is innermost passes straight through, so
        nested entry points of one layer are timed once.  For counting
        work, ``before(args)`` runs before a timed call and
        ``after(result, args, state)`` after it, ``state`` being what
        ``before`` returned."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = tracer._enter(name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, _clock(), record)
            if after is not None:
                after(result, args, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- reporting -------------------------------------------------------
    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls_of(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def write(self, path: str) -> None:
        """Write every recorded span, then the per-name totals."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end}) + "\n")
            for name in sorted(self.totals):
                count, total, self_s = self.totals[name]
                handle.write(json.dumps({
                    "total": name, "calls": count, "seconds": total,
                    "self_seconds": self_s}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._enter(self.name)
        self.start = _clock()
        return self

    def __exit__(self, *_exc) -> None:
        self.tracer._exit(self.frame, self.start, _clock(), True)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module namespace (covers ``from x import f`` copies)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def patch_function(tracer: Tracer, module, attr: str, name: str,
                   **kwargs) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, **kwargs))


def patch_method(tracer: Tracer, cls, attr: str, name: str,
                 **kwargs) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(original, name, **kwargs))


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    # import_module, not ``import a.b as c``: packages re-export functions
    # under their submodules' names (repro.formal.bitblast).
    evaluator = import_module("repro.check.evaluator")
    incremental = import_module("repro.check.incremental")
    check_solver = import_module("repro.check.solver")
    verifier = import_module("repro.check.verifier")
    emitter = import_module("repro.core.emitter")
    merging = import_module("repro.core.merging")
    synthesizer = import_module("repro.core.synthesizer")
    loader = import_module("repro.designs.loader")
    dfg_extract = import_module("repro.dfg.extract")
    dfg_stages = import_module("repro.dfg.stages")
    bitblast = import_module("repro.formal.bitblast")
    engine = import_module("repro.formal.engine")
    unroll = import_module("repro.formal.unroll")
    sc = import_module("repro.mcm.sc")
    passes = import_module("repro.netlist.passes")
    pipeline = import_module("repro.pipeline")
    journal = import_module("repro.resilience.journal")
    arena = import_module("repro.sat.arena")
    builders = import_module("repro.sva.builders")
    uspec_parser = import_module("repro.uspec.parser")

    # Front end and DFG.
    patch_function(tracer, loader, "load_design", "verilog.load")
    patch_function(tracer, dfg_extract, "full_design_dfg", "dfg.extract")
    patch_function(tracer, dfg_stages, "label_stages", "dfg.extract")

    # SVA monitors: the builder registry holds its own references.
    for key, build in list(builders.BUILDERS.items()):
        wrapped = tracer.wrap(build, "sva.monitor",
                              after=lambda *_: tracer.count("sva.monitors"))
        builders.BUILDERS[key] = wrapped
        _replace_everywhere(build, wrapped)

    # Formal: COI + bitblast (cached or not), unrolling, whole checks.
    patch_method(tracer, bitblast.BlastCache, "get", "formal.blast")
    patch_function(tracer, bitblast, "bitblast", "formal.blast")
    patch_function(tracer, bitblast, "extend_bitblast", "formal.blast")
    patch_function(tracer, passes, "cone_of_influence", "formal.blast")
    # extend_to is also called by every literal lookup; _add_frame is
    # the work, once per unrolled frame.
    patch_method(tracer, unroll.Unroller, "_add_frame", "formal.unroll",
                 record=False)
    patch_method(tracer, engine.PropertyChecker, "check", "formal.check")

    # SAT: clause loading and search with its counters.  Clauses reach
    # the solver in bulk (add_cnf) or, in the formal engine's retained
    # solver, through _feed_solver's per-clause loop; wrapping add_clause
    # itself would cost a call per clause.
    count = tracer.count
    patch_method(tracer, arena.ArenaSolver, "add_cnf", "sat.load",
                 after=lambda _r, args, _s: count("sat.clauses",
                                                  len(args[1].clauses)))
    feed = engine.PropertyChecker.__dict__["_feed_solver"].__func__
    engine.PropertyChecker._feed_solver = staticmethod(tracer.wrap(
        feed, "sat.load", record=False,
        after=lambda fed, args, _s: count("sat.clauses", fed - args[2])))

    def solver_counters(args):
        return args[0].conflicts, args[0].propagations, args[0].decisions

    def count_search(_result, args, before):
        after = solver_counters(args)
        count("sat.solves")
        for name, old, new in zip(("sat.conflicts", "sat.propagations",
                                   "sat.decisions"), before, after):
            count(name, new - old)

    patch_method(tracer, arena.ArenaSolver, "solve", "sat.search",
                 before=solver_counters, after=count_search)

    # Core: synthesis as a whole, node merging + emission.
    patch_method(tracer, synthesizer.Rtl2Uspec, "synthesize", "core.synth")
    patch_function(tracer, merging, "merge_nodes", "core.emit")
    patch_function(tracer, emitter, "emit_model", "core.emit")

    # Pipeline stages and the fsync'd journals under them.
    patch_method(tracer, pipeline.Pipeline, "_run_parse", "pipeline.parse")
    patch_method(tracer, pipeline.Pipeline, "_run_synth", "pipeline.synth")
    patch_method(tracer, pipeline.Pipeline, "_run_check", "pipeline.check")
    patch_method(tracer, journal.Journal, "commit",
                 "resilience.journal_commit")

    # µspec parsing and the SC reference model.
    patch_function(tracer, uspec_parser, "parse_model", "uspec.parse")
    patch_function(tracer, sc, "sc_outcomes", "mcm.sc")

    # Check: grounding, order encoding, witnesses, per-test checks,
    # per-program grounding and batched decisions.
    patch_method(tracer, evaluator.ModelEvaluator, "ground_model",
                 "check.ground")

    patch_function(tracer, check_solver, "_add_order_constraints",
                   "check.order",
                   before=lambda args: len(args[0].cnf.clauses),
                   after=lambda _r, args, n: count(
                       "check.order_clauses", len(args[0].cnf.clauses) - n))
    patch_function(tracer, check_solver, "extract_witness", "check.witness")
    patch_method(tracer, verifier.Checker, "check_test", "check.test")

    def program_stats(_result, args, _state):
        count("check.vars", args[0].stats.vars)
        count("check.clauses", args[0].stats.clauses)

    patch_method(tracer, incremental.ProgramSolver, "__init__",
                 "check.program_ground", after=program_stats)

    def batch_counters(args):
        solver = args[0]
        return (solver.stats.batch_shared_levels,
                solver.stats.batch_assumption_levels, solver.fresh_fallbacks)

    def count_batch(_result, args, before):
        for name, old, new in zip(("check.batch_shared_levels",
                                   "check.batch_assumption_levels",
                                   "check.fresh_fallbacks"),
                                  before, batch_counters(args)):
            count(name, new - old)

    patch_method(tracer, incremental.ProgramSolver, "decide_batch",
                 "check.batch", before=batch_counters, after=count_batch)
