"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry point of each pipeline layer at
run time (class and module attributes are swapped for timing wrappers
and put back by :meth:`Tracer.uninstall`), so nothing under ``src/``
knows it is measured.  Spans live in memory as rows of four flat
arrays (name id, parent row, start, end), which the interpreter's cycle
collector never has to walk; :meth:`Tracer.take_pass` folds one pass's
rows into per-layer self times (a span's duration minus its child
spans') and counters, then clears them.

Only the traced run installs a tracer: the timed runs call the program
with no wrapper and no obs collector.
"""

from __future__ import annotations

import gc
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import driver
from repro.analysis.engine import SummaryEngine
from repro.analysis import executor as executor_module
from repro.analysis.executor import AnalysisExecutor, ReportCache, SummaryCache
from repro.api import AnalysisSession
from repro.detectors import registry
from repro.detectors.base import AnalysisContext
from repro.lang.lexer import Lexer
from repro.lang.parser import Parser
from repro.mir.build import ProgramBuilder

#: Span names of the front end, in pipeline order.
FRONTEND = ("lex", "parse", "hir", "mir_lower")

#: The ``detectors.base.AnalysisContext`` shared passes that get a span.
CONTEXT_PASSES = ("points_to", "storage_ranges", "init_states",
                  "guard_regions", "thread_escape", "lock_graph")

#: Span of each workload operation, an ``AnalysisSession.analyze`` or
#: ``analyze_sources`` call; its self time is the work no layer span
#: covers (``other.self_s``).
ROOT = "op"

_MISSING = object()


class Tracer:
    """Records layer spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_open = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              pre: Optional[Callable] = None,
              post: Optional[Callable] = None) -> Callable:
        open_row, stack, starts, ends = \
            self._open_row, self._stack, self._start, self._end
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            index = open_row(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if post is not None:
                post(args, result, before)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open_row(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(index)
        return index

    def _patch(self, owner, attr: str, wrapper: Callable,
               static: bool = False) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def _span(self, owner, attr: str, name: str, pre=None, post=None,
              static: bool = False) -> None:
        self._patch(owner, attr,
                    self._wrap(name, getattr(owner, attr), pre, post), static)

    def _gc_event(self, phase: str, _info) -> None:
        # A collection runs inside whichever span allocated last; giving
        # it a span of its own keeps its pause out of that layer's time.
        # Collections outside any operation are not part of a pass.
        if phase == "start":
            if self._stack:
                self._gc_open = True
                self._start[self._open_row(self._name_id("gc"))] = \
                    perf_counter()
        elif self._gc_open:
            self._gc_open = False
            self._end[self._stack.pop()] = perf_counter()

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def add(key: str, n: float) -> None:
            counts[key] += n

        def lowered_unwind(args, _result, _before) -> None:
            # Counted once the engine has lowered the program's unwind
            # edges: landing pads are the blocks marked ``cleanup``.
            for body in args[1].functions.values():
                for block in body.blocks:
                    add("mir.cleanup_blocks" if block.cleanup
                        else "mir.blocks", 1)

        self._span(AnalysisSession, "analyze_sources", ROOT)
        self._span(AnalysisSession, "analyze", ROOT)
        self._span(Lexer, "tokenize", "lex",
                   post=lambda a, tokens, _b: add("tokens", len(tokens)))
        self._span(Parser, "parse_crate", "parse")
        self._span(driver, "build_item_table", "hir")
        self._span(ProgramBuilder, "build", "mir_lower",
                   post=lambda a, program, _b: add("mir_lower.fns",
                                                   len(program.functions)))

        # SummaryEngine construction is the unwind-lowering entry point:
        # it lowers every body's unwind edges before anything scans one.
        self._span(SummaryEngine, "__init__", "unwind_lower",
                   post=lowered_unwind)
        self._span(AnalysisExecutor, "solve", "solve",
                   post=lambda a, _r, _b: add(
                       "solve.fns", len(a[0].engine.program.functions)))
        scc_order = executor_module.scc_order

        def counted_scc_order(*args, **kwargs):
            components = scc_order(*args, **kwargs)
            add("solve.components", len(components))
            return components
        self._patch(executor_module, "scc_order", counted_scc_order)

        def got_wave(args, result, _before):
            add("summary_cache.lookups", len(args[1]))
            add("summary_cache.hits", len(result[0]))
        self._span(SummaryCache, "get_wave", "summary_cache.get",
                   post=got_wave)
        self._span(SummaryCache, "put_wave", "summary_cache.put")
        self._span(ReportCache, "key", "report_cache.key", static=True)

        def got_report(_args, result, _before):
            add("report_cache.lookups", 1)
            add("report_cache.hits", result is not None)
        self._span(ReportCache, "get", "report_cache.get", post=got_report)
        self._span(ReportCache, "put", "report_cache.put")

        for name in CONTEXT_PASSES:
            self._span(AnalysisContext, name, name)
        for cls in registry.ALL_DETECTORS:
            self._span(cls, "run", f"detector.{cls.name}",
                       post=lambda a, found, _b: add("detectors.findings_raw",
                                                     len(found)))
        self._span(registry, "apply_subsumption", "subsumption",
                   pre=lambda a: len(a[0].findings),
                   post=lambda a, report, before: add(
                       "detectors.subsumed", before - len(report.findings)))
        gc.callbacks.append(self._gc_event)

    def uninstall(self) -> None:
        if self._gc_event in gc.callbacks:
            gc.callbacks.remove(self._gc_event)
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-pass profile ---------------------------------------------------

    def take_pass(self) -> Tuple[Dict[str, float], Dict[str, float],
                                 Dict[str, float]]:
        """``(self_seconds, counts, folded)`` of the pass recorded since
        the last call, then forget it.  ``folded`` maps a span's stack
        path (``op;detector.deadlock;solve``) to its self seconds;
        ``self_seconds`` also carries ``wall``, the summed root spans."""
        names, parents = self._name, self._parent
        durations = [end - start for start, end in zip(self._start, self._end)]
        child = [0.0] * len(durations)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[i]
        self_seconds: Dict[str, float] = defaultdict(float)
        folded: Dict[str, float] = defaultdict(float)
        paths: List[str] = []
        wall = 0.0
        for i, parent in enumerate(parents):
            name = self._names[names[i]]
            own = durations[i] - child[i]
            self_seconds[name] += own
            path = name if parent < 0 else paths[parent] + ";" + name
            paths.append(path)
            folded[path] += own
            if parent < 0:
                wall += durations[i]
        self_seconds["wall"] = wall
        counts = dict(self.counts)
        for rows in (self._name, self._parent, self._start, self._end):
            del rows[:]
        self.counts.clear()
        return dict(self_seconds), counts, dict(folded)
