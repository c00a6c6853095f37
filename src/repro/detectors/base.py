"""Detector framework: shared analysis context and the Detector protocol."""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.analysis.callgraph import CallGraph
from repro.analysis.config import AnalysisConfig, coerce_config
from repro.analysis.engine import SummaryEngine
from repro.analysis.init import InitStates, init_of
from repro.analysis.lifetime import (
    GuardRegion, StorageRanges, compute_guard_regions, compute_storage_ranges,
    may_have_guard_regions,
)
from repro.analysis.points_to import PointsTo
from repro.analysis.scan import scan_of
from repro.analysis.summaries import FunctionSummary
from repro.detectors.report import Finding
from repro.detectors.waits import Wait, build_waits
from repro.hir.builtins import BuiltinOp
from repro.lang.types import TyKind
from repro.mir.nodes import Body, Program, Terminator


class AnalysisContext:
    """Caches per-body and per-program analyses so detectors share work.

    Interprocedural facts (points-to with return summaries, function
    summaries, the call graph, and the guard regions its solve computed)
    are owned by one :class:`~repro.analysis.engine.SummaryEngine`
    instance; the context keeps the purely intraprocedural caches (guard
    regions the solve did not cover, storage ranges, init states)
    itself, plus the program-level facts detectors
    look up (:meth:`arc_shared_structs`, :meth:`builtin_sites`,
    :meth:`waits`).  Each of those is built by one walk of the
    program on first use, so a per-body hook never walks the program.

    Every pass records an obs cache hit/miss counter and runs its compute
    under an ``analysis.<pass>`` span, so ``--profile`` shows where the
    static-analysis time goes and how well the cache amortises it.

    Cache keys are tuples (``(body.key, include_try)`` for guard
    regions), never concatenated strings — a body literally named
    ``foo#try`` must not collide with the cached try-variant of ``foo``.

    All knobs arrive in one :class:`~repro.analysis.config.AnalysisConfig`
    (``AnalysisConfig(interprocedural=False)`` is the ablation switch:
    every function summary collapses to the bottom element and points-to
    runs without return summaries, which is what the benchmarks use to
    measure the interprocedural layer's contribution).
    """

    def __init__(self, program: Program,
                 config: Optional[AnalysisConfig] = None) -> None:
        self.config = coerce_config(config)
        self.program = program
        self.engine = SummaryEngine(program, self.config)
        self._guard_regions: Dict[Tuple[str, bool], List[GuardRegion]] = {}
        self._storage_ranges: Dict[str, StorageRanges] = {}
        self._init_states: Dict[str, InitStates] = {}
        self._arc_shared: Optional[FrozenSet[str]] = None
        #: op → ``(walk position, body, block, terminator)``, in walk order.
        self._builtin_sites: Optional[
            Dict[BuiltinOp, List[Tuple[int, Body, int, Terminator]]]] = None
        self._waits: Optional[Dict[BuiltinOp, List[Wait]]] = None

    def _lookup(self, cache: Dict, key, pass_name: str, compute):
        hit = cache.get(key)
        if hit is not None:
            obs.count(f"analysis.{pass_name}.hit")
            return hit
        obs.count(f"analysis.{pass_name}.miss")
        with obs.span(f"analysis.{pass_name}"):
            value = compute()
        cache[key] = value
        return value

    def points_to(self, body: Body) -> PointsTo:
        return self.engine.points_to(body)

    def summary(self, key: str) -> FunctionSummary:
        """The engine's converged summary for one function key."""
        return self.engine.summary(key)

    def lock_chain(self, key: str, lock) -> List[str]:
        return self.engine.lock_chain(key, lock)

    def drop_chain(self, key: str, position: int) -> List[str]:
        return self.engine.drop_chain(key, position)

    def access_chain(self, key: str, access) -> List[str]:
        return self.engine.access_chain(key, access)

    def panic_chain(self, key: str) -> List[str]:
        return self.engine.panic_chain(key)

    def thread_escape(self):
        """Program-wide thread-escape facts (engine-owned, lazy)."""
        return self.engine.thread_escape()

    def lock_graph(self):
        """The cross-thread lock graph (engine-owned, lazy)."""
        return self.engine.lock_graph()

    def guard_regions(self, body: Body,
                      include_try: bool = False) -> List[GuardRegion]:
        """The body's guard regions.  The solve already computed the
        ``include_try=True`` list of most bodies that take a lock, with
        the same points-to and summaries; those are served (filtered to
        the blocking acquisitions for ``include_try=False``) and only
        the bodies it did not cover are computed here."""
        return self._lookup(
            self._guard_regions, (body.key, include_try), "guard_regions",
            lambda: self._compute_guard_regions(body, include_try))

    def _compute_guard_regions(self, body: Body,
                               include_try: bool) -> List[GuardRegion]:
        solved = self.engine.solved_guard_regions(body.key)
        if solved is not None:
            if include_try:
                return solved
            return [region for region in solved if not region.is_try]
        summaries = self.engine.summaries_map()
        # Most uncovered bodies have no lock in reach: answer them from
        # the index, before their points-to is asked for.
        if not may_have_guard_regions(body, include_try, summaries):
            return []
        return compute_guard_regions(
            body, self.points_to(body), include_try=include_try,
            summaries=summaries)

    def storage_ranges(self, body: Body) -> StorageRanges:
        return self._lookup(
            self._storage_ranges, body.key, "storage_ranges",
            lambda: compute_storage_ranges(body))

    def init_states(self, body: Body) -> InitStates:
        """The body's one init solution (shared with unwind lowering and
        the panic facts, see :func:`~repro.analysis.init.init_of`)."""
        return self._lookup(
            self._init_states, body.key, "init_states",
            lambda: init_of(body))

    @property
    def call_graph(self) -> CallGraph:
        return self.engine.call_graph

    def arc_shared_structs(self) -> FrozenSet[str]:
        """Names ``S`` such that some local anywhere in the program has
        type ``Arc<S>`` (outermost ``Arc`` only, ``S`` with its wrappers
        peeled)."""
        if self._arc_shared is None:
            self._arc_shared = frozenset(
                local.ty.args[0].peel_wrappers().name
                for body in self.program.bodies() for local in body.locals
                if local.ty.kind is TyKind.BUILTIN
                and local.ty.name == "Arc" and local.ty.args)
        return self._arc_shared

    def builtin_sites(self, *ops: BuiltinOp
                      ) -> List[Tuple[Body, int, Terminator]]:
        """Every call of one of ``ops`` (distinct) in the program, in the
        order a walk of ``program.bodies()`` and each body's
        ``iter_terminators()`` meets them.  Findings carry the first
        matching site, so the order is part of the output."""
        index = self._builtin_sites
        if index is None:
            index = {}
            position = 0
            for body in self.program.bodies():
                for bb, term in scan_of(body).calls:
                    op = term.func.builtin_op
                    if op is not None:
                        index.setdefault(op, []).append(
                            (position, body, bb, term))
                        position += 1
            self._builtin_sites = index
        return [(body, bb, term) for _pos, body, bb, term
                in heapq.merge(*(index.get(op, ()) for op in ops))]

    def waits(self, op: BuiltinOp) -> List[Wait]:
        """Every ``op`` site (``CONDVAR_WAIT`` or ``CHANNEL_RECV``) with
        its one wait/wake verdict (:mod:`repro.detectors.waits`), in
        :meth:`builtin_sites` order; both ops are answered by one build."""
        if self._waits is None:
            with obs.span("analysis.waits"):
                self._waits = build_waits(self)
        return self._waits[op]


class Detector:
    """Base class for all detectors.

    Subclasses set ``name`` / ``description`` and implement either
    :meth:`check_body` (called per function) or :meth:`check_program`
    (called once), or both.  ``check_body`` may look up a per-program
    fact on the context but never walks the program itself: that would
    make the detector quadratic in program size.  Neither hook walks a
    body: per-body facts are read off its index
    (:func:`~repro.analysis.scan.scan_of`), and a hook first asks the
    index whether its subject is in the body at all, returning ``[]``
    before any points-to, CFG or dataflow request when it is not.
    """

    name = "detector"
    description = ""
    #: Which paper section motivated this detector.
    paper_section = ""

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self.check_program(ctx))
        for body in ctx.program.bodies():
            findings.extend(self.check_body(ctx, body))
        return findings

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        return []

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        return []
