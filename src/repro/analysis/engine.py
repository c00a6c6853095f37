"""The summary engine: bottom-up interprocedural analysis over SCCs.

:class:`SummaryEngine` owns every interprocedural fact the detectors
consume.  It walks the call graph bottom-up — Tarjan's algorithm emits
strongly connected components in reverse topological order, so every
callee outside the current component is already summarised — and iterates
each component with a worklist until its members' summaries stop
changing.  All summary fields are may-sets (or monotone flags), so the
fixpoint is exact: recursion and mutual recursion converge without
round bounds.

The engine also owns the per-body points-to cache.  Points-to facts and
function summaries are mutually dependent (a body's points-to needs its
callees' return summaries; the summary is extracted from the body's
points-to), which is why the old design recomputed points-to for every
function per round.  Here the solve works on a *live view* of the current
summaries and seeds the per-body cache with its final (fixpoint) result,
so the detector-facing :meth:`points_to` never recomputes what the solve
already produced — with the same ``analysis.points_to.hit``/``.miss``
obs counters the old ``AnalysisContext`` cache emitted (miss = first
request for a body's facts, hit = every repeat).

With ``AnalysisConfig(interprocedural=False)`` every summary is the
bottom element and points-to runs without return summaries — the
ablation mode the benchmarks use to measure what the interprocedural
layer buys.  The one exception is ``lock_orders``: each summary keeps
its body's own direct pairs, which the lock-graph detectors read.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.callgraph import CallGraph, build_call_graph, direct_locks
from repro.analysis.config import AnalysisConfig, coerce_config
from repro.analysis.escape import ThreadEscape, compute_thread_escape
from repro.analysis.intern import Interner
from repro.analysis.lifetime import (
    LOCK_ACQUIRE_OPS, GuardRegion, caller_lock_ids, compute_guard_regions,
    lock_identity,
)
from repro.analysis.panic import compute_panic_effects, ensure_unwind_edges
from repro.analysis.points_to import (
    PointsTo, UNKNOWN_TARGET, compute_points_to, return_items,
)
from repro.analysis.scan import callee_of, scan_of
from repro.analysis.summaries import (
    AccessKey, EffectHop, FunctionSummary, LockId, chain_fate,
    deref_access_sites, opaque_lock, owned_value_args, translate_access_loc,
    translate_lock, value_chain,
)
from repro.analysis.unsafe_prop import compute_unsafe_provenance
from repro.mir.nodes import Body, Program


class _ReturnView:
    """Live dict-view of the engine's current return facts.

    Handed to ``compute_points_to`` both *during* the solve (where it
    reflects the partially converged state of the current SCC iteration)
    and after it (where it is the fixpoint).  Always truthy so the
    user-call branch of the constraint builder stays enabled even while
    the map is still empty.  Holds the engine's summary dict (never
    reassigned), not the engine, so the two form no reference cycle.
    """

    def __init__(self, summaries: Dict[str, FunctionSummary]) -> None:
        self._summaries = summaries

    def get(self, key: str, default=None):
        summary = self._summaries.get(key)
        if summary is None:
            return default
        return summary.returns or default

    def __bool__(self) -> bool:
        return True


# The per-kind steps of ``SummaryEngine._hop_chain``: each maps a
# summary and the item followed through it to the callee hop, or None.

def _lock_hop(summary: FunctionSummary, lock):
    return summary.locks.get(lock)


def _drop_hop(summary: FunctionSummary, position):
    return summary.may_drop_args.get(position)


def _panic_hop(summary: FunctionSummary, _item):
    hop = summary.panic.hop
    return None if hop is None else (hop, None)


def _access_hop(summary: FunctionSummary, access):
    entry = summary.shared_accesses.get(access)
    return None if entry is None else entry[0]


def _sink_hop(summary: FunctionSummary, position):
    entry = summary.unsafe_provenance.arg_sinks.get(position)
    return None if entry is None else entry[1]


class SummaryEngine:
    """Computes and caches :class:`FunctionSummary` facts for a program."""

    def __init__(self, program: Program,
                 config: Optional[AnalysisConfig] = None) -> None:
        self.config = coerce_config(config)
        self.program = program
        if self.config.unwind_edges:
            # Unwind lowering runs before anything scans or fingerprints
            # a body: every downstream consumer (dataflow, the summary
            # cache) sees one consistent CFG.  Idempotent, so a second
            # engine over the same program is a no-op.
            with obs.span("analysis.unwind_lowering"):
                for body in program.functions.values():
                    ensure_unwind_edges(body)
        self.interprocedural = self.config.interprocedural
        self._summaries: Dict[str, FunctionSummary] = {}
        self._points_to: Dict[str, PointsTo] = {}
        self._call_graph: Optional[CallGraph] = None
        self._thread_escape: Optional[ThreadEscape] = None
        self._lock_graph = None
        self._view = _ReturnView(self._summaries)
        #: Per-analysis intern table for summary atoms (lock ids, access
        #: locations/keys, locksets) — one canonical object per distinct
        #: atom, so summary equality checks hit identity fast paths.
        self._intern = Interner()
        #: body key → the guard regions (``include_try=True``) its last
        #: summarise computed, against its converged callees and its
        #: fixpoint points-to; ``AnalysisContext.guard_regions`` serves
        #: them.  Kept here, not on the body's scan: a region points
        #: back at its body.
        self._guard_regions: Dict[str, List[GuardRegion]] = {}
        self._solved = False
        self._served: Set[str] = set()
        self._pt_served: Set[str] = set()

    # -- public API ---------------------------------------------------------

    @property
    def call_graph(self) -> CallGraph:
        if self._call_graph is None:
            obs.count("analysis.call_graph.miss")
            with obs.span("analysis.call_graph"):
                self._call_graph = build_call_graph(self.program)
        else:
            obs.count("analysis.call_graph.hit")
        return self._call_graph

    def points_to(self, body: Body) -> PointsTo:
        """The body's points-to facts at the interprocedural fixpoint.

        The solve seeds this cache: the last points-to computed for a
        function runs against its component's converged summaries, so it
        already *is* the fixpoint result.  ``miss`` counts the first
        request for a body (facts had to be produced for it), ``hit``
        every repeat — the same contract the per-body cache always had.
        """
        self._ensure_solved()
        if body.key in self._pt_served:
            obs.count("analysis.points_to.hit")
        else:
            self._pt_served.add(body.key)
            obs.count("analysis.points_to.miss")
        cached = self._points_to.get(body.key)
        if cached is not None:
            return cached
        with obs.span("analysis.points_to"):
            pt = compute_points_to(
                body, self._view if self.interprocedural else None)
        self._points_to[body.key] = pt
        return pt

    def summary(self, key: str) -> FunctionSummary:
        """The converged summary for ``key`` (bottom for unknown keys)."""
        self._ensure_solved()
        if key in self._served:
            obs.count("analysis.summary.hit")
        else:
            self._served.add(key)
            obs.count("analysis.summary.miss")
        summary = self._summaries.get(key)
        if summary is None:
            summary = FunctionSummary(key=key)
            self._summaries[key] = summary
        return summary

    def solved_guard_regions(self, key: str) -> Optional[List[GuardRegion]]:
        """The ``include_try=True`` guard regions the solve computed for
        ``key`` on its final summarise, or None when it computed none
        (summary served from the cache, no lock in reach, ablation)."""
        self._ensure_solved()
        return self._guard_regions.get(key)

    def summaries_map(self) -> Dict[str, FunctionSummary]:
        """The converged summary map (for summary-aware guard regions)."""
        self._ensure_solved()
        return self._summaries

    def return_summaries(self) -> Dict[str, set]:
        """Legacy-shaped view: fn key → return items (non-empty only)."""
        self._ensure_solved()
        return {key: set(s.returns)
                for key, s in self._summaries.items() if s.returns}

    def _hop_chain(self, key: str, item, step) -> List[str]:
        """The call chain from ``key`` along summary hops.

        ``step(summary, item)`` is the ``(callee key, callee item)`` hop
        of ``item`` in ``key``'s summary, or ``None`` where the fact is
        direct.  The walk also stops at a key with no summary and at a
        hop it has already taken (recursion), so every chain is finite.
        """
        self._ensure_solved()
        chain = [key]
        seen = {(key, item)}
        while True:
            summary = self._summaries.get(key)
            hop = None if summary is None else step(summary, item)
            if hop is None or hop in seen:
                return chain
            seen.add(hop)
            key, item = hop
            chain.append(key)

    def lock_chain(self, key: str, lock: LockId) -> List[str]:
        """The call chain along which ``key`` reaches the acquisition of
        ``lock`` — ``[key]`` when the acquisition is direct."""
        return self._hop_chain(key, lock, _lock_hop)

    def drop_chain(self, key: str, position: int) -> List[str]:
        """The call chain along which the value passed to ``key`` at
        argument ``position`` reaches its drop.  A summary that names
        itself as the dropper (a self-hop) ends the chain there, as any
        revisited hop does."""
        return self._hop_chain(key, position, _drop_hop)

    def panic_chain(self, key: str) -> List[str]:
        """The call chain along which ``key`` reaches a panic source —
        ``[key]`` when a panic operation is in its own body."""
        return self._hop_chain(key, None, _panic_hop)

    def access_chain(self, key: str, access: Tuple) -> List[str]:
        """The call chain along which ``key`` reaches the shared access
        ``access`` (an :data:`AccessKey`) — ``[key]`` when direct."""
        return self._hop_chain(key, access, _access_hop)

    def sink_chain(self, key: str, position: int) -> List[str]:
        """The call chain along which argument ``position`` of ``key``
        reaches an unguarded unsafe sink — ``[key]`` when the sink is in
        its own body."""
        return self._hop_chain(key, position, _sink_hop)

    def thread_escape(self) -> ThreadEscape:
        """Program-wide thread-escape facts (computed once, lazily)."""
        self._ensure_solved()
        if self._thread_escape is None:
            obs.count("analysis.thread_escape.miss")
            with obs.span("analysis.thread_escape"):
                self._thread_escape = compute_thread_escape(
                    self.program, self.points_to, self.call_graph)
        else:
            obs.count("analysis.thread_escape.hit")
        return self._thread_escape

    def lock_graph(self):
        """The cross-thread lock graph (computed once, lazily): global
        lock identities with per-thread-root acquisition-order edges —
        see :mod:`repro.analysis.lockgraph`."""
        from repro.analysis.lockgraph import build_lock_graph
        self._ensure_solved()
        if self._lock_graph is None:
            obs.count("analysis.lock_graph.miss")
            with obs.span("analysis.lock_graph"):
                self._lock_graph = build_lock_graph(self)
            obs.gauge("analysis.lock_graph.nodes",
                      len(self._lock_graph.nodes))
            obs.gauge("analysis.lock_graph.edges",
                      len(self._lock_graph.edges))
        else:
            obs.count("analysis.lock_graph.hit")
        return self._lock_graph

    # -- solve --------------------------------------------------------------

    def _ensure_solved(self) -> None:
        if self._solved:
            return
        self._solved = True
        if not self.interprocedural:
            # Ablation mode: every summary is the bottom element, except
            # that it keeps the body's own direct lock-order pairs (the
            # lock-order detector's edges).  Every body's pairs are
            # computed before any summary is filled in, so each sees
            # only missing (bottom) callees and nothing composes.
            direct = {key: self._direct_lock_orders(body)
                      for key, body in self.program.functions.items()}
            for key, orders in direct.items():
                self._summaries[key] = FunctionSummary(
                    key=key, lock_orders=orders)
            return
        with obs.span("analysis.summaries"):
            self._solve()
        obs.count("analysis.intern.hits", self._intern.hits)
        obs.count("analysis.intern.misses", self._intern.misses)
        obs.gauge("analysis.intern.size", len(self._intern))

    def _solve(self) -> None:
        # The executor owns the schedule and the on-disk summary cache;
        # with no cache it is the classic serial bottom-up solve.
        from repro.analysis.executor import AnalysisExecutor
        AnalysisExecutor(self, self.config).solve()

    def solve_component(self, component: List[str]) -> int:
        """Run the worklist for one SCC against ``self._summaries``.

        Every callee outside ``component`` must already be converged in
        ``self._summaries`` (the bottom-up invariant).  Member summaries
        and their fixpoint points-to facts are written back in place;
        returns the number of worklist iterations taken.  This is the
        unit of work the executor schedules and caches.

        Each solve records an ``analysis.scc`` span (head function,
        component size, wall time, iterations) — the per-unit cost
        attribution behind ``minirust stats --top`` and the flamegraph.
        """
        with obs.span("analysis.scc", head=component[0],
                      functions=len(component)) as scc_span:
            iterations = self._component_worklist(component)
            scc_span.set(iterations=iterations)
        return iterations

    def _component_worklist(self, component: List[str]) -> int:
        program = self.program
        # Cyclicity is decided from the member bodies alone: a component
        # is cyclic when it has several members or its one member calls
        # itself.
        cyclic = len(component) > 1 \
            or scan_of(program.functions[component[0]]).calls_self
        in_progress = frozenset(component) if cyclic else frozenset()
        if not cyclic:
            # Every callee is outside the component and already
            # converged: one pass is the fixpoint.
            key = component[0]
            body = program.functions[key]
            pt = compute_points_to(body, self._view)
            obs.count("analysis.summaries.points_to_computes")
            self._points_to[key] = pt
            self._summaries[key] = self._summarize(body, pt, in_progress)
            return 1

        # Early-exit worklist for cyclic components: a member is only
        # re-summarised when one of its in-component callees changed in
        # the previous pass.  Its stored points-to / summary then always
        # reflects its callees' final facts (a later callee change would
        # have re-queued it), so the fixpoint is identical to the full
        # re-iteration — the passes just stop paying for unchanged
        # members.
        member_set = frozenset(component)
        deps = {
            key: frozenset(
                callee for _bb, _term, callee, _sources in
                self._user_sites(program.functions[key])
            ) & member_set
            for key in component}
        iterations = 0
        queued = set(component)
        while queued:
            iterations += 1
            changed_now = set()
            for key in component:
                if key not in queued:
                    continue
                body = program.functions[key]
                pt = compute_points_to(body, self._view)
                obs.count("analysis.summaries.points_to_computes")
                # The last compute for a function runs against its
                # component's converged summaries — the fixpoint the
                # detector-facing cache serves.
                self._points_to[key] = pt
                new = self._summarize(body, pt, in_progress)
                if new != self._summaries.get(key):
                    self._summaries[key] = new
                    changed_now.add(key)
            queued = {key for key in component if deps[key] & changed_now}
        return iterations

    def adopt_summaries(self, summaries: Dict[str, FunctionSummary]) -> None:
        """Install summaries served by the summary cache."""
        self._summaries.update(summaries)

    # -- per-body summarisation ---------------------------------------------

    def _user_sites(self, body: Body) -> Tuple:
        """The body's same-thread call sites ``(block, terminator, callee
        key, arg sources)`` whose callee is in the program."""
        sites = scan_of(body).facts.user_sites
        functions = self.program.functions
        for site in sites:
            if site[2] not in functions:
                return tuple(site for site in sites if site[2] in functions)
        return sites

    def _summarize(self, body: Body, pt: PointsTo,
                   in_progress: FrozenSet[str]) -> FunctionSummary:
        key = body.key
        intern = self._intern.intern
        scan = scan_of(body)
        facts = scan.facts
        user_sites = self._user_sites(body)
        self._guard_regions.pop(key, None)

        returns: Set = set(return_items(body, pt))
        for target in pt.targets(0):
            if target[0] == "heap":
                returns.add("heap")
            elif target == UNKNOWN_TARGET:
                returns.add("unknown")

        locks: Dict[LockId, Optional[Tuple[str, LockId]]] = {
            intern(lock): None for lock in direct_locks(body)}
        acquires = bool(locks) or facts.direct_acquires
        calls_unknown = facts.direct_calls_unknown
        may_drop: Dict[int, EffectHop] = {}
        escapes: Dict[int, EffectHop] = {}

        # Compose callee effects into this summary.
        for _bb, term, callee, sources in user_sites:
            callee_summary = self._summaries.get(callee)
            if callee_summary is None:
                continue
            if callee_summary.calls_unknown:
                calls_unknown = True
            if callee_summary.acquires_any_lock:
                acquires = True
            for lock in callee_summary.locks:
                translated = translate_lock(lock, sources)
                if translated is not None:
                    translated = intern(translated)
                    if translated not in locks:
                        locks[translated] = (callee, lock)
                elif lock[0] == "arg":
                    # Points-to route: an arg-relative lock whose operand
                    # is a local Arc resolves to its allocation site — the
                    # globally identifiable name the cross-thread lock
                    # graph and `lock_chain` provenance need.
                    for ident in sorted(caller_lock_ids(body, pt, term,
                                                        lock)):
                        if ident[0] != "heap" \
                                or len(ident[2]) > self._MAX_PROJ:
                            continue
                        heap_id = intern(("heap", ident[1],
                                          tuple(ident[2]), lock[3]))
                        if heap_id not in locks:
                            locks[heap_id] = (callee, lock)
            for position in callee_summary.arg_escapes:
                if position < len(sources) \
                        and sources[position] is not None:
                    escapes.setdefault(sources[position],
                                       (callee, position))

        # May-drop / escape facts for owned by-value arguments.
        int_returns = {item for item in returns if isinstance(item, int)}
        for position in owned_value_args(body):
            chain = value_chain(body, position + 1)
            fate = chain_fate(scan, chain, self._summaries.get)
            if fate.escaped:
                escapes.setdefault(position, (key, position))
            if fate.forgotten or position in int_returns or 0 in chain:
                continue      # the value leaves this frame alive
            # Dropped here, or moved into a callee that drops it; any
            # other owned argument dies with this frame, even one moved
            # into a callee that keeps it.
            may_drop[position] = fate.hop \
                if fate.hop is not None and not fate.dropped \
                else (key, position)

        # Guard-region computation is the expensive part of summarising;
        # both consumers below (held-on-return, shared-access locksets)
        # share one lazy compute.  ``include_try=True`` so locksets see
        # try-acquisitions too; held-on-return filters ``is_try`` itself.
        regions: Optional[List] = None

        def guard_regions() -> List:
            nonlocal regions
            if regions is None:
                regions = self._guard_regions[key] = compute_guard_regions(
                    body, pt, include_try=True, summaries=self._summaries)
            return regions

        # Locks still held when the function returns (a returned guard).
        # Only runs when the return type can actually carry a guard out
        # of the frame AND a lock is acquired in the call tree.
        held: Set[LockId] = set()
        might_hold = facts.guard_return and (acquires or any(
            (callee_summary := self._summaries.get(callee)) is not None
            and callee_summary.locks_held_on_return
            for _bb, _term, callee, _sources in user_sites))
        if might_hold:
            return_points = facts.return_points
            for region in guard_regions():
                if region.is_try or not (region.points & return_points):
                    continue
                for ident in region.lock_ids:
                    if ident[0] in ("arg", "static"):
                        held.add(intern((ident[0], ident[1], ident[2],
                                         region.kind)))

        shared = self._shared_accesses(body, pt, user_sites, acquires,
                                       guard_regions)
        lock_orders = self._lock_orders(body, pt, user_sites, acquires,
                                        guard_regions)
        unsafe_prov = compute_unsafe_provenance(body, self._summaries,
                                                user_sites)

        return FunctionSummary(
            key=key, returns=frozenset(returns),
            const_return=self._const_return(body, in_progress),
            may_drop_args=may_drop, arg_escapes=escapes, locks=locks,
            locks_held_on_return=frozenset(held),
            acquires_any_lock=acquires, calls_unknown=calls_unknown,
            shared_accesses=shared, unsafe_provenance=unsafe_prov,
            lock_orders=lock_orders,
            panic=compute_panic_effects(body, self._summaries, user_sites))

    #: Translated access/lock projections longer than this are dropped —
    #: the bound that keeps recursive frames (whose translation prepends
    #: the caller's projection each hop) from growing summaries forever.
    _MAX_PROJ = 4

    def _shared_accesses(self, body: Body, pt: PointsTo, user_sites,
                         acquires: bool, guard_regions) -> Dict:
        """The "accesses-shared-under-locks" summary component: every
        deref access the call tree performs, keyed ``(location, is_write,
        lockset)``, with locations caller-translatable (``arg``) or global
        (``heap`` / ``static``) and locksets taken from the guard regions
        covering the access point.  Composed callee entries gain the locks
        this frame holds at the call site — protection routed through a
        helper function stays visible to the race detector."""
        might_lock = acquires or any(
            (cs := self._summaries.get(callee)) is not None
            and cs.acquires_any_lock
            for _bb, _term, callee, _sources in user_sites)

        intern = self._intern.intern
        intern_set = self._intern.intern_set

        def locks_at(point) -> FrozenSet:
            if not might_lock:
                return frozenset()
            out = set()
            for region in guard_regions():
                if region.covers(point):
                    for ident in region.lock_ids:
                        if ident[0] in ("arg", "static", "heap"):
                            out.add(ident + (region.kind,))
            return intern_set(out)

        shared: Dict[AccessKey, Tuple] = {}
        for point, base, proj, is_write, span in deref_access_sites(body):
            locs = set()
            if 0 < base <= body.arg_count:
                locs.add(("arg", base - 1, proj))
            base_name = body.locals[base].name or ""
            if base_name.startswith("static:"):
                locs.add(("static", base_name[7:], proj))
            for target in pt.targets(base):
                if target[0] == "heap":
                    locs.add(("heap", target[1], proj))
                elif target[0] == "static":
                    locs.add(("static", target[1], proj))
                elif target[0] == "argval":
                    locs.add(("arg", target[1], proj))
            if not locs:
                continue
            lockset = locks_at(point)
            for loc in sorted(locs):
                shared.setdefault(intern((intern(loc), is_write, lockset)),
                                  (None, span))

        for bb, term, callee, sources in user_sites:
            callee_summary = self._summaries.get(callee)
            if callee_summary is None or not callee_summary.shared_accesses:
                continue
            call_point = (bb, len(body.blocks[bb].statements))
            here = locks_at(call_point)
            for access in callee_summary.shared_accesses:
                loc, is_write, lockset = access
                locs = set()
                translated = translate_access_loc(loc, sources)
                if translated is not None:
                    locs.add(translated)
                if loc[0] == "arg" and loc[1] < len(term.args) \
                        and term.args[loc[1]].place is not None:
                    # Points-to route: the operand may name a heap site or
                    # static the argument-position route cannot see.
                    arg_local = term.args[loc[1]].place.local
                    for ident in lock_identity(body, pt, arg_local):
                        if ident[0] in ("arg", "static", "heap"):
                            locs.add((ident[0], ident[1],
                                      tuple(ident[2]) + tuple(loc[2])))
                locs = {l for l in locs if len(l[2]) <= self._MAX_PROJ}
                if not locs:
                    continue
                tlocks = set(here)
                for lk in lockset:
                    if lk[0] in ("heap", "static", "opaque"):
                        tlocks.add(lk)
                        continue
                    kept = set()
                    if lk[0] == "arg":
                        kept = {
                            ident + (lk[3],)
                            for ident in caller_lock_ids(body, pt, term, lk)
                            if ident[0] in ("arg", "static", "heap")
                            and len(ident[2]) <= self._MAX_PROJ}
                    if kept:
                        tlocks |= kept
                    else:
                        # Keep the access marked lock-protected even when
                        # the lock has no caller name (documented FP/FN
                        # trade: an opaque lock never matches another).
                        tlocks.add(opaque_lock(callee, lk))
                key_locks = intern_set(tlocks)
                for loc_t in sorted(locs):
                    shared.setdefault(
                        intern((intern(loc_t), is_write, key_locks)),
                        ((callee, access), term.span))
        return shared

    def _lock_orders(self, body: Body, pt: PointsTo, user_sites,
                     acquires: bool, guard_regions) -> Dict:
        """The caller-translatable lock-order component: ``(first,
        second) → span`` pairs (4-tuple lock ids) where the call tree may
        acquire ``second`` while holding ``first``.  Direct pairs come
        from this body's guard regions; composed pairs translate a
        callee's pairs through the call site — including through
        points-to, so ``helper(&A, &B)`` with a helper that locks both
        *arguments* yields the global ``(A, B)`` pair here."""
        might_lock = acquires or any(
            (cs := self._summaries.get(callee)) is not None
            and cs.acquires_any_lock
            for _bb, _term, callee, _sources in user_sites)
        if not might_lock:
            return {}

        orders: Dict[Tuple[LockId, LockId], object] = {}
        intern = self._intern.intern

        def add_pairs(firsts, seconds, span) -> None:
            for a in sorted(firsts):
                for b in sorted(seconds):
                    if a[:3] != b[:3] and len(a[2]) <= self._MAX_PROJ \
                            and len(b[2]) <= self._MAX_PROJ:
                        orders.setdefault(intern((intern(a), intern(b))),
                                          span)

        # Direct pairs: a later acquisition inside a held region.  Heap
        # allocation-site ids qualify alongside args and statics: they
        # are program-unique, so a pair over local Arc-allocated mutexes
        # stays meaningful in every caller's summary.
        calls = scan_of(body).calls
        for region in guard_regions():
            if region.is_try:
                continue
            firsts = {(ident[0], ident[1], tuple(ident[2]), region.kind)
                      for ident in region.lock_ids
                      if ident[0] in ("arg", "static", "heap")}
            if not firsts:
                continue
            for bb, term in calls:
                point = (bb, len(body.blocks[bb].statements))
                if not region.covers(point):
                    continue
                seconds = set()
                lock_kind = LOCK_ACQUIRE_OPS.get(term.func.builtin_op)
                if lock_kind is not None and term.args \
                        and term.args[0].place is not None:
                    for ident in lock_identity(body, pt,
                                               term.args[0].place.local):
                        if ident[0] in ("arg", "static", "heap"):
                            seconds.add((ident[0], ident[1],
                                         tuple(ident[2]), lock_kind))
                callee = callee_of(body, term)
                if callee is not None and callee in self.program.functions:
                    callee_summary = self._summaries.get(callee)
                    if callee_summary is not None:
                        sources = scan_of(body).arg_sources(body, term)
                        for lock in callee_summary.locks:
                            seconds |= self._caller_order_ids(
                                body, pt, term, lock, sources)
                if seconds:
                    add_pairs(firsts, seconds, term.span)

        # Composed pairs from callee summaries.
        for _bb, term, callee, sources in user_sites:
            callee_summary = self._summaries.get(callee)
            if callee_summary is None or not callee_summary.lock_orders:
                continue
            for first, second in callee_summary.lock_orders:
                firsts = self._caller_order_ids(body, pt, term, first,
                                                sources)
                seconds = self._caller_order_ids(body, pt, term, second,
                                                 sources)
                if firsts and seconds:
                    add_pairs(firsts, seconds, term.span)
        return orders

    def _direct_lock_orders(self, body: Body) -> Dict:
        """The body's own lock-order pairs, with no callee summarised —
        the ablation branch's one summary component."""
        if not scan_of(body).facts.direct_acquires:
            return {}
        with obs.span("analysis.points_to"):
            pt = self._points_to[body.key] = compute_points_to(body, None)
        return self._lock_orders(
            body, pt, self._user_sites(body), True,
            lambda: compute_guard_regions(body, pt, include_try=True,
                                          summaries=self._summaries))

    def _caller_order_ids(self, body: Body, pt: PointsTo, term,
                          lock: LockId, sources) -> Set[LockId]:
        """All caller-frame names of one callee lock id: the argument
        route (stays caller-translatable) plus the points-to route
        (resolves a lock passed by reference to the static or heap
        allocation site it names)."""
        out: Set[LockId] = set()
        translated = translate_lock(lock, sources)
        if translated is not None:
            out.add(translated)
        if lock[0] == "arg":
            for ident in caller_lock_ids(body, pt, term, lock):
                if ident[0] in ("static", "heap"):
                    out.add((ident[0], ident[1], tuple(ident[2]), lock[3]))
        return out

    def _const_return(self, body: Body,
                      in_progress: FrozenSet[str]) -> Optional[int]:
        """The single constant integer every return path yields, if any.

        Callees inside the SCC still being iterated count as unknown, so
        this field never oscillates during the worklist.
        """
        direct_values, unknown, zero_dest_calls = \
            scan_of(body).facts.const_skeleton
        values: List[int] = list(direct_values)
        for user_fn in zero_dest_calls:
            resolved = False
            if user_fn is not None and user_fn not in in_progress:
                callee_summary = self._summaries.get(user_fn)
                if callee_summary is not None \
                        and callee_summary.const_return is not None:
                    values.append(callee_summary.const_return)
                    resolved = True
            if not resolved:
                unknown = True
        if unknown or not values or len(set(values)) != 1:
            return None
        return values[0]
