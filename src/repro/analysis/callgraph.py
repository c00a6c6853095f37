"""Call graph and each body's directly acquired locks.

The paper's double-lock detector "covers the case where two lock
acquisitions are in different functions by performing inter-procedural
analysis" (§7.2).  The call graph here is the schedule of that analysis
(the :class:`~repro.analysis.engine.SummaryEngine` solves its SCCs
bottom-up), and :func:`direct_locks` is the seed of each function's
``locks`` summary, expressed in terms the caller can translate:
argument positions and statics.

Thread-spawn edges are kept separately — a lock acquired inside a spawned
closure runs on another thread and must *not* be treated as a re-entrant
acquisition by the spawning code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import reach
from repro.analysis.scan import scan_of
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.source import Span
from repro.lang.types import TyKind
from repro.mir.nodes import Body, Program

# Abstract lock id, caller-translatable: ("arg", index, proj) | ("static", name)
LockId = Tuple


@dataclass
class CallSite:
    caller: str
    callee: str
    block: int
    span: Span
    is_spawn: bool = False
    #: For each callee argument position: the caller argument index that
    #: flows into it (via a direct reference chain), or None.
    arg_sources: List[Optional[int]] = field(default_factory=list)


@dataclass
class CallGraph:
    program: Program
    call_sites: List[CallSite] = field(default_factory=list)
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    spawn_edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: callee key → the call sites naming it, in ``call_sites`` order;
    #: built on the first :meth:`sites_calling` call.
    _by_callee: Optional[Dict[str, List[CallSite]]] = \
        field(default=None, repr=False, compare=False)

    def callees(self, key: str) -> Set[str]:
        return self.edges.get(key, set())

    def sites_calling(self, key: str) -> List[CallSite]:
        if self._by_callee is None:
            by_callee: Dict[str, List[CallSite]] = {}
            for site in self.call_sites:
                by_callee.setdefault(site.callee, []).append(site)
            self._by_callee = by_callee
        return self._by_callee.get(key, [])

    def calls_or_spawns(self, key: str) -> Set[str]:
        """The functions ``key`` calls on its own thread or spawns."""
        return self.edges.get(key, set()) | self.spawn_edges.get(key, set())

    def reachable_from_spawn(self) -> Set[str]:
        """Functions that may run on a spawned thread."""
        return reach(set().union(*self.spawn_edges.values()),
                     self.calls_or_spawns)


def _closure_keys_in_args(body: Body, term) -> List[str]:
    keys = []
    for arg in term.args:
        if arg.place is None:
            continue
        ty = body.local_ty(arg.place.local)
        if ty.kind is TyKind.CLOSURE:
            keys.append(ty.name)
    return keys


def build_call_graph(program: Program) -> CallGraph:
    """The program's call graph, read off each body's indexed calls."""
    graph = CallGraph(program)

    for key, body in program.functions.items():
        graph.edges.setdefault(key, set())
        graph.spawn_edges.setdefault(key, set())
        scan = scan_of(body)
        for bb, term in scan.calls:
            func = term.func
            if func.builtin_op is BuiltinOp.THREAD_SPAWN:
                for closure_key in _closure_keys_in_args(body, term):
                    graph.spawn_edges[key].add(closure_key)
                    graph.call_sites.append(CallSite(
                        caller=key, callee=closure_key, block=bb,
                        span=term.span, is_spawn=True))
                continue
            callee_key: Optional[str] = None
            if func.kind is FuncKind.USER:
                callee_key = func.user_fn
            elif func.kind is FuncKind.CLOSURE:
                callee_key = func.user_fn
            elif func.builtin_op is BuiltinOp.ONCE_CALL_ONCE:
                # call_once(closure) executes the closure synchronously.
                for closure_key in _closure_keys_in_args(body, term):
                    callee_key = closure_key
            if callee_key is None or callee_key not in program.functions:
                continue
            graph.edges[key].add(callee_key)
            graph.call_sites.append(CallSite(
                caller=key, callee=callee_key, block=bb, span=term.span,
                arg_sources=list(scan.arg_sources(body, term))))

    return graph


def scc_order(program: Program, graph: CallGraph) -> List[List[str]]:
    """Tarjan's SCC algorithm (iterative); emits components in reverse
    topological order — callees before callers.  This is the solve order
    of the :class:`~repro.analysis.engine.SummaryEngine` and the input of
    :func:`wave_partition`."""
    functions = program.functions
    keys = list(functions.keys())
    edges = {key: sorted(c for c in graph.edges.get(key, ())
                         if c in functions) for key in keys}
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0
    for root in keys:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    popped = stack.pop()
                    on_stack.discard(popped)
                    component.append(popped)
                    if popped == node:
                        break
                components.append(component)
    return components


def component_callees(component: List[str], graph: CallGraph,
                      program: Program) -> Set[str]:
    """Functions outside ``component`` that its members call (same
    thread) — the summaries a solve of the component depends on."""
    members = set(component)
    out: Set[str] = set()
    for key in component:
        for callee in graph.edges.get(key, ()):
            if callee not in members and callee in program.functions:
                out.add(callee)
    return out


def wave_partition(components: List[List[str]], graph: CallGraph,
                   program: Program) -> List[List[int]]:
    """Group SCC indices into *waves* of mutually independent components.

    Wave ``k`` holds every component whose callees all live in waves
    ``< k`` (leaves are wave 0), i.e. the longest-path depth of the
    condensed call graph.  Components inside one wave share no edges, so
    they can be solved in parallel; solving waves in order preserves the
    bottom-up invariant that every external callee is already converged.
    Within a wave, the original (reverse-topological) component order is
    kept, which is what makes the executor's merge deterministic at any
    worker count.
    """
    comp_of: Dict[str, int] = {}
    for i, component in enumerate(components):
        for key in component:
            comp_of[key] = i
    depth: List[int] = [0] * len(components)
    # components are emitted callees-first, so one forward pass suffices.
    for i, component in enumerate(components):
        d = 0
        for key in component:
            for callee in graph.edges.get(key, ()):
                j = comp_of.get(callee)
                if j is not None and j != i:
                    d = max(d, depth[j] + 1)
        depth[i] = d
    waves: List[List[int]] = []
    for i in range(len(components)):
        while len(waves) <= depth[i]:
            waves.append([])
        waves[depth[i]].append(i)
    return waves


def direct_locks(body: Body) -> Set[LockId]:
    """Abstract locks directly acquired in ``body`` (caller-translatable
    ids only: args and statics).  Each entry is
    ``(kind_of_id, payload, projection, lock_kind)`` where ``lock_kind`` is
    "mutex" / "read" / "write" / ...; read off the body's fact index."""
    return set(scan_of(body).direct_locks)
