"""The cross-thread lock graph: global lock identities × thread roots.

The paper's blocking-bug study (§6.1) finds that most real-world Rust
deadlocks are *cross-thread* cycles — thread A holds M1 wanting M2 while
thread B holds M2 wanting M1 — a shape no same-call-chain analysis can
see.  This module composes three facts the engine already computes into
one whole-program structure:

* **Nodes** are *global* lock identities — 3-tuples ``(kind, payload,
  projection)`` with kind ``"static"`` or ``"heap"`` — resolved through
  the thread-escape analysis's globally identifiable targets:
  Arc-cloned mutexes and captured locks resolve to their allocation
  site, statics to their name, channel endpoints to the ``channel()``
  call's site (see :func:`repro.analysis.escape.capture_lock_ids`).
* **Edges** are summary-carried acquisition orders
  (``FunctionSummary.lock_orders``, solved in the SCC fixpoint),
  attributed per *thread root*: the main thread owns the pairs of every
  function that never runs on a spawned thread; each
  :class:`~repro.analysis.escape.SpawnSite` owns its closure's pairs,
  with arg-relative ids resolved through the capture environment.
* **Cycles** come from a bounded Johnson-style elementary-circuit
  enumeration (:func:`elementary_circuits`, which the lock-order
  detector runs over the same summary pairs); a cycle is a *deadlock*
  candidate only when its edges can be assigned pairwise-distinct
  thread roots (the same thread acquiring A→B then B→A merely
  re-orders, and stays the lock-order detector's business).

Every edge carries hold/want provenance chains (the call chain from the
thread root's function to each acquisition, via the engine's
``lock_chain``), which is what lets the deadlock detector print
per-thread "holds … wants … acquired along …" narratives.

The module also hosts :func:`global_site_ids` — interprocedural identity
resolution for condvar / channel-endpoint receivers (capture and caller
routes) — and :func:`live_functions`, the reachability filter that keeps
a notify inside a never-spawned closure from suppressing a
missed-signal report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro import obs
from repro.analysis.dataflow import reach
from repro.analysis.escape import capture_lock_ids, translate_capture
from repro.analysis.lifetime import lock_identity
from repro.lang.source import Span
from repro.mir.nodes import Body

#: A lock-graph node: ``(kind, payload, projection)`` with kind
#: ``"static"`` or ``"heap"`` — the program-global part of a lock id.
LockNode = Tuple

#: Bound on elementary-circuit length (locks per cycle), the one bound
#: of both lock-graph detectors (``lock-order`` and ``deadlock``).  Real
#: deadlock reports overwhelmingly involve two or three locks; the bound
#: keeps the circuit search linear in practice on dense graphs while
#: leaving headroom.
DEFAULT_CYCLE_BOUND = 4


@dataclass(frozen=True, order=True)
class ThreadRoot:
    """One thread of execution the lock graph attributes edges to.

    The *main* root stands for everything that never runs on a spawned
    thread; every ``thread::spawn`` call site is its own root (the same
    closure spawned twice gives two roots — two live threads that can
    interleave against each other).
    """

    kind: str          # "main" | "spawn"
    spawner: str       # spawning function key ("" for the main root)
    block: int         # spawn-site block (-1 for the main root)
    key: str           # the root's entry function ("" for the main root)

    def label(self) -> str:
        if self.kind == "main":
            return "main thread"
        return f"thread spawned at `{self.spawner}` (block {self.block})"


MAIN_ROOT = ThreadRoot("main", "", -1, "")


@dataclass(frozen=True)
class OrderEdge:
    """One acquisition-order observation: ``root`` may acquire ``dst``
    while holding ``src``, observed in ``fn_key`` at ``span``."""

    src: LockNode
    dst: LockNode
    src_kind: str                  # "mutex" | "read" | "write" | ...
    dst_kind: str
    root: ThreadRoot
    fn_key: str                    # function whose summary carried the pair
    span: Span
    #: Call chains from ``fn_key`` to each acquisition ([fn_key] when
    #: the acquisition is direct or the chain is unknown).
    hold_chain: Tuple[str, ...]
    want_chain: Tuple[str, ...]


@dataclass
class LockGraph:
    """The built graph: sorted nodes, deterministic edge list, roots."""

    nodes: Tuple[LockNode, ...] = ()
    edges: Tuple[OrderEdge, ...] = ()
    roots: Tuple[ThreadRoot, ...] = ()
    _by_pair: Optional[Dict[Tuple[LockNode, LockNode],
                            List[OrderEdge]]] = field(default=None,
                                                      repr=False)

    def edges_between(self, src: LockNode,
                      dst: LockNode) -> List[OrderEdge]:
        if self._by_pair is None:
            by_pair: Dict[Tuple[LockNode, LockNode], List[OrderEdge]] = {}
            for edge in self.edges:
                by_pair.setdefault((edge.src, edge.dst), []).append(edge)
            self._by_pair = by_pair
        return self._by_pair.get((src, dst), [])

    def cycles(self, max_len: int = DEFAULT_CYCLE_BOUND) \
            -> List[Tuple[LockNode, ...]]:
        """The graph's elementary circuits (see
        :func:`elementary_circuits`); roots are ignored here."""
        return elementary_circuits(
            ((edge.src, edge.dst) for edge in self.edges), max_len)

    def deadlock_cycles(self, max_len: int = DEFAULT_CYCLE_BOUND) \
            -> List[Tuple[Tuple[LockNode, ...], List[OrderEdge]]]:
        """Cycles whose edges admit an assignment of pairwise-distinct
        thread roots — the cross-thread deadlock candidates.  Returns
        ``(cycle nodes, one witness edge per hop)`` pairs."""
        out = []
        for cycle in self.cycles(max_len):
            n = len(cycle)
            slots = [self.edges_between(cycle[i], cycle[(i + 1) % n])
                     for i in range(n)]
            witness = _assign_distinct_roots(slots)
            if witness is not None:
                out.append((cycle, witness))
        return out


def elementary_circuits(edges: Iterable[Tuple[LockNode, LockNode]],
                        max_len: int) -> List[Tuple[LockNode, ...]]:
    """Elementary circuits of length ``2..max_len`` over the directed
    ``edges``, each reported once, rotated so its smallest node comes
    first (the Johnson ordering: a DFS from each start node may only
    visit larger nodes, so no circuit is found twice).  Start nodes and
    successors are visited in sorted order, so the result does not
    depend on the order of ``edges``.  The one circuit enumerator of
    both lock-graph detectors (``lock-order`` and ``deadlock``), bounded
    by :data:`DEFAULT_CYCLE_BOUND`."""
    adjacency: Dict[LockNode, Set[LockNode]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    found: List[Tuple[LockNode, ...]] = []
    for start in sorted(adjacency):
        _circuits_from(adjacency, [start], {start}, max_len, found)
    return found


def pretty_lock(node: Tuple) -> str:
    """A lock id as the findings print it: ``static `NAME`.proj`` or
    ``lock@SITE.proj``."""
    kind, payload = node[0], node[1]
    proj = node[2] if len(node) > 2 else ()
    suffix = ("." + ".".join(proj)) if proj else ""
    if kind == "static":
        return f"static `{payload}`{suffix}"
    return f"lock@{payload}{suffix}"


def _assign_distinct_roots(
        slots: Sequence[Sequence[OrderEdge]]) -> Optional[List[OrderEdge]]:
    """Pick one edge per slot such that all roots differ (backtracking;
    slot count is bounded by the cycle bound)."""
    chosen: List[OrderEdge] = []
    return chosen if _backtrack_roots(slots, chosen, set()) else None


# The two searches below recurse through module-level functions rather
# than nested closures: a self-recursive closure references itself
# through its cell, and that cycle would leave every call to the cyclic
# collector.

def _circuits_from(adjacency: Dict[LockNode, Set[LockNode]],
                   path: List[LockNode], on_path: Set[LockNode],
                   max_len: int, found: List[Tuple[LockNode, ...]]) -> None:
    """Extend ``path`` (which starts at its smallest node) along edges to
    larger nodes, recording every way back to the start as a circuit."""
    start = path[0]
    for nxt in sorted(adjacency.get(path[-1], ())):
        if nxt == start:
            if len(path) >= 2:
                found.append(tuple(path))
        elif nxt > start and nxt not in on_path and len(path) < max_len:
            path.append(nxt)
            on_path.add(nxt)
            _circuits_from(adjacency, path, on_path, max_len, found)
            path.pop()
            on_path.discard(nxt)


def _backtrack_roots(slots: Sequence[Sequence[OrderEdge]],
                     chosen: List[OrderEdge],
                     used: Set[ThreadRoot]) -> bool:
    i = len(chosen)
    if i == len(slots):
        return True
    for edge in slots[i]:
        if edge.root in used:
            continue
        used.add(edge.root)
        chosen.append(edge)
        if _backtrack_roots(slots, chosen, used):
            return True
        chosen.pop()
        used.discard(edge.root)
    return False


def build_lock_graph(engine) -> LockGraph:
    """Build the cross-thread lock graph from a solved
    :class:`~repro.analysis.engine.SummaryEngine`."""
    program = engine.program
    te = engine.thread_escape()
    edges: Dict[Tuple[LockNode, LockNode, ThreadRoot], OrderEdge] = {}

    def add_edge(first, second, root: ThreadRoot, fn_key: str, span: Span,
                 hold_key, want_key) -> None:
        src, dst = first[:3], second[:3]
        if src == dst:
            return
        edges.setdefault((src, dst, root), OrderEdge(
            src=src, dst=dst, src_kind=first[3], dst_kind=second[3],
            root=root, fn_key=fn_key, span=span,
            hold_chain=tuple(engine.lock_chain(fn_key, hold_key)),
            want_chain=tuple(engine.lock_chain(fn_key, want_key))))

    def sorted_orders(summary):
        return sorted(summary.lock_orders.items(),
                      key=lambda item: (str(item[0]), item[1].lo))

    # Main-root edges: every function that never runs on a spawned
    # thread contributes its summary pairs whose ids are already global.
    for key in sorted(program.functions):
        if key in te.thread_reachable:
            continue
        for (first, second), span in sorted_orders(engine.summary(key)):
            if first[0] in ("static", "heap") \
                    and second[0] in ("static", "heap"):
                add_edge(first, second, MAIN_ROOT, key, span, first, second)

    # Spawn-root edges: the spawned closure's pairs, with arg-relative
    # ids (captures) resolved through the spawner's points-to at the
    # spawn site.
    for site in sorted(te.spawn_sites,
                       key=lambda s: (s.spawner, s.block, s.closure)):
        closure = program.functions.get(site.closure)
        spawner = program.functions.get(site.spawner)
        if closure is None or spawner is None:
            continue
        root = ThreadRoot("spawn", site.spawner, site.block, site.closure)
        pt_spawner = engine.points_to(spawner)
        for (first, second), span in sorted_orders(
                engine.summary(site.closure)):
            firsts = sorted(capture_lock_ids(site, pt_spawner, first))
            seconds = sorted(capture_lock_ids(site, pt_spawner, second))
            for a in firsts:
                for b in seconds:
                    add_edge(a, b, root, site.closure, span, first, second)

    edge_list = tuple(edges[key] for key in sorted(
        edges, key=lambda k: (k[2], str(k[0]), str(k[1]))))
    nodes = tuple(sorted({e.src for e in edge_list}
                         | {e.dst for e in edge_list}))
    roots = tuple(sorted({e.root for e in edge_list}))
    return LockGraph(nodes=nodes, edges=edge_list, roots=roots)


# ---------------------------------------------------------------------------
# Shared identity / liveness helpers (the wait/wake query)
# ---------------------------------------------------------------------------

#: The identity of a value handed in from outside the program: a
#: parameter of a function nothing in the program calls or spawns.  It
#: is none of the program's own allocations, so it only meets another
#: ``OUTSIDE`` id.
OUTSIDE: LockNode = ("outside", "", ())


def global_site_ids(engine, body: Body, local: int,
                    depth: int = 3,
                    _seen: Optional[FrozenSet[str]] = None) -> Set[Tuple]:
    """Global (static / heap) identities of a builtin-call receiver.

    Resolves the receiver through this body's points-to, then follows
    arg-relative ids outward: through every spawn site's capture
    environment when ``body`` is a spawned closure, and through every
    call site's operand when it is called (bounded at ``depth`` caller
    hops).  A parameter of a function that nothing in the program calls
    or spawns resolves to :data:`OUTSIDE`.  Two condvars / channel
    endpoints are "the same" exactly when their resolved id sets
    intersect."""
    seen = _seen or frozenset()
    pt = engine.points_to(body)
    ids = lock_identity(body, pt, local)
    out = {(i[0], i[1], tuple(i[2])) for i in ids
           if i[0] in ("static", "heap")}
    arg_ids = sorted((i[1], tuple(i[2])) for i in ids if i[0] == "arg")
    if not arg_ids or depth <= 0 or body.key in seen:
        return out
    seen = seen | {body.key}
    te = engine.thread_escape()
    program = engine.program
    spawns = te.sites_spawning(body.key)
    calls = [cs for cs in engine.call_graph.sites_calling(body.key)
             if not cs.is_spawn]
    if not spawns and not calls:
        out.add(OUTSIDE)
        return out

    # Capture route: a closure argument resolves through each spawn site.
    for site in spawns:
        spawner = program.functions.get(site.spawner)
        if spawner is None:
            continue
        pt_spawner = engine.points_to(spawner)
        for position, proj in arg_ids:
            out |= {(k, payload, tuple(p)) for k, payload, p in
                    translate_capture(site, pt_spawner, position, proj)}

    # Caller route: a declared parameter resolves through each call site.
    for cs in calls:
        caller = program.functions.get(cs.caller)
        if caller is None:
            continue
        term = caller.blocks[cs.block].terminator
        if term is None or not getattr(term, "args", None):
            continue
        for position, proj in arg_ids:
            if position >= len(term.args) \
                    or term.args[position].place is None:
                continue
            sub = global_site_ids(engine, caller,
                                  term.args[position].place.local,
                                  depth - 1, seen)
            out |= {(k, payload, tuple(p) + proj) for k, payload, p in sub}
    return out


def live_functions(engine) -> Set[str]:
    """Functions that can actually run: every non-closure function is a
    potential entry point; closures only run when something spawns or
    calls them.  A notify / send inside a never-invoked closure must not
    count as reachable."""
    with obs.span("analysis.live_functions"):
        return reach((key for key, body in engine.program.functions.items()
                      if not body.is_closure),
                     engine.call_graph.calls_or_spawns)
