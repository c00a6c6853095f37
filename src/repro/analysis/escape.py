"""Thread-escape analysis: which places can cross a thread boundary.

"Fearless Concurrency?" (Yu et al.) finds that real Rust races overwhelm-
ingly involve data handed to another thread through one of three doors:
a ``thread::spawn`` closure capture, an ``Arc``/``Rc`` clone chain ending
in such a capture, or a value sent over a channel.  This module walks
every body once and records those doors:

* **spawn sites** — each ``thread::spawn(closure)`` call, with the map
  from closure argument position (captures are lowered as trailing
  arguments after the closure's declared parameters) back to the local
  in the spawning frame that was captured;
* **escape roots** — locals whose value leaves the creating thread
  (captured by a spawned closure, or passed to ``send``);
* **shared targets** — the globally identifiable points-to targets
  (heap allocation sites and statics) reachable from an escape root.
  Heap site ids are program-unique (``"fnkey:bb"``), so a closure-side
  access and a spawner-side access to the same ``Arc`` payload meet on
  the same id once the capture map is applied;
* **thread-reachable functions** — everything that may run on a spawned
  thread (the call graph's ``reachable_from_spawn`` closure).

``Arc::clone`` chains need no special casing here: the points-to engine
treats the clone's result as aliasing the receiver's pointees, so any
capture of any handle resolves to the original allocation site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import reach
from repro.analysis.points_to import PointsTo
from repro.analysis.scan import scan_of
from repro.hir.builtins import BuiltinOp
from repro.lang.source import Span
from repro.mir.nodes import AggregateKind, Body, Program, RvalueKind

#: Globally identifiable shared-data id: ``("heap", site)`` / ``("static",
#: name)``.
SharedTarget = Tuple


@dataclass
class SpawnSite:
    """One ``thread::spawn`` call and its capture environment."""

    spawner: str                 # key of the spawning function
    block: int
    closure: str                 # key of the spawned closure body
    span: Span
    #: closure argument position (0-based) → local in the spawner frame
    #: whose value was captured into that position.
    captures: Dict[int, int] = field(default_factory=dict)


@dataclass
class ThreadEscape:
    """Program-wide thread-escape facts."""

    program: Program
    spawn_sites: List[SpawnSite] = field(default_factory=list)
    #: Functions that may run on a spawned thread.
    thread_reachable: Set[str] = field(default_factory=set)
    #: fn key → locals whose value escapes to another thread.
    escape_roots: Dict[str, Set[int]] = field(default_factory=dict)
    #: (fn key, local) → how it escaped ("spawn-capture" | "channel-send").
    escape_reasons: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: Heap sites / statics reachable from any escape root.
    shared_targets: Set[SharedTarget] = field(default_factory=set)
    #: closure key → its spawn sites in ``spawn_sites`` order; built on
    #: the first :meth:`sites_spawning` call.
    _by_closure: Optional[Dict[str, List[SpawnSite]]] = field(
        default=None, repr=False, compare=False)

    def sites_spawning(self, closure_key: str) -> List[SpawnSite]:
        if self._by_closure is None:
            by_closure: Dict[str, List[SpawnSite]] = {}
            for site in self.spawn_sites:
                by_closure.setdefault(site.closure, []).append(site)
            self._by_closure = by_closure
        return self._by_closure.get(closure_key, [])

    def escapes(self, fn_key: str, local: int) -> bool:
        return local in self.escape_roots.get(fn_key, set())

    def is_shared(self, target: SharedTarget) -> bool:
        return target in self.shared_targets


def _closure_params(body: Body) -> int:
    """Declared parameters of a closure body (captures are the trailing
    ``len(body.captures)`` arguments)."""
    return body.arg_count - len(body.captures)


def _follow_to_aggregate(body: Body, local: int, max_hops: int = 8):
    """Follow ``USE``/``CAST`` move chains from ``local`` back to the
    closure-aggregate rvalue that built it, if any."""
    assigns = scan_of(body).first_assigns
    current = local
    for _ in range(max_hops):
        rv = assigns.get(current)
        if rv is None:
            return None
        if rv.kind is RvalueKind.AGGREGATE \
                and rv.aggregate_kind is AggregateKind.CLOSURE:
            return rv
        if rv.kind in (RvalueKind.USE, RvalueKind.CAST) \
                and rv.operands and rv.operands[0].place is not None \
                and rv.operands[0].place.is_local \
                and not rv.operands[0].place.projection:
            current = rv.operands[0].place.local
            continue
        return None
    return None


def _global_targets(pt: PointsTo, local: int) -> Set[SharedTarget]:
    """Heap/static ids reachable from ``local``, following ``("local",
    l)`` alias hops — a handle returned by a helper (``fn dup(a) ->
    Arc<T>``) aliases the *local* that held the original, one hop away
    from the allocation id itself."""
    return {(t[0], t[1])
            for alias in reach((local,), pt.local_targets)
            for t in pt.targets(alias) if t[0] in ("heap", "static")}


def compute_thread_escape(program: Program,
                          points_to: Callable[[Body], PointsTo],
                          graph: CallGraph) -> ThreadEscape:
    """Compute thread-escape facts for a whole program.

    ``points_to`` is a per-body points-to provider (normally the summary
    engine's fixpoint cache, so Arc-clone aliasing and return summaries
    are already applied).
    """
    te = ThreadEscape(program)
    te.thread_reachable = graph.reachable_from_spawn()

    for key, body in program.functions.items():
        pt: Optional[PointsTo] = None

        def mark(local: int, reason: str) -> None:
            te.escape_roots.setdefault(key, set()).add(local)
            te.escape_reasons.setdefault((key, local), reason)
            te.shared_targets |= _global_targets(pt, local)

        for bb, term in scan_of(body).calls_of(BuiltinOp.THREAD_SPAWN,
                                               BuiltinOp.CHANNEL_SEND):
            op = term.func.builtin_op
            if op is BuiltinOp.THREAD_SPAWN:
                pt = pt or points_to(body)
                for arg in term.args:
                    if arg.place is None:
                        continue
                    rv = _follow_to_aggregate(body, arg.place.local)
                    if rv is None:
                        continue
                    closure_key = rv.aggregate_name
                    closure = program.functions.get(closure_key)
                    if closure is None:
                        continue
                    site = SpawnSite(spawner=key, block=bb,
                                     closure=closure_key, span=term.span)
                    base = _closure_params(closure)
                    for i, operand in enumerate(rv.operands):
                        if operand.place is not None \
                                and operand.place.is_local:
                            captured = operand.place.local
                            site.captures[base + i] = captured
                            mark(captured, "spawn-capture")
                    te.spawn_sites.append(site)
            elif op is BuiltinOp.CHANNEL_SEND and len(term.args) >= 2:
                value = term.args[1]
                if value.place is not None and value.place.is_local:
                    pt = pt or points_to(body)
                    mark(value.place.local, "channel-send")
    return te


def translate_capture(site: SpawnSite, pt_spawner: PointsTo,
                      position: int, proj: Tuple) -> Set[Tuple]:
    """Map a closure-frame location id ``("arg", position, proj)`` to the
    spawner frame's global ids at this spawn site."""
    captured = site.captures.get(position)
    if captured is None:
        return set()
    return {(kind, payload, proj)
            for kind, payload in _global_targets(pt_spawner, captured)}


def capture_lock_ids(site: SpawnSite, pt_spawner: PointsTo,
                     lock: Tuple) -> Set[Tuple]:
    """Resolve a closure-frame summary lock id (the 4-tuple
    ``(kind_of_id, payload, projection, lock_kind)``) to the spawner
    frame's *global* lock identities at this spawn site.

    Statics and heap allocation sites are already program-global and pass
    through; an ``"arg"`` id names a capture, which resolves through the
    spawner's points-to to the Arc-cloned mutex / captured lock / channel
    endpoint it carries.  This is the node-identity rule of the
    cross-thread lock graph: two threads meet on a lock exactly when
    their resolved id sets intersect."""
    id_kind, payload, proj, lock_kind = lock
    if id_kind in ("static", "heap"):
        return {lock}
    if id_kind != "arg":
        return set()
    return {(kind, target, tuple(p), lock_kind)
            for kind, target, p in translate_capture(
                site, pt_spawner, payload, tuple(proj))}
