"""Flow-insensitive, field-insensitive Andersen-style points-to analysis.

The paper's UAF detector "conduct[s] a 'points-to' analysis [that]
maintain[s] which variable [each pointer/reference] points to/references"
(§7.1).  This module is that analysis, over one MIR body.

Points-to targets:

* ``("local", l)`` — the storage of local ``l`` (refs created by ``&x``,
  ``&mut x``, ``&raw``-style casts, ``as_ptr()`` on a container local);
* ``("heap", site)`` — an allocation made at call-site id ``site``
  (``Box::new``, ``alloc``, ``Vec::new`` …);
* ``("static", name)`` — a global;
* ``("argval", i)`` — the value of the function's own argument ``i``
  (seeded on every argument local so return-value aliasing like
  ``f(x) = g(x)`` composes across call chains);
* ``("unknown",)`` — escape hatch for FFI / unresolved sources.

The solver is a straightforward transitive-closure iteration; bodies are
small, precision needs are modest (the detectors re-filter by type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.scan import scan_of
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.nodes import (
    Body, Operand, Place, RvalueKind, StatementKind, TerminatorKind,
)

Target = Tuple
UNKNOWN_TARGET: Target = ("unknown",)
NULL_TARGET: Target = ("null",)

# Builtin calls whose result aliases the receiver's pointees.
# Arc::clone / Rc::clone produce a second handle to the *same* allocation,
# so the clone must inherit the receiver's pointees — that aliasing is what
# lets the thread-escape analysis connect a closure capture back to the
# allocation the spawner still holds.
_POINTER_TRANSFER_OPS = {
    BuiltinOp.PTR_OFFSET, BuiltinOp.PTR_ADD, BuiltinOp.CLONE,
    BuiltinOp.ARC_CLONE, BuiltinOp.RC_CLONE,
}

# Builtin calls that return a pointer *into* the receiver object.
_INTO_RECEIVER_OPS = {
    BuiltinOp.VEC_AS_PTR, BuiltinOp.VEC_AS_MUT_PTR,
    BuiltinOp.VEC_GET_UNCHECKED, BuiltinOp.VEC_GET_UNCHECKED_MUT,
    BuiltinOp.VEC_GET, BuiltinOp.VEC_GET_MUT, BuiltinOp.FIRST,
    BuiltinOp.LAST, BuiltinOp.UNSAFECELL_GET, BuiltinOp.AS_REF,
    BuiltinOp.AS_MUT,
}

# Builtin calls that allocate.  ``channel()`` counts as an allocation:
# the ``(Sender, Receiver)`` pair shares one underlying queue, so giving
# the tuple a heap site makes both endpoints resolve to the same global
# identity — the channel-endpoint node the cross-thread lock graph needs.
_ALLOC_OPS = {
    BuiltinOp.BOX_NEW, BuiltinOp.RC_NEW, BuiltinOp.ARC_NEW,
    BuiltinOp.VEC_NEW, BuiltinOp.VEC_WITH_CAPACITY, BuiltinOp.VEC_MACRO,
    BuiltinOp.ALLOC, BuiltinOp.STRING_NEW, BuiltinOp.HASHMAP_NEW,
    BuiltinOp.GETMNTENT, BuiltinOp.VEC_FROM_RAW_PARTS,
    BuiltinOp.CHANNEL_NEW, BuiltinOp.SYNC_CHANNEL_NEW,
    # A condvar's identity is its creation site (it guards no data, so
    # this never feeds lock/guard-region logic): wait and notify sites
    # on the same condvar meet on one id even without an Arc wrapper.
    BuiltinOp.CONDVAR_NEW,
}


@dataclass(slots=True)
class PointsTo:
    """Result: ``points_to[local]`` is a set of targets."""

    body: Body
    points_to: Dict[int, Set[Target]] = field(default_factory=dict)

    def targets(self, local: int) -> Set[Target]:
        return self.points_to.get(local, set())

    def local_targets(self, local: int) -> Set[int]:
        """Just the ``("local", l)`` targets, as local indices."""
        return {t[1] for t in self.targets(local) if t[0] == "local"}


class _PtSkeleton:
    """The return-summary-independent constraint system of one body,
    built once and cached on the body's scan.  ``compute_points_to``
    runs on every worklist iteration of the owning SCC; everything that
    does not depend on callee return summaries — seed targets, copy /
    load / store edges — is identical across those runs, so re-deriving
    it from the statement list each time was pure overhead."""

    __slots__ = ("seeds", "copies", "loads", "stores", "user_calls")

    def __init__(self, body: Body) -> None:
        seeds: list = []       # (local, target) ensured before the fixpoint
        copies: Set[Tuple[int, int]] = set()     # dst ⊇ src
        loads: Set[Tuple[int, int]] = set()      # dst ⊇ *src
        stores: Set[Tuple[int, int]] = set()     # *dst ⊇ src
        #: (dst, callee key, operand locals, heap site id) — the only
        #: constraints whose expansion needs the live return summaries.
        user_calls: list = []

        def operand_local(op: Operand) -> Optional[int]:
            if op.place is not None:
                return op.place.local
            return None

        scan = scan_of(body)
        for bb, idx, stmt in scan.statements:
            if stmt.kind is not StatementKind.ASSIGN or stmt.rvalue is None:
                continue
            dest = stmt.place
            rv = stmt.rvalue
            if dest.has_deref:
                # *p = src : store constraint
                if rv.kind is RvalueKind.USE:
                    src = operand_local(rv.operands[0])
                    if src is not None:
                        stores.add((dest.local, src))
                continue
            dst = dest.local
            if rv.kind in (RvalueKind.REF, RvalueKind.ADDRESS_OF):
                seeds.append((dst, ("local", rv.place.local)))
                base_name = body.locals[rv.place.local].name or ""
                if base_name.startswith("static:"):
                    seeds.append((dst, ("static", base_name[7:])))
            elif rv.kind is RvalueKind.USE:
                op = rv.operands[0]
                src = operand_local(op)
                if src is not None:
                    if op.place.has_deref:
                        loads.add((dst, src))
                    else:
                        copies.add((dst, src))
            elif rv.kind is RvalueKind.CAST:
                src = operand_local(rv.operands[0])
                if src is not None:
                    copies.add((dst, src))
            elif rv.kind is RvalueKind.AGGREGATE:
                # Field-insensitive: aggregate inherits pointees of
                # components.
                for op in rv.operands:
                    src = operand_local(op)
                    if src is not None:
                        copies.add((dst, src))

        for bb, term in scan.terminators:
            if term.kind is not TerminatorKind.CALL:
                continue
            if term.destination is None or not term.destination.is_local:
                continue
            dst = term.destination.local
            func = term.func
            if func is None:
                continue
            op = func.builtin_op
            if op in (BuiltinOp.PTR_NULL, BuiltinOp.PTR_NULL_MUT):
                seeds.append((dst, NULL_TARGET))
            elif op in _ALLOC_OPS:
                seeds.append((dst, ("heap", f"{body.key}:{bb}")))
            elif op in _INTO_RECEIVER_OPS and term.args:
                # Receiver is a ref temp → one deref gives the container
                # local.
                recv = operand_local(term.args[0])
                if recv is not None:
                    loads.add((dst, recv))
            elif op in _POINTER_TRANSFER_OPS and term.args:
                recv = operand_local(term.args[0])
                if recv is not None:
                    loads.add((dst, recv))
            elif op in (BuiltinOp.UNWRAP, BuiltinOp.EXPECT,
                        BuiltinOp.PTR_READ, BuiltinOp.MEM_REPLACE,
                        BuiltinOp.TAKE) and term.args:
                recv = operand_local(term.args[0])
                if recv is not None:
                    loads.add((dst, recv))
                    copies.add((dst, recv))
            elif func.kind in (FuncKind.USER, FuncKind.CLOSURE):
                user_calls.append(
                    (dst, func.user_fn,
                     tuple(operand_local(a) for a in term.args),
                     f"{body.key}:{bb}"))
            elif func.kind is FuncKind.UNKNOWN:
                seeds.append((dst, UNKNOWN_TARGET))

        self.seeds = tuple(seeds)
        self.copies = frozenset(copies)
        self.loads = tuple(loads)
        self.stores = tuple(stores)
        self.user_calls = tuple(user_calls)


def compute_points_to(body: Body,
                      return_summaries: Optional[Dict[str, Set[int]]] = None
                      ) -> PointsTo:
    """Compute points-to facts for one body.

    ``return_summaries`` optionally maps user-function keys to the set of
    argument positions their return value may point into — the light
    inter-procedural summary that lets ``p = b.as_ptr()`` alias ``b``
    across a call boundary (needed for the paper's Figure 7 bug).
    """
    skeleton = scan_of(body).memo("pt_skeleton",
                                  lambda: _PtSkeleton(body))
    result = PointsTo(body)
    pt = result.points_to

    def ensure(local: int) -> Set[Target]:
        return pt.setdefault(local, set())

    # Seed every argument local with its own-value marker so copies of an
    # argument (and values returned through callees that pass the argument
    # along) stay identifiable as "aliases caller argument i".
    for position in range(body.arg_count):
        ensure(position + 1).add(("argval", position))
    for local, target in skeleton.seeds:
        ensure(local).add(target)

    copies: Set[Tuple[int, int]] = set(skeleton.copies)
    loads = skeleton.loads
    stores = skeleton.stores
    if return_summaries:
        for dst, callee, arg_locals, heap_site in skeleton.user_calls:
            items = return_summaries.get(callee) or set()
            for item in items:
                if item == "null":
                    ensure(dst).add(NULL_TARGET)
                elif item == "heap":
                    # The callee returns a fresh allocation; model it as
                    # an allocation made at this call site.
                    ensure(dst).add(("heap", heap_site))
                elif item == "unknown":
                    ensure(dst).add(UNKNOWN_TARGET)
                elif isinstance(item, int) and item < len(arg_locals):
                    src = arg_locals[item]
                    if src is not None:
                        copies.add((dst, src))

    # Fixpoint.
    changed = True
    while changed:
        changed = False
        for dst, src in copies:
            before = len(ensure(dst))
            ensure(dst).update(ensure(src))
            if len(pt[dst]) != before:
                changed = True
        for dst, src in loads:
            before = len(ensure(dst))
            for target in list(ensure(src)):
                if target[0] == "local":
                    ensure(dst).update(ensure(target[1]))
                elif target[0] in ("heap", "static", "unknown", "null",
                                   "argval"):
                    # ``argval`` passes through so a pointer-transfer call
                    # on a reference argument (``Arc::clone(a)`` with
                    # ``a: &Arc<T>``) still summarises as "aliases caller
                    # argument i".
                    ensure(dst).add(target)
            if len(pt[dst]) != before:
                changed = True
        for dst, src in stores:
            for target in list(ensure(dst)):
                if target[0] == "local":
                    before = len(ensure(target[1]))
                    ensure(target[1]).update(ensure(src))
                    if len(pt[target[1]]) != before:
                        changed = True
    return result


def return_items(body: Body, pt: PointsTo) -> Set:
    """Extract the return-summary items for one body from its points-to
    result: argument positions the return value may point into or alias,
    plus ``"null"``."""
    items: Set = set()
    for target in pt.targets(0):
        if target[0] == "local" and 0 < target[1] <= body.arg_count:
            items.add(target[1] - 1)
        elif target[0] == "argval":
            items.add(target[1])
        elif target == NULL_TARGET:
            items.add("null")
    return items


def compute_return_summaries(program) -> Dict[str, Set[int]]:
    """Which argument positions can each function's return value point
    into?  Iterated to a true fixpoint so arbitrarily deep chains like
    ``f(x) = g(x) = h(x)`` propagate fully, whatever the definition
    order.  (A bounded 3-round loop used to lose precision on chains
    deeper than its bound.)

    This is the *legacy* whole-program recomputation: every round re-runs
    ``compute_points_to`` for every function.  The
    :class:`repro.analysis.engine.SummaryEngine` computes the same facts
    (and more) bottom-up over call-graph SCCs; this function remains as
    the reference implementation the benchmarks compare against.
    """
    summaries: Dict[str, Set[int]] = {}
    changed = True
    while changed:
        changed = False
        for key, body in program.functions.items():
            pt = compute_points_to(body, summaries)
            # The return place is local 0; look at what it may point to,
            # including values that flowed into it.
            items = return_items(body, pt)
            if items and not items <= summaries.get(key, set()):
                summaries[key] = set(summaries.get(key, set())) | items
                changed = True
    return summaries
