"""Unsafe-provenance lattice: tracking *unsafety itself* through MIR.

The paper's §4–§5 study finds that most unsafe code hides behind safe
APIs ("interior unsafe", §2.3) and that bugs cluster where those APIs
fail to encapsulate: a caller-controlled input reaches an unsafe
dereference/offset with no sanitising check, or a raw pointer born in an
unsafe region escapes the encapsulation boundary (§5.3).  Evans et al.
(ICSE 2020) and Zhou et al. (arXiv 2310.10298) analyse exactly this by
propagating unsafe provenance through call chains — the shape this
module reproduces on our MIR.

Three per-body facts feed the summary component
(:class:`UnsafeProvenance`, attached to every
:class:`~repro.analysis.summaries.FunctionSummary` and solved inside the
engine's SCC fixpoint):

* **Argument taint** (:func:`arg_taint`) — which locals may carry the
  value of a caller-controlled argument.  Only raw-pointer and integer
  arguments seed taint: those are the inputs whose unchecked use in an
  unsafe operation is the paper's "improper input check" pattern.
  Container/reference arguments are deliberately *not* seeds — a ``&Vec``
  receiver reaching ``get_unchecked`` is the access path, not the
  attacker-controlled index.
* **Guards** (:func:`guard_blocks`) — ``switchInt``/``assert``
  terminators whose condition is tainted by an argument: the null /
  bounds / tag checks that sanitise it.  A guard *dominates* a sink when
  its block precedes the sink's block (a block-order heuristic).
* **Unsafe birth** (:func:`unsafe_born_locals`) — locals holding a raw
  pointer derived *inside* an unsafe region (a ``&x as *mut`` cast in an
  unsafe block, an ``alloc`` result, or a callee that returns such a
  pointer per its summary).  Safe derivations (``ptr::null``,
  ``Vec::as_ptr`` outside unsafe) are not unsafe-born; returning or
  publishing them is not an encapsulation leak.

All components are may-sets or monotone flags: composed entries only
grow as callee summaries grow, so the engine's per-SCC worklist
converges exactly (see ``tests/test_unsafe_prop.py`` for the property
test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import reach
from repro.analysis.scan import scan_of
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.source import Span
from repro.lang.types import TyKind
from repro.mir.nodes import (
    Body, RvalueKind, StatementKind, TerminatorKind,
)

#: One hop of a cross-function provenance chain: (callee key, arg pos).
ProvenanceHop = Tuple[str, int]

#: Unsafe operations with a caller-controllable *address/index* operand:
#: op → ((sink kind, operand position), ...).  Only the positions that
#: select memory are sinks — the stored-value operand of ``ptr::write``
#: or ``*p = v`` can be anything without violating memory safety.
UNSAFE_SINK_OPS: Dict[BuiltinOp, Tuple[Tuple[str, int], ...]] = {
    BuiltinOp.VEC_GET_UNCHECKED: (("index", 1),),
    BuiltinOp.VEC_GET_UNCHECKED_MUT: (("index", 1),),
    BuiltinOp.VEC_SET_LEN: (("index", 1),),
    BuiltinOp.PTR_OFFSET: (("offset", 0), ("offset", 1)),
    BuiltinOp.PTR_ADD: (("offset", 0), ("offset", 1)),
    BuiltinOp.PTR_READ: (("deref", 0),),
    BuiltinOp.PTR_WRITE: (("deref", 0),),
    BuiltinOp.PTR_COPY: (("deref", 0), ("deref", 1)),
    BuiltinOp.PTR_COPY_NONOVERLAPPING: (("deref", 0), ("deref", 1)),
    BuiltinOp.DEALLOC: (("deref", 0),),
}

#: Rvalue kinds through which taint flows local-to-local.
_TAINT_FLOW = {RvalueKind.USE, RvalueKind.CAST, RvalueKind.BINARY,
               RvalueKind.UNARY, RvalueKind.DISCRIMINANT, RvalueKind.LEN,
               RvalueKind.REF, RvalueKind.ADDRESS_OF}

#: Builtin calls whose result is a pure function of their input — taint
#: flows through so ``if p.is_null() { ... }`` reads as a check on ``p``.
_TAINT_FLOW_CALLS = {BuiltinOp.PTR_IS_NULL}


@dataclass(slots=True)
class UnsafeProvenance:
    """The unsafe-provenance component of a function summary.

    Every field is a may-set / monotone flag in the summary lattice:

    * ``arg_sinks`` — argument positions that may reach an unsafe
      deref/index/offset with **no dominating guard**; the value is
      ``(sink kind, hop, span)`` where ``hop`` is the ``(callee, callee
      arg)`` the sink was composed through (``None`` when the unsafe
      operation is in this very body).
    * ``guarded_args`` — argument positions that reach an unsafe sink but
      only past a dominating taint-reading check (the paper's "checked"
      encapsulation).
    * ``delegated_args`` — argument positions forwarded (unguarded) from
      inside an unsafe region into an ``unsafe fn`` / FFI / unresolved
      callee: the safety obligation is passed on rather than discharged.
    * ``returns_unsafe_ptr`` — the return value may carry a raw pointer
      born in an unsafe region somewhere in the call tree.
    * ``unsafe_sites`` — direct count of MIR statements/terminators in
      this body lowered from an unsafe region (body-local, stable across
      fixpoint iterations).
    """

    arg_sinks: Dict[int, Tuple[str, Optional[ProvenanceHop], Span]] = \
        field(default_factory=dict)
    guarded_args: FrozenSet[int] = frozenset()
    delegated_args: FrozenSet[int] = frozenset()
    returns_unsafe_ptr: bool = False
    unsafe_sites: int = 0

    @property
    def is_bottom(self) -> bool:
        return not (self.arg_sinks or self.guarded_args
                    or self.delegated_args or self.returns_unsafe_ptr
                    or self.unsafe_sites)


#: Shared bottom element served for the common case (a body with no
#: unsafe code whose callees all have bottom provenance) — nothing ever
#: mutates a provenance after construction, so sharing is safe and keeps
#: the solve from allocating ~400 identical empty components per program.
_BOTTOM = UnsafeProvenance()


def _int_like(ty) -> bool:
    return ty.kind is TyKind.INT


def taint_seeds(body: Body) -> Dict[int, FrozenSet[int]]:
    """Seed taint: argument locals whose type is a raw pointer or an
    integer (local → {argument position})."""
    seeds: Dict[int, FrozenSet[int]] = {}
    for position in range(body.arg_count):
        ty = body.local_ty(position + 1)
        if ty.is_raw_ptr or _int_like(ty):
            seeds[position + 1] = frozenset({position})
    return seeds


def arg_taint(body: Body) -> Dict[int, FrozenSet[int]]:
    """Which argument positions each local may carry (data-flow closure
    of :func:`taint_seeds` over copies, casts, arithmetic and the pure
    builtins in :data:`_TAINT_FLOW_CALLS`).  Cached on the body's scan —
    taint only depends on the body text."""
    return scan_of(body).memo("arg_taint", lambda: _compute_arg_taint(body))


def _compute_arg_taint(body: Body) -> Dict[int, FrozenSet[int]]:
    seeds = taint_seeds(body)
    if not seeds:
        return {}
    scan = scan_of(body)
    edges: Dict[int, List[int]] = {}
    for _bb, _i, stmt in scan.statements:
        rv = stmt.rvalue
        if stmt.kind is not StatementKind.ASSIGN \
                or not stmt.place.is_local or rv is None \
                or rv.kind not in _TAINT_FLOW:
            continue
        sources = [op.place for op in rv.operands] + [rv.place]
        for src in sources:
            if src is not None:
                edges.setdefault(src.local, []).append(stmt.place.local)
    for _bb, term in scan.calls:
        if term.func.builtin_op not in _TAINT_FLOW_CALLS \
                or term.destination is None \
                or not term.destination.is_local:
            continue
        for arg in term.args:
            if arg.place is not None:
                edges.setdefault(arg.place.local, []).append(
                    term.destination.local)
    taint: Dict[int, Set[int]] = {}
    for seed, positions in seeds.items():
        for local in reach((seed,), lambda node: edges.get(node, ())):
            taint.setdefault(local, set()).update(positions)
    return {local: frozenset(positions)
            for local, positions in taint.items()}


def guard_blocks(body: Body,
                 taint: Dict[int, FrozenSet[int]]) -> Dict[int, Set[int]]:
    """Blocks whose terminator branches on a value tainted by an
    argument (argument position → guard block indices).  These are the
    null/bounds/tag checks of the paper's "checked" encapsulations."""
    guards: Dict[int, Set[int]] = {}
    for bb, term in scan_of(body).terminators:
        operand = None
        if term.kind is TerminatorKind.SWITCH_INT:
            operand = term.discr
        elif term.kind is TerminatorKind.ASSERT:
            operand = term.cond
        if operand is None or operand.place is None:
            continue
        for position in taint.get(operand.place.local, ()):
            guards.setdefault(position, set()).add(bb)
    return guards


def _dominated(guards: Dict[int, Set[int]], position: int,
               block: int) -> bool:
    """Is there a guard on ``position`` before ``block``?  Block-index
    order approximates dominance (lowering emits the check's blocks
    before the guarded region's; same heuristic as the source audit)."""
    return any(g < block for g in guards.get(position, ()))


def direct_arg_sinks(body: Body,
                     taint: Dict[int, FrozenSet[int]]) -> List[Tuple]:
    """Unsafe operations in this body whose address/index operand is
    argument-tainted: ``(position, sink kind, block, span)``."""
    sinks: List[Tuple] = []
    if not taint:
        return sinks
    scan = scan_of(body)

    def taints_of(local: int) -> FrozenSet[int]:
        base, _proj = scan.ref_chain(local)
        return taint.get(local, frozenset()) | taint.get(base, frozenset())

    for bb, _i, stmt, place, is_write in scan.deref_places:
        if not stmt.in_unsafe:
            continue
        if not is_write and stmt.rvalue.kind in (RvalueKind.REF,
                                                 RvalueKind.ADDRESS_OF):
            continue
        base, _proj = scan.ref_chain(place.local)
        if not (body.local_ty(place.local).is_raw_ptr
                or body.local_ty(base).is_raw_ptr):
            continue          # deref of a safe reference
        for position in sorted(taints_of(place.local)):
            sinks.append((position, "deref", bb, stmt.span))

    for bb, term in scan.calls:
        if not term.in_unsafe:
            continue
        for kind, index in UNSAFE_SINK_OPS.get(term.func.builtin_op, ()):
            if index >= len(term.args) or term.args[index].place is None:
                continue
            for position in sorted(taints_of(term.args[index].place.local)):
                sinks.append((position, kind, bb, term.span))
    return sinks


def delegation_sites(body: Body) -> List[Tuple[int, int, Span]]:
    """Arguments forwarded from inside an unsafe region into an
    ``unsafe fn`` / FFI / unresolved callee:
    ``(position, block, span)``."""
    out: List[Tuple[int, int, Span]] = []
    scan = scan_of(body)
    for bb, term in scan.calls:
        if not term.in_unsafe:
            continue
        func = term.func
        unsafe_callee = func.is_unsafe \
            or func.kind is FuncKind.UNKNOWN \
            or func.builtin_op is BuiltinOp.FFI
        if not unsafe_callee or func.builtin_op in UNSAFE_SINK_OPS:
            continue          # modeled sinks are handled precisely
        for arg in term.args:
            if arg.place is None:
                continue
            base, _proj = scan.ref_chain(arg.place.local)
            if 0 < base <= body.arg_count:
                out.append((base - 1, bb, term.span))
    return out


def unsafe_born_locals(body: Body, summaries=None) -> Set[int]:
    """Locals that may hold a raw pointer *born in an unsafe region*:
    minted by a ref/int→raw cast inside unsafe, returned by ``alloc`` or
    an unsafe builtin, or returned by a callee whose summary says so.
    Propagates through copies and further casts (a later safe-context
    cast does not launder the provenance)."""
    mints, copy_edges, call_edges = scan_of(body).born_skeleton
    born: Set[int] = set(mints)
    if summaries is not None:
        for dest, callee in call_edges:
            callee_summary = summaries.get(callee)
            if callee_summary is not None and \
                    callee_summary.unsafe_provenance.returns_unsafe_ptr:
                born.add(dest)
    if not born:
        return born
    edges: Dict[int, List[int]] = {}
    for dest, sources in copy_edges:
        for src in sources:
            edges.setdefault(src, []).append(dest)
    return reach(born, lambda local: edges.get(local, ()))


def count_unsafe_sites(body: Body) -> int:
    """Direct MIR statements/terminators lowered from an unsafe region."""
    return scan_of(body).unsafe_sites


def compute_unsafe_provenance(body: Body, summaries,
                              user_sites) -> UnsafeProvenance:
    """The full per-function component: direct facts plus callee facts
    composed through the call sites in ``user_sites`` (the engine's
    ``(block, terminator, callee key, arg sources)`` inventory).

    Composition only grows as callee summaries grow — monotone, so the
    SCC worklist converges.
    """
    # Fast path for the dominant case: a body with no unsafe code whose
    # callees all have bottom provenance can only produce the bottom
    # element (sinks/delegations need ``in_unsafe`` sites, composed
    # facts need a non-bottom callee) — skip taint/guard/birth analysis.
    if not scan_of(body).has_unsafe:
        for _block, _term, callee, _sources in user_sites:
            callee_summary = summaries.get(callee)
            if callee_summary is not None \
                    and not callee_summary.unsafe_provenance.is_bottom:
                break
        else:
            return _BOTTOM

    taint = arg_taint(body)
    guards = scan_of(body).memo(
        "guard_blocks", lambda: guard_blocks(body, taint))

    arg_sinks: Dict[int, Tuple[str, Optional[ProvenanceHop], Span]] = {}
    guarded: Set[int] = set()
    delegated: Set[int] = set()

    direct_sinks = scan_of(body).memo(
        "direct_sinks", lambda: direct_arg_sinks(body, taint))
    delegations = scan_of(body).memo(
        "delegations", lambda: delegation_sites(body))
    for position, kind, block, span in direct_sinks:
        if _dominated(guards, position, block):
            guarded.add(position)
        else:
            arg_sinks.setdefault(position, (kind, None, span))

    for position, block, _span in delegations:
        if _dominated(guards, position, block):
            guarded.add(position)
        else:
            delegated.add(position)

    for block, term, callee, sources in user_sites:
        callee_summary = summaries.get(callee)
        if callee_summary is None:
            continue
        prov = callee_summary.unsafe_provenance
        for callee_pos in sorted(prov.arg_sinks):
            kind, _hop, _span = prov.arg_sinks[callee_pos]
            if callee_pos >= len(sources) or sources[callee_pos] is None:
                continue
            position = sources[callee_pos]
            if _dominated(guards, position, block):
                guarded.add(position)
            else:
                arg_sinks.setdefault(position,
                                     (kind, (callee, callee_pos), term.span))
        for callee_pos in sorted(prov.delegated_args):
            if callee_pos >= len(sources) or sources[callee_pos] is None:
                continue
            position = sources[callee_pos]
            if _dominated(guards, position, block):
                guarded.add(position)
            else:
                delegated.add(position)

    born = unsafe_born_locals(body, summaries)

    return UnsafeProvenance(
        arg_sinks=arg_sinks,
        guarded_args=frozenset(guarded),
        delegated_args=frozenset(delegated),
        returns_unsafe_ptr=0 in born,
        unsafe_sites=count_unsafe_sites(body))


# ---------------------------------------------------------------------------
# §5.3 classification
# ---------------------------------------------------------------------------

CHECKED = "checked"
UNCHECKED = "unchecked"
CALLER_DELEGATED = "caller-delegated"


def classify_interior_unsafe(prov: UnsafeProvenance) -> str:
    """The paper's §5.3 encapsulation verdict for one interior-unsafe
    function: ``unchecked`` when a caller-controlled input reaches an
    unsafe sink unguarded, ``caller-delegated`` when inputs are only
    forwarded into unsafe callees (the obligation moves up, it is not
    discharged), ``checked`` otherwise (guards present, or the unsafe
    region is self-contained)."""
    if prov.arg_sinks:
        return UNCHECKED
    if prov.delegated_args:
        return CALLER_DELEGATED
    return CHECKED
