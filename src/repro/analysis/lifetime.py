"""Storage live-ranges and lock-guard regions.

Two lifetime views feed the detectors:

* :func:`compute_storage_ranges` — for every local, whether its storage
  is live (between ``StorageLive`` and ``StorageDead``) at a program
  point, the §7.1 "state of each variable (alive or dead)".  One gen/kill
  solve over int bitsets (:mod:`repro.analysis.dataflow`) keeps the
  block-entry states; a point query replays its block;
* :func:`compute_guard_regions` — for every lock-acquisition call site,
  the region of program points during which the returned guard is still
  held, following the guard value through ``unwrap``/moves until its drop
  — the §7.2 "lifetime of the variable returned by lock(), read(), or
  write()" analysis, including Rust's implicit unlock.

Program points are ``(block, index)`` pairs; ``index == len(statements)``
denotes the terminator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import GenKill, Solution, reach, solve
from repro.analysis.points_to import PointsTo
from repro.analysis.scan import (
    GUARD_EXTRACT_OPS, LOCK_ACQUIRE_OPS, TRY_ACQUIRE_OPS, cfg_of, scan_of,
)
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.source import Span
from repro.mir.cfg import Cfg
from repro.mir.nodes import Body, StatementKind, TerminatorKind

Point = Tuple[int, int]

#: lock kind → the canonical acquisition op (for synthetic regions that
#: model a callee returning with the lock held).
KIND_TO_ACQUIRE_OP = {kind: op for op, kind in LOCK_ACQUIRE_OPS.items()}


class StorageRanges:
    """Per-local storage liveness of one body: bit ``l`` of a state is
    "``l``'s storage is live" (between ``StorageLive`` and
    ``StorageDead``)."""

    __slots__ = ("solution",)

    def __init__(self, solution: Solution) -> None:
        self.solution = solution

    def is_live_at(self, local: int, point: Point) -> bool:
        bb, index = point
        solution = self.solution
        return solution.reached(bb) \
            and bool(solution.before(bb, index) >> local & 1)


def compute_storage_ranges(body: Body) -> StorageRanges:
    """Forward may-liveness of every local's storage; arguments and the
    return place are live from entry."""
    masks = GenKill()
    for block in body.blocks:
        statements: List[int] = []
        for stmt in block.statements:
            if stmt.kind is StatementKind.STORAGE_LIVE:
                statements += (1 << stmt.local, 0)
            elif stmt.kind is StatementKind.STORAGE_DEAD:
                statements += (0, 1 << stmt.local)
            else:
                statements += (0, 0)
        masks.add_block(statements, (0, 0))
    boundary = 0
    for local in body.locals:
        if local.is_arg or local.index == 0:
            boundary |= 1 << local.index
    return StorageRanges(solve(cfg_of(body), masks, boundary))


# ---------------------------------------------------------------------------
# Lock identity
# ---------------------------------------------------------------------------

def resolve_ref_chain(body: Body, local: int,
                      max_hops: int = 8) -> Tuple[int, Tuple]:
    """Follow ``temp = &place`` / ``temp = copy other`` chains to the base
    local a reference temp ultimately refers to.

    Returns ``(base_local, projection_path)``.  Memoised on the body's
    scan: the assignment map is built once per body, and repeat queries
    for the same local (the common case — every deref site, lock
    receiver and call operand resolves through here) are dict hits.
    """
    return scan_of(body).ref_chain(local, max_hops)


def lock_identity(body: Body, pt: PointsTo, receiver_temp: int) -> FrozenSet:
    """A set of abstract ids for the lock object a lock-call receiver
    denotes.  Two acquisitions *may* target the same lock when their id
    sets intersect."""
    base, projection = resolve_ref_chain(body, receiver_temp)
    ids: Set[Tuple] = set()
    proj_key = tuple((p.field_name or str(p.field_index)) for p in projection)
    for target in pt.targets(base):
        if target[0] in ("heap", "static", "local"):
            ids.add((target[0], target[1], proj_key))
    name = body.locals[base].name or ""
    if name.startswith("static:"):
        ids.add(("static", name[7:], proj_key))
    if 0 < base <= body.arg_count:
        ids.add(("arg", base - 1, proj_key))
    # Always include the plain base-local id so aliases introduced by
    # points-to agree with direct uses of the same local.
    ids.add(("local", base, proj_key))
    return frozenset(ids)


def caller_lock_ids(body: Body, pt: PointsTo, term, lock) -> FrozenSet:
    """The one call-site translation of a callee lock id (the 4-tuple
    ``(kind_of_id, payload, proj, lock_kind)`` of a summary) into the
    caller's lock-identity space at call terminator ``term``: static and
    heap ids are program-global and pass through; an ``arg`` id becomes
    the :func:`lock_identity` of the call's operand, the operand's own
    projection kept and the callee's appended (``helper(&s.m)`` locks
    ``s.m``, not all of ``s``).  Returns every name, ``local`` ids
    included; a caller that keeps the names in a summary filters them
    (:func:`repro.analysis.summaries.named_lock_ids`)."""
    id_kind, payload, proj, _lock_kind = lock
    if id_kind in ("static", "heap"):
        return frozenset({(id_kind, payload, tuple(proj))})
    if id_kind != "arg" or payload >= len(term.args) \
            or term.args[payload].place is None:
        return frozenset()
    ids = lock_identity(body, pt, term.args[payload].place.local)
    if not proj:
        return ids
    return frozenset((kind, base, ident_proj + tuple(proj))
                     for kind, base, ident_proj in ids)


# ---------------------------------------------------------------------------
# Guard regions
# ---------------------------------------------------------------------------

@dataclass
class GuardRegion:
    """One lock acquisition and the region during which its guard lives."""

    body: Body
    acquire_block: int
    op: BuiltinOp
    kind: str                       # "mutex" | "read" | "write" | ...
    lock_ids: FrozenSet
    span: Span
    guard_chain: Set[int] = field(default_factory=set)
    points: Set[Point] = field(default_factory=set)
    release_points: Set[Point] = field(default_factory=set)
    is_try: bool = False
    #: Set when the region models a *callee* that returned with the lock
    #: held (from its summary's held-on-return set): the callee's key.
    via_call: Optional[str] = None

    def covers(self, point: Point) -> bool:
        return point in self.points


def _guardish_ty(ty) -> bool:
    """Can a value of this type hold (or contain) a lock guard?"""
    if ty.is_unknown:
        return True
    if ty.is_guard:
        return True
    from repro.lang.types import TyKind
    if ty.kind is TyKind.BUILTIN and ty.name in ("Result", "Option"):
        inner = ty.arg(0)
        return inner.is_guard or inner.is_unknown
    return False


def _guard_chain(body: Body, seed: int) -> Set[int]:
    """Locals through which the guard value may flow (moves and the
    :data:`~repro.analysis.scan.GUARD_EXTRACT_OPS` extractions).
    Whole-value moves and payload extraction by pattern destructuring
    (`Ok(g) =>` binds `g = tmp.0`) both carry the guard along — but only
    into guard-compatible destinations (copying `*g` out as an i32 does
    not).  Memoised per ``(body, seed)`` on the body's scan — the same
    guard chains are re-requested on every summarise iteration."""
    scan = scan_of(body)

    def compute() -> FrozenSet[int]:
        edges = scan.flow_edges(
            GUARD_EXTRACT_OPS, projected=True,
            keep=lambda local: _guardish_ty(body.local_ty(local)))
        return frozenset(reach((seed,), lambda local: edges.get(local, ())))

    return set(scan.memo(("guard_chain", seed), compute))


def may_have_guard_regions(body: Body, summaries=None) -> bool:
    """Whether :func:`compute_guard_regions` can return a region for
    ``body``: it acquires a lock (a try-lock too), or calls a user
    function or closure whose summary in ``summaries`` holds a lock on
    return.  Reads the body's index only."""
    scan = scan_of(body)
    if scan.facts.direct_acquires:
        return True
    if summaries is None:
        return False
    for _bb, term in scan.calls_of_kind(FuncKind.USER, FuncKind.CLOSURE):
        summary = summaries.get(term.func.user_fn)
        if summary is not None and summary.locks_held_on_return:
            return True
    return False


def compute_guard_regions(body: Body, pt: Optional[PointsTo] = None,
                          summaries=None) -> List[GuardRegion]:
    """Find every lock acquisition in ``body`` and compute its held region.

    Try-locks (:data:`~repro.analysis.scan.TRY_ACQUIRE_OPS`) get regions
    too, marked ``is_try``; a consumer that must ignore them (a try-lock
    never blocks) tests ``region.is_try``.

    ``summaries``, when given, is a mapping (``.get(fn_key)``) of function
    keys to :class:`~repro.analysis.summaries.FunctionSummary`; a call to
    a function whose summary holds locks on return (it returns the guard)
    then starts a *synthetic* region at the call site, so guards acquired
    behind a helper are tracked in the caller too.
    """
    from repro.analysis.points_to import compute_points_to
    if pt is None:
        pt = compute_points_to(body)
    scan = scan_of(body)
    cfg = cfg_of(body)
    regions: List[GuardRegion] = []

    for bb, term in scan.calls:
        op = term.func.builtin_op
        kind = LOCK_ACQUIRE_OPS.get(op) or TRY_ACQUIRE_OPS.get(op)
        if kind is not None:
            if term.destination is None or not term.destination.is_local:
                continue
            recv = term.args[0].place.local if term.args and \
                term.args[0].place is not None else None
            if recv is None:
                continue
            region = GuardRegion(
                body=body, acquire_block=bb, op=op, kind=kind,
                lock_ids=lock_identity(body, pt, recv), span=term.span,
                is_try=op in TRY_ACQUIRE_OPS)
            region.guard_chain = _guard_chain(body, term.destination.local)
            _propagate_region(body, cfg, region, term)
            regions.append(region)
            continue
        if summaries is None:
            continue
        if term.func.kind not in (FuncKind.USER, FuncKind.CLOSURE):
            continue
        summary = summaries.get(term.func.user_fn)
        if summary is None or not summary.locks_held_on_return:
            continue
        if term.destination is None or not term.destination.is_local:
            continue
        chain = _guard_chain(body, term.destination.local)
        for held in summary.locks_held_on_return:
            lock_ids = caller_lock_ids(body, pt, term, held)
            if not lock_ids:
                continue
            lock_kind = held[3]
            region = GuardRegion(
                body=body, acquire_block=bb,
                op=KIND_TO_ACQUIRE_OP.get(lock_kind, BuiltinOp.MUTEX_LOCK),
                kind=lock_kind, lock_ids=lock_ids, span=term.span,
                via_call=term.func.user_fn)
            region.guard_chain = set(chain)
            _propagate_region(body, cfg, region, term)
            regions.append(region)
    return regions


def _propagate_region(body: Body, cfg: Cfg, region: GuardRegion,
                      acquire_term) -> None:
    """Forward dataflow of the held-guard set from the acquisition.

    A try-lock's region covers a point only while a guard-typed local is
    held: after ``Ok(t) =>`` or ``.unwrap()``, not while only the
    ``Result`` is (the lock is not held when ``try_lock`` failed)."""
    chain = region.guard_chain
    guards = None
    if region.is_try:
        guards = frozenset(local for local in chain
                           if body.local_ty(local).is_guard)
    start_block = acquire_term.target
    if start_block is None:
        return
    entry: Dict[int, Set[int]] = {start_block:
                                  {acquire_term.destination.local}}
    worklist = deque([start_block])
    ref_map = scan_of(body).ref_map

    visited_with: Dict[int, Set[int]] = {}
    while worklist:
        bb = worklist.popleft()
        held = set(entry.get(bb, set()))
        seen = visited_with.get(bb)
        if seen is not None and held <= seen:
            continue
        visited_with[bb] = set(held) | (seen or set())
        block = body.blocks[bb]
        for i, stmt in enumerate(block.statements):
            if not held:
                break
            if guards is None or not guards.isdisjoint(held):
                region.points.add((bb, i))
            if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None:
                ops = stmt.rvalue.operands
                moved = [o.place.local for o in ops
                         if o.is_move and o.place is not None
                         and o.place.local in held]
                copied_from_held = [o.place.local for o in ops
                                    if not o.is_move and o.place is not None
                                    and o.place.projection
                                    and o.place.local in held]
                for m in moved:
                    held.discard(m)
                if stmt.place.is_local and stmt.place.local in chain \
                        and (moved or copied_from_held):
                    held.add(stmt.place.local)
            elif stmt.kind is StatementKind.DROP:
                if stmt.place.is_local and stmt.place.local in held:
                    held.discard(stmt.place.local)
                    if not held:
                        region.release_points.add((bb, i))
            elif stmt.kind is StatementKind.STORAGE_DEAD:
                if stmt.local in held:
                    held.discard(stmt.local)
                    if not held:
                        region.release_points.add((bb, i))
        if not held:
            continue
        term = block.terminator
        term_point = (bb, len(block.statements))
        if guards is None or not guards.isdisjoint(held):
            region.points.add(term_point)
        if term is not None and term.kind is TerminatorKind.CALL:
            func_op = term.func.builtin_op if term.func else None
            for arg in term.args:
                if arg.place is None or not arg.place.is_local:
                    continue
                src = arg.place.local
                deref_src = ref_map.get(src, src)
                if arg.is_move and src in held:
                    held.discard(src)
                    if term.destination is not None and \
                            term.destination.is_local and \
                            term.destination.local in chain:
                        held.add(term.destination.local)
                    elif func_op is BuiltinOp.MEM_DROP and not held:
                        region.release_points.add(term_point)
                elif func_op in GUARD_EXTRACT_OPS and deref_src in held:
                    held.discard(deref_src)
                    if term.destination is not None and \
                            term.destination.is_local and \
                            term.destination.local in chain:
                        held.add(term.destination.local)
            # Explicit unlock (Suggestion 7): guard.unlock() releases.
            if func_op is BuiltinOp.GUARD_UNLOCK:
                for arg in term.args[:1]:
                    if arg.place is not None and arg.place.is_local:
                        src = ref_map.get(arg.place.local, arg.place.local)
                        if src in held:
                            held.discard(src)
                            if not held:
                                region.release_points.add(term_point)
            # Condvar::wait releases the lock while blocked; treat the wait
            # call itself as ending the region (re-acquisition starts anew).
            if func_op is BuiltinOp.CONDVAR_WAIT:
                for arg in term.args[1:]:
                    if arg.place is not None and arg.place.is_local and \
                            arg.place.local in held:
                        held.discard(arg.place.local)
        if term is not None and held:
            for succ in term.successors():
                prev = entry.get(succ)
                if prev is None:
                    entry[succ] = set(held)
                    worklist.append(succ)
                elif not held <= prev:
                    prev |= held
                    worklist.append(succ)
