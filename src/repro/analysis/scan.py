"""The per-body fact index: one walk of the MIR, every structural fact.

Every analysis and detector asks the same structural questions of a
body: which calls it makes (by builtin op, by callee kind), where it
dereferences a pointer, which constraints seed its points-to, which
locks it takes directly, where it can panic.  Answering each question
with its own walk made a whole-crate check re-walk every body about a
dozen times.  :class:`BodyScan` answers all of them from **one walk**,
done on the first :func:`scan_of` after unwind lowering; every consumer
then reads a field (a tuple, a dict, a frozenset) instead of walking.
The rule (DESIGN.md §9, "One walk per body"): a detector hook or a
summarise step may look up a per-body fact here but never walks the
body itself.

What the walk fills, all in block order (cleanup blocks skipped — the
index models the fall-through program; landing pads are read from the
CFG edges):

* flattened views — ``statements``, ``terminators``, ``calls``;
* calls by builtin op (``calls_by_op``, ``ops``, :meth:`calls_of`) and
  by callee kind (:meth:`calls_of_kind`);
* ``deref_places`` — every dereferenced place of an assignment, with
  ``Place.has_deref`` evaluated once, and the summariser's
  ``deref_sites`` built from them; ``rvalue_place_derefs`` — every
  dereferenced ``Rvalue.place`` (a borrow, address-of, length or
  discriminant taken through a pointer);
* ``pt_skeleton`` — the return-summary-independent points-to
  constraints (:class:`PtSkeleton`);
* ``facts`` — the summary engine's per-body inventory
  (:class:`BodyFacts`) and ``calls_self``;
* the unsafe-provenance skeleton (``born_skeleton``) and
  ``unsafe_sites``;
* ``direct_locks`` and ``panic_sites``;
* ``raw_ptr_locals``, ``null_seeded`` (``ptr::null`` results) and
  ``null_checked`` (locals an ``is_null`` call guards).

Lists keep the order today's consumers met their items in (statement
facts before terminator facts where a consumer used to make two
passes), because finding order and provenance depend on it.

The scan lives in ``body.__dict__`` under a non-field attribute, so

* ``canonical(body)`` (the cache fingerprint) never sees it — summary
  cache keys do not depend on it;
* dataclass equality ignores it;
* ``Body.__getstate__`` strips it, so worker-task payloads and cache
  entries never ship derived state (workers rebuild their own scans);
* nothing in it points back at the body (the index, its ``Cfg`` and
  every cached fact), so a body and everything derived from it are
  freed by reference counting alone, never left to the cyclic
  collector.  Functions that need the body take it as an argument.

The same object is also the body's store for derived facts that are
not structural (the ``Cfg``, the init solution, memoised chains):
:func:`store_of` returns it without indexing, which is all unwind
lowering needs, so lowering never triggers the walk.  Facts owned by
other modules go in the generic ``cache`` dict under module-chosen
keys; the index imports nothing from the analysis layer, so there are
no cycles — the op vocabularies it classifies by live here.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.types import TyKind
from repro.mir.cfg import Cfg
from repro.mir.nodes import (
    Body, CastKind, RvalueKind, StatementKind, TerminatorKind,
)

#: ``body.__dict__`` attribute holding the scan.  Leading underscore:
#: ``Body.__getstate__`` strips every non-field attribute so pickles
#: (worker payloads, cache entries) never carry derived state.
_ATTR = "_scan_cache"

# ---------------------------------------------------------------------------
# Op vocabularies the walk classifies by
# ---------------------------------------------------------------------------

#: Lock-acquisition operations and what they lock.
LOCK_ACQUIRE_OPS = {
    BuiltinOp.MUTEX_LOCK: "mutex",
    BuiltinOp.RWLOCK_READ: "read",
    BuiltinOp.RWLOCK_WRITE: "write",
    BuiltinOp.REFCELL_BORROW: "borrow",
    BuiltinOp.REFCELL_BORROW_MUT: "borrow_mut",
}

#: Builtin operations that can panic by themselves: the paper's §5/§6
#: panic vocabulary (failed ``unwrap``/``expect``, explicit ``panic!`` /
#: ``unreachable!`` / ``todo!``, ``assert!`` macros, and ``RefCell``
#: borrow-rule violations).
PANIC_BUILTIN_OPS = frozenset({
    BuiltinOp.UNWRAP, BuiltinOp.EXPECT, BuiltinOp.PANIC, BuiltinOp.ASSERT,
    BuiltinOp.UNIMPLEMENTED, BuiltinOp.REFCELL_BORROW,
    BuiltinOp.REFCELL_BORROW_MUT,
})

#: Casts that mint a raw pointer (the unsafe-birth sites when they occur
#: inside an unsafe region).
RAW_MINT_CASTS = {CastKind.REF_TO_RAW, CastKind.INT_TO_RAW}

#: Calls that move the value out of their (by-ref) receiver, as an
#: owner's value chain follows them (:meth:`BodyScan.flow_edges` for
#: :func:`repro.analysis.summaries.value_chain`: use-after-free,
#: double-free, may-drop).  ``unwrap_or`` is left out: its result may be
#: the default, a value the owner never held, and a drop of it is not a
#: drop of the owner.
OWNER_EXTRACT_OPS = frozenset({BuiltinOp.UNWRAP, BuiltinOp.EXPECT,
                               BuiltinOp.TAKE, BuiltinOp.OK_METHOD})

#: The same for a lock guard's chain (the guard regions of
#: :mod:`repro.analysis.lifetime`), which also follows ``unwrap_or``: a
#: guard region is a may-hold region, and on success the result is the
#: guard, so the lock may still be held through it.
GUARD_EXTRACT_OPS = OWNER_EXTRACT_OPS | {BuiltinOp.UNWRAP_OR}

NULL_TARGET = ("null",)
UNKNOWN_TARGET = ("unknown",)

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

# Calls that move the receiver's pointees into the result as a value.
_LOAD_AND_COPY_OPS = {BuiltinOp.UNWRAP, BuiltinOp.EXPECT, BuiltinOp.PTR_READ,
                      BuiltinOp.MEM_REPLACE, BuiltinOp.TAKE}

_NULL_OPS = {BuiltinOp.PTR_NULL, BuiltinOp.PTR_NULL_MUT}


def terminator_panic_source(term) -> Optional[str]:
    """The direct panic source of a terminator, or ``None``.

    ``assert`` covers the builder-emitted bounds/overflow checks and
    ``SWITCH``-free assertion lowering; builtin calls map to their op
    name (``unwrap``, ``panic``, ``RefCell::borrow_mut``, ...); calls
    into unresolved or foreign code are ``opaque-call`` (unknown code
    may panic).  User/closure calls return ``None`` — their panics are
    composed through summaries, not counted as direct sources.
    """
    if term.kind is TerminatorKind.ASSERT:
        return "assert"
    if term.kind is TerminatorKind.CALL and term.func is not None:
        func = term.func
        if func.builtin_op in PANIC_BUILTIN_OPS:
            return func.builtin_op.value
        if func.kind is FuncKind.UNKNOWN or func.builtin_op is BuiltinOp.FFI:
            return "opaque-call"
    return None


#: Most bodies have none of a set-valued fact; they share this one.
_EMPTY: FrozenSet = frozenset()


def _freeze(items) -> FrozenSet:
    return frozenset(items) if items else _EMPTY


def _fields_of(projection) -> Tuple:
    return tuple((p.field_name or str(p.field_index))
                 for p in projection if p.kind == "field")


# ---------------------------------------------------------------------------
# Index records owned by one consumer each
# ---------------------------------------------------------------------------

class PtSkeleton:
    """The return-summary-independent points-to constraints of one body.
    ``compute_points_to`` runs on every worklist iteration of the owning
    SCC; seeds and copy / load / store edges are the same each time, so
    only the ``user_calls`` (whose expansion reads the live return
    summaries) are re-read per run."""

    __slots__ = ("seeds", "copies", "loads", "stores", "user_calls")

    def __init__(self, seeds, copies, loads, stores, user_calls) -> None:
        #: (local, target) ensured before the fixpoint.
        self.seeds = seeds
        #: frozenset of (dst, src): dst ⊇ src.
        self.copies = copies
        #: (dst, src): dst ⊇ *src.
        self.loads = loads
        #: (dst, src): *dst ⊇ src.
        self.stores = stores
        #: (dst, callee key, operand locals, heap site id).
        self.user_calls = user_calls


class BodyFacts:
    """The summary engine's per-body inventory: the same-thread call
    sites, direct flags, the const-return skeleton, and the
    held-on-return preconditions.  ``user_sites`` holds every
    same-thread call with a resolved callee key; the engine keeps the
    ones whose callee is in its program."""

    __slots__ = ("user_sites", "direct_acquires", "direct_calls_unknown",
                 "const_skeleton", "return_points", "guard_return")


class BodyScan:
    """One body's fact index plus its store for derived facts."""

    __slots__ = (
        "indexed",           # has the walk filled the index yet?
        "statements",        # tuple of (block, index, stmt)
        "terminators",       # tuple of (block, terminator)
        "calls",             # tuple of (block, term) for CALL with a func
        "calls_by_op",       # builtin op -> tuple of (block, term)
        "calls_by_kind",     # FuncKind -> tuple of (block, term)
        "has_unsafe",        # any statement/terminator lowered from unsafe
        "unsafe_sites",      # how many of them
        "first_assigns",     # local -> first rvalue assigned (is_local dests)
        "ref_map",           # local -> base of its last `= &base` assignment
        "drop_locals",       # locals with an explicit DROP statement
        "deref_places",      # (block, index, stmt, place, is_write)
        "rvalue_place_derefs",  # (block, index, stmt, place)
        "deref_sites",       # (point, base, projection, is_write, span)
        "pt_skeleton",       # PtSkeleton
        "facts",             # BodyFacts
        "calls_self",        # a same-thread call of the body's own key
        "born_skeleton",     # (mints, copy_edges, call_edges)
        "direct_locks",      # frozenset of caller-translatable lock ids
        "panic_sites",       # (block, terminator, panic source)
        "raw_ptr_locals",    # frozenset of raw-pointer-typed locals
        "null_seeded",       # frozenset of `ptr::null` destinations
        "null_checked",      # frozenset of locals an `is_null` guards
        "_ref_chains",       # resolve_ref_chain memo
        "cache",             # generic slot store for other modules' facts
    )

    def __init__(self) -> None:
        self.indexed = False
        self._ref_chains: Dict[int, Tuple[int, Tuple]] = {}
        self.cache: Dict[object, object] = {}

    # -- the walk ------------------------------------------------------------

    def index(self, body: Body) -> None:
        """Fill every index field in one walk of ``body``."""
        statements: List[Tuple] = []
        terminators: List[Tuple] = []
        calls: List[Tuple] = []
        by_op: Dict[BuiltinOp, List[Tuple]] = {}
        by_kind: Dict[FuncKind, List[Tuple]] = {}
        first_assigns: Dict[int, object] = {}
        ref_map: Dict[int, int] = {}
        drop_locals: List[int] = []
        deref_places: List[Tuple] = []
        rvalue_place_derefs: List[Tuple] = []
        unsafe_sites = 0
        # Points-to constraints: statement halves then terminator halves,
        # so each list keeps the order of the two passes it replaces.
        seeds: List[Tuple] = []
        copies: List[Tuple[int, int]] = []
        loads: List[Tuple[int, int]] = []
        stores: set = set()
        call_seeds: List[Tuple] = []
        call_copies: List[Tuple[int, int]] = []
        call_loads: List[Tuple[int, int]] = []
        user_calls: List[Tuple] = []
        # Engine facts.
        acquires = calls_unknown = False
        same_thread: List[Tuple] = []
        const_values: List[int] = []
        const_unknown = False
        zero_dest_calls: List[Optional[str]] = []
        return_points = []
        # Unsafe provenance.
        mints: set = set()
        copy_edges: List[Tuple] = []
        call_edges: List[Tuple[int, str]] = []
        panic_sites: List[Tuple] = []
        null_seeded = set()

        locals_ = body.locals
        key = body.key
        ASSIGN = StatementKind.ASSIGN
        REF, ADDRESS_OF = RvalueKind.REF, RvalueKind.ADDRESS_OF
        USE, CAST = RvalueKind.USE, RvalueKind.CAST
        USER, CLOSURE = FuncKind.USER, FuncKind.CLOSURE

        for block in body.blocks:
            if block.cleanup:
                continue
            bb = block.index
            for i, stmt in enumerate(block.statements):
                statements.append((bb, i, stmt))
                if stmt.in_unsafe:
                    unsafe_sites += 1
                if stmt.kind is ASSIGN:
                    place = stmt.place
                    rv = stmt.rvalue
                    # A place without projections is a plain local:
                    # ``has_deref`` is only evaluated for the rest.
                    is_local = not place.projection
                    dest_deref = not is_local and place.has_deref
                    if dest_deref:
                        deref_places.append((bb, i, stmt, place, True))
                    first_deref = False
                    if rv is not None:
                        for j, op in enumerate(rv.operands):
                            op_place = op.place
                            if op_place is not None \
                                    and op_place.projection \
                                    and op_place.has_deref:
                                deref_places.append(
                                    (bb, i, stmt, op_place, False))
                                if j == 0:
                                    first_deref = True
                        rv_place = rv.place
                        if rv_place is not None and rv_place.projection \
                                and rv_place.has_deref:
                            rvalue_place_derefs.append(
                                (bb, i, stmt, rv_place))
                    if is_local:
                        local = place.local
                        if local not in first_assigns:
                            first_assigns[local] = rv
                        if rv is not None and rv.kind in (REF, ADDRESS_OF) \
                                and rv.place.is_local:
                            ref_map[local] = rv.place.local
                        if local == 0:
                            # Const-return skeleton: the direct constant
                            # assignments to the return place.
                            if rv is not None and rv.kind is USE \
                                    and rv.operands[0].is_const \
                                    and isinstance(
                                        rv.operands[0].constant.value, int) \
                                    and not isinstance(
                                        rv.operands[0].constant.value, bool):
                                const_values.append(
                                    rv.operands[0].constant.value)
                            else:
                                const_unknown = True
                    if rv is None:
                        continue
                    # Points-to constraints.
                    if dest_deref:
                        if rv.kind is USE \
                                and rv.operands[0].place is not None:
                            stores.add((place.local,
                                        rv.operands[0].place.local))
                    else:
                        dst = place.local
                        kind = rv.kind
                        if kind is REF or kind is ADDRESS_OF:
                            seeds.append((dst, ("local", rv.place.local)))
                            base_name = locals_[rv.place.local].name or ""
                            if base_name.startswith("static:"):
                                seeds.append((dst,
                                              ("static", base_name[7:])))
                        elif kind is USE:
                            op = rv.operands[0]
                            if op.place is not None:
                                if first_deref:
                                    loads.append((dst, op.place.local))
                                else:
                                    copies.append((dst, op.place.local))
                        elif kind is CAST:
                            op = rv.operands[0]
                            if op.place is not None:
                                copies.append((dst, op.place.local))
                        elif kind is RvalueKind.AGGREGATE:
                            # Field-insensitive: aggregate inherits
                            # pointees of components.
                            for op in rv.operands:
                                if op.place is not None:
                                    copies.append((dst, op.place.local))
                    # Unsafe-provenance births and flow edges.
                    if is_local:
                        if stmt.in_unsafe and rv.kind is CAST \
                                and rv.cast_kind in RAW_MINT_CASTS \
                                and rv.cast_ty.is_raw_ptr:
                            mints.add(place.local)
                        elif rv.kind is USE or rv.kind is CAST:
                            sources = tuple(op.place.local
                                            for op in rv.operands
                                            if op.place is not None)
                            if sources:
                                copy_edges.append((place.local, sources))
                elif stmt.kind is StatementKind.DROP \
                        and stmt.place.is_local:
                    drop_locals.append(stmt.place.local)

            term = block.terminator
            if term is None:
                continue
            terminators.append((bb, term))
            if term.in_unsafe:
                unsafe_sites += 1
            source = terminator_panic_source(term)
            if source is not None:
                panic_sites.append((bb, term, source))
            if term.kind is TerminatorKind.RETURN:
                return_points.append((bb, len(block.statements)))
                continue
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            site = (bb, term)
            calls.append(site)
            func = term.func
            op = func.builtin_op
            if op is not None:
                by_op.setdefault(op, []).append(site)
            by_kind.setdefault(func.kind, []).append(site)
            if op in LOCK_ACQUIRE_OPS:
                acquires = True
            if func.kind is FuncKind.UNKNOWN or op is BuiltinOp.FFI:
                calls_unknown = True
            # A spawned closure runs on another thread: not a callee.
            if op is not BuiltinOp.THREAD_SPAWN:
                callee = callee_of(body, term)
                if callee is not None:
                    same_thread.append((bb, term, callee))
            dest = term.destination
            if dest is None or dest.projection:
                continue
            dst = dest.local
            if dst == 0:
                # ... and the callees whose const-ness is resolved
                # against the live summaries.
                zero_dest_calls.append(
                    func.user_fn if func.kind in (USER, CLOSURE) else None)
            # Points-to constraints of the call result.
            args = term.args
            if op in _NULL_OPS:
                call_seeds.append((dst, NULL_TARGET))
                null_seeded.add(dst)
            elif op in _ALLOC_OPS:
                call_seeds.append((dst, ("heap", f"{key}:{bb}")))
            elif (op in _INTO_RECEIVER_OPS or op in _POINTER_TRANSFER_OPS) \
                    and args:
                # Receiver is a ref temp → one deref gives the container
                # local.
                if args[0].place is not None:
                    call_loads.append((dst, args[0].place.local))
            elif op in _LOAD_AND_COPY_OPS and args:
                if args[0].place is not None:
                    call_loads.append((dst, args[0].place.local))
                    call_copies.append((dst, args[0].place.local))
            elif func.kind is USER or func.kind is CLOSURE:
                user_calls.append(
                    (dst, func.user_fn,
                     tuple(a.place.local if a.place is not None else None
                           for a in args),
                     f"{key}:{bb}"))
            elif func.kind is FuncKind.UNKNOWN:
                call_seeds.append((dst, UNKNOWN_TARGET))
            # Unsafe-provenance births and callee-dependent results.
            if term.in_unsafe and op is not None and func.is_unsafe \
                    and body.local_ty(dst).is_raw_ptr:
                mints.add(dst)
            elif func.kind is USER or func.kind is CLOSURE:
                call_edges.append((dst, func.user_fn))

        self.statements = tuple(statements)
        self.terminators = tuple(terminators)
        self.calls = tuple(calls)
        self.calls_by_op = {op: tuple(sites) for op, sites in by_op.items()}
        self.calls_by_kind = {kind: tuple(sites)
                              for kind, sites in by_kind.items()}
        self.unsafe_sites = unsafe_sites
        self.has_unsafe = unsafe_sites > 0
        self.first_assigns = first_assigns
        self.ref_map = ref_map
        self.drop_locals = tuple(drop_locals)
        self.deref_places = tuple(deref_places)
        self.rvalue_place_derefs = tuple(rvalue_place_derefs)
        self.raw_ptr_locals = _freeze(
            [local.index for local in locals_ if local.ty.is_raw_ptr])
        self.null_seeded = _freeze(null_seeded)
        self.born_skeleton = (_freeze(mints), tuple(copy_edges),
                              tuple(call_edges))
        self.panic_sites = tuple(panic_sites)

        copy_set = set(copies)
        copy_set.update(call_copies)
        load_set = set(loads)
        load_set.update(call_loads)
        self.pt_skeleton = PtSkeleton(
            tuple(seeds + call_seeds), _freeze(copy_set), tuple(load_set),
            tuple(stores), tuple(user_calls))
        # The remaining facts resolve reference chains, which need the
        # complete first-assignment map: they read the lists above.
        self.indexed = True

        facts = BodyFacts()
        facts.user_sites = tuple(
            (bb, term, callee, self.arg_sources(body, term))
            for bb, term, callee in same_thread)
        facts.direct_acquires = acquires
        facts.direct_calls_unknown = calls_unknown
        facts.const_skeleton = (tuple(const_values), const_unknown,
                                tuple(zero_dest_calls))
        ret_ty = body.local_ty(0)
        facts.guard_return = ret_ty.is_guard or any(
            a.is_guard for a in ret_ty.args)
        facts.return_points = _freeze(return_points)
        self.facts = facts
        self.calls_self = any(callee == key
                              for _bb, _term, callee in same_thread)
        self.deref_sites = self._deref_sites(body)
        self.direct_locks = self._direct_locks(body)
        checked = set()
        for _bb, term in self.calls_by_op.get(BuiltinOp.PTR_IS_NULL, ()):
            for arg in term.args[:1]:
                if arg.place is not None:
                    checked.add(arg.place.local)
                    checked.add(self.ref_chain(arg.place.local)[0])
        self.null_checked = _freeze(checked)

    def _deref_sites(self, body: Body) -> Tuple:
        """Every read/write through a pointer: ``(point, base_local,
        projection, is_write, span)`` — see
        :func:`repro.analysis.summaries.deref_access_sites`."""
        sites: List[Tuple] = []
        for bb, i, stmt, place, is_write in self.deref_places:
            if not is_write:
                rv = stmt.rvalue
                if rv.kind is RvalueKind.REF \
                        or rv.kind is RvalueKind.ADDRESS_OF:
                    continue
            base, proj = self.ref_chain(place.local)
            sites.append(((bb, i), base,
                          _fields_of(proj) + _fields_of(place.projection),
                          is_write, stmt.span))
        for bb, term in self.calls_of(BuiltinOp.PTR_READ,
                                      BuiltinOp.PTR_WRITE):
            if not term.args or term.args[0].place is None:
                continue
            base, proj = self.ref_chain(term.args[0].place.local)
            sites.append(((bb, len(body.blocks[bb].statements)), base,
                          _fields_of(proj),
                          term.func.builtin_op is BuiltinOp.PTR_WRITE,
                          term.span))
        return tuple(sites)

    def _direct_locks(self, body: Body) -> FrozenSet:
        """Caller-translatable locks acquired directly (args and
        statics), as ``(kind_of_id, payload, projection, lock_kind)``."""
        locks = set()
        for bb, term in self.calls_of(*LOCK_ACQUIRE_OPS):
            if not term.args or term.args[0].place is None:
                continue
            base, proj = self.ref_chain(term.args[0].place.local)
            proj_key = tuple((p.field_name or str(p.field_index))
                             for p in proj)
            lock_kind = LOCK_ACQUIRE_OPS[term.func.builtin_op]
            name = body.locals[base].name or ""
            if name.startswith("static:"):
                locks.add(("static", name[7:], proj_key, lock_kind))
            elif 0 < base <= body.arg_count:
                locks.add(("arg", base - 1, proj_key, lock_kind))
        return _freeze(locks)

    # -- queries -------------------------------------------------------------

    @property
    def ops(self):
        """The builtin ops the body calls (a set view)."""
        return self.calls_by_op.keys()

    def calls_of(self, *ops: BuiltinOp) -> Tuple:
        """The ``(block, term)`` calls of any of ``ops``, in walk order."""
        by_op = self.calls_by_op
        if len(ops) == 1:
            return by_op.get(ops[0], ())
        found = [by_op[op] for op in ops if op in by_op]
        if len(found) <= 1:
            return found[0] if found else ()
        return tuple(sorted((site for sites in found for site in sites),
                            key=itemgetter(0)))

    def calls_of_kind(self, *kinds: FuncKind) -> Tuple:
        """The ``(block, term)`` calls of any callee kind in ``kinds``, in
        walk order."""
        by_kind = self.calls_by_kind
        found = [by_kind[kind] for kind in kinds if kind in by_kind]
        if len(found) <= 1:
            return found[0] if found else ()
        return tuple(sorted((site for sites in found for site in sites),
                            key=itemgetter(0)))

    def ref_chain(self, local: int, max_hops: int = 8) -> Tuple[int, Tuple]:
        """Memoised :func:`repro.analysis.lifetime.resolve_ref_chain`:
        the base local (and field projection) a reference temp denotes."""
        if max_hops == 8:
            hit = self._ref_chains.get(local)
            if hit is not None:
                return hit
        assigns = self.first_assigns
        current = local
        projection: Tuple = ()
        for _ in range(max_hops):
            rv = assigns.get(current)
            if rv is None:
                break
            if rv.kind in (RvalueKind.REF, RvalueKind.ADDRESS_OF):
                projection = tuple(p for p in rv.place.projection
                                   if p.kind == "field") + projection
                current = rv.place.local
                continue
            if rv.kind is RvalueKind.USE \
                    and rv.operands[0].place is not None \
                    and rv.operands[0].place.is_local:
                current = rv.operands[0].place.local
                continue
            if rv.kind is RvalueKind.CAST \
                    and rv.operands[0].place is not None \
                    and rv.operands[0].place.is_local:
                current = rv.operands[0].place.local
                continue
            break
        result = (current, projection)
        if max_hops == 8:
            self._ref_chains[local] = result
        return result

    def arg_sources(self, body: Body, term) -> Tuple[Optional[int], ...]:
        """For each operand of call ``term``: the caller argument position
        it carries (following reference/copy chains), or None.  Memoised
        per call terminator."""
        key = ("arg_sources", id(term))
        cached = self.cache.get(key)
        if cached is None:
            sources: List[Optional[int]] = []
            for arg in term.args:
                if arg.place is None:
                    sources.append(None)
                    continue
                base, _proj = self.ref_chain(arg.place.local)
                sources.append(base - 1 if 0 < base <= body.arg_count
                               else None)
            cached = self.cache[key] = tuple(sources)
        return cached

    def flow_edges(self, extract_ops, projected: bool = False,
                   keep=None) -> Dict[int, List[int]]:
        """Local → the locals its value moves into in one step, the edges
        of a value chain (:func:`repro.analysis.summaries.value_chain`)
        or a guard chain (:mod:`repro.analysis.lifetime`):

        * a move or copy ``dst = src`` into a local ``dst``; with
          ``projected``, also a read through a projection (``dst =
          src.0``, the payload a pattern destructures); ``keep(dst)``,
          when given, filters these destinations;
        * a call of one of ``extract_ops`` (``dst = src.unwrap()``) into
          a local ``dst``, its receiver resolved through ``ref_map``.

        Built per request from the flat lists, not stored: only the
        chains are memoised."""
        edges: Dict[int, List[int]] = {}
        for _bb, _i, stmt in self.statements:
            rv = stmt.rvalue
            if stmt.kind is not StatementKind.ASSIGN \
                    or not stmt.place.is_local or rv is None \
                    or rv.kind is not RvalueKind.USE:
                continue
            src = rv.operands[0].place
            dst = stmt.place.local
            if src is not None and (projected or src.is_local) \
                    and (keep is None or keep(dst)):
                edges.setdefault(src.local, []).append(dst)
        ref_map = self.ref_map
        for _bb, term in self.calls_of(*extract_ops):
            dest = term.destination
            if not term.args or dest is None or not dest.is_local:
                continue
            arg = term.args[0].place
            if arg is not None and arg.is_local:
                src = ref_map.get(arg.local, arg.local)
                edges.setdefault(src, []).append(dest.local)
        return edges

    def memo(self, key, compute):
        """Fetch-or-compute a derived fact owned by another module."""
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = compute()
        return hit


def callee_of(body: Body, term) -> Optional[str]:
    """Same-thread callee key of a call terminator, or None."""
    func = term.func
    if func.kind in (FuncKind.USER, FuncKind.CLOSURE):
        return func.user_fn
    if func.builtin_op is BuiltinOp.ONCE_CALL_ONCE:
        # call_once(closure) executes the closure synchronously.
        for arg in term.args:
            if arg.place is not None:
                ty = body.local_ty(arg.place.local)
                if ty.kind is TyKind.CLOSURE:
                    return ty.name
    return None


def store_of(body: Body) -> BodyScan:
    """The body's scan as a store for derived facts, without filling the
    index — what unwind lowering uses, so lowering never walks it."""
    scan = body.__dict__.get(_ATTR)
    if scan is None:
        scan = body.__dict__[_ATTR] = BodyScan()
    return scan


def scan_of(body: Body) -> BodyScan:
    """The body's fact index, filled by one walk on first use and cached
    on the body object (outside its dataclass fields, stripped from
    pickles)."""
    scan = body.__dict__.get(_ATTR)
    if scan is None:
        scan = body.__dict__[_ATTR] = BodyScan()
    if not scan.indexed:
        with obs.span("analysis.scan_index"):
            scan.index(body)
    return scan


def cfg_of(body: Body) -> Cfg:
    """The body's :class:`Cfg`, built once and shared by every analysis and
    detector.  Unwind lowering extends it in place with the landing pads
    it adds (``Cfg.add_landing_pads``); no other caller mutates it."""
    return store_of(body).memo("cfg", lambda: Cfg(body))
