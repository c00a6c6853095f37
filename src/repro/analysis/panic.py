"""Panic-effects lattice and unwind-aware CFG lowering.

The interpreter has always modelled panics (``RuntimePanic``, poisoned
locks, the ``panic`` outcome); the static side assumed straight-line
success.  Xu et al.'s CVE taxonomy ("Memory-Safety Challenge Considered
Solved?", PAPERS.md) shows that gap is where the largest undetected bug
classes live: unwinding between a ``ptr::read`` and the overwrite that
was supposed to restore the value leaves memory logically uninitialised
or doubly owned.  This module closes the gap in two pieces:

* :func:`ensure_unwind_edges` — CFG lowering.  Every terminator that can
  panic (bounds/overflow ``assert``, ``unwrap``/``expect``, explicit
  ``panic!``, ``RefCell`` borrows, opaque and user calls) gains an
  ``unwind`` successor pointing at a synthesised *landing pad*: a
  ``cleanup`` block that drops exactly the locals whose scope-exit drop
  obligations are still pending (maybe-initialised) at that point, then
  ends in ``RESUME``.  Dataflow, liveness and the CFG utilities see the
  panic paths through the ordinary ``Terminator.successors()`` contract;
  nothing downstream special-cases unwinding.
* :class:`PanicEffects` — the summary component.  A may-panic bit with
  its source vocabulary, the values moved-out-but-not-reinitialised at
  the body's panic points, the drop obligations live on unwind, and a
  hop for cross-function provenance (``panic_chain``).  Solved in the
  engine's SCC fixpoint next to the other components: every field is a
  may-set or a monotone flag, so convergence is exact.

The *drop-obligation* computation here is the single source of truth
shared with the interpreter (``mir/interp.py`` runs the same
:func:`unwind_drop_order` on unwind), fixing the drift where landing
pads and the dynamic side disagreed about what dies during a panic.
Both pieces read one init solution per body (int bitsets, see
:mod:`repro.analysis.init`): lowering solves it once on the pre-pad
CFG and patches its pads in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.analysis.init import InitStates, init_of
from repro.analysis.scan import (
    _EMPTY, cfg_of, freeze, scan_of, store_of, terminator_panic_source,
)
from repro.hir.builtins import FuncKind
from repro.mir.nodes import (
    Body, Statement, StatementKind, Terminator, TerminatorKind,
)

#: ``body.__dict__`` flag marking unwind lowering as done.  Underscore
#: attribute: ``Body.__getstate__`` strips it, but pickled bodies carry
#: their pads in ``blocks``, and :func:`ensure_unwind_edges` also treats
#: an existing cleanup block as proof of prior lowering.
_LOWERED_ATTR = "_unwind_lowered"


def may_unwind(term: Terminator) -> bool:
    """Can this terminator start unwinding?  Direct panic sources plus
    user/closure calls (whose callees may panic — rustc's shape, where
    every non-``nounwind`` call carries an unwind edge).  Known builtins
    outside :data:`repro.analysis.scan.PANIC_BUILTIN_OPS` are treated as
    nounwind."""
    if terminator_panic_source(term) is not None:
        return True
    return term.kind is TerminatorKind.CALL and term.func is not None \
        and term.func.kind in (FuncKind.USER, FuncKind.CLOSURE)


def unwind_drop_order(body: Body) -> Tuple[int, ...]:
    """The canonical drop order on unwind: every local with a pending
    scope-exit drop obligation (an explicit ``DROP`` statement — the
    builder's drop elaboration), innermost scope first (reverse local
    index, matching declaration nesting).

    This is the ONE obligation computation shared by the static landing
    pads and the interpreter's unwind path — the two sides agree by
    construction.  A pad drops the subset that is maybe-initialised at
    its panic point; the interpreter filters dynamically (skipping
    ``UNINIT``/``MOVED`` slots) to the same effect.
    """
    store = store_of(body)
    order = store.cache.get("unwind_drop_order")
    if order is None:
        if store.indexed:
            drops = store.drop_locals
        else:
            # Unwind lowering runs before the body is indexed: read the
            # DROP statements off the blocks rather than index it early.
            drops = [stmt.place.local for block in body.blocks
                     if not block.cleanup for stmt in block.statements
                     if stmt.kind is StatementKind.DROP
                     and stmt.place.is_local]
        order = store.cache["unwind_drop_order"] = tuple(
            sorted(set(drops), reverse=True))
    return order


def _state_before_unwind(init: InitStates, block_index: int,
                         term: Terminator) -> int:
    """The init state observable by the unwind path of ``term``: the
    state before the terminator, minus locals the terminator itself
    moves into a callee (the callee owns them mid-call; on unwind it
    drops them, not our landing pad)."""
    state = init.before_terminator(block_index)
    if term.kind is TerminatorKind.CALL:
        for op in term.args:
            if op.is_move and op.place is not None and op.place.is_local:
                state &= ~(1 << op.place.local)
    return state


def ensure_unwind_edges(body: Body) -> None:
    """Idempotently lower unwind edges and landing pads into ``body``.

    For every may-unwind terminator whose pending drop obligations are
    non-empty, synthesise (or reuse — pads are deduplicated by
    obligation tuple) a ``cleanup`` block of ``DROP`` statements in
    :func:`unwind_drop_order` ending in ``RESUME``, and point the
    terminator's ``unwind`` edge at it.  Terminators with nothing to
    drop keep ``unwind=None`` (an empty pad adds no information —
    rustc's SimplifyCfg folds those away too).

    Obligations are read from the body's one init solution
    (:func:`~repro.analysis.init.init_of`), solved on the *pre-lowering*
    CFG; the pads are then patched into that solution rather than
    solved again.  Lowering reads the body's store
    (:func:`~repro.analysis.scan.store_of`) and never fills its fact
    index: the index's one walk runs on the lowered body.  Only derived
    facts in the store are dropped, and the drop order, the patched init
    solution and the direct panic facts computed here are re-seeded, so
    neither the summary pass nor a detector solves this body's init
    again.
    """
    if body.__dict__.get(_LOWERED_ATTR) \
            or any(block.cleanup for block in body.blocks):
        body.__dict__[_LOWERED_ATTR] = True
        return
    body.__dict__[_LOWERED_ATTR] = True
    sites = [(block.index, block.terminator) for block in body.blocks
             if block.terminator is not None
             and may_unwind(block.terminator)]
    if not sites:
        return
    order = unwind_drop_order(body)
    if not order:
        return
    init = init_of(body)
    # A pad's drops share the places of the body's own DROP statements.
    places = {stmt.place.local: stmt.place for block in body.blocks
              for stmt in block.statements
              if stmt.kind is StatementKind.DROP and stmt.place.is_local}
    first_pad = len(body.blocks)
    pads: Dict[Tuple[int, ...], int] = {}
    sources: set = set()
    moved: set = set()
    drops: set = set()
    for block_index, term in sites:
        state = _state_before_unwind(init, block_index, term)
        obligation = tuple(l for l in order if state >> l & 1)
        source = terminator_panic_source(term)
        if source is not None:
            # Direct-site panic facts fall out of the same per-site init
            # states; stashing them below spares `_direct_panic_facts` a
            # second look at this body.
            sources.add(source)
            moved.update(init.moved_out_locals(state))
            drops.update(obligation)
        if not obligation:
            continue
        pad_index = pads.get(obligation)
        if pad_index is None:
            pad = body.new_block()
            pad.cleanup = True
            for local in obligation:
                pad.statements.append(Statement(
                    StatementKind.DROP, span=term.span,
                    place=places[local]))
            pad.terminator = Terminator(TerminatorKind.RESUME, span=term.span)
            pads[obligation] = pad_index = pad.index
        term.unwind = pad_index
    # An index filled before lowering stays valid (it skips cleanup
    # blocks and shares the terminator objects, so it is pad-free
    # either way).  Derived facts in the store may bake in the pre-pad
    # CFG: drop those,
    # re-seed the facts this pass just computed, and extend the body's
    # one Cfg and its one init solution with the pads rather than
    # building or solving either a second time.
    store = store_of(body)
    cfg = cfg_of(body)
    store.cache.clear()
    cfg.add_landing_pads(body, sites)
    store.cache["cfg"] = cfg
    init.add_landing_pads(body, first_pad)
    store.cache["init"] = init
    store.cache["unwind_drop_order"] = order
    store.cache["panic_facts"] = (
        freeze(sources), freeze(moved), freeze(drops))


# ---------------------------------------------------------------------------
# Panic-effects summary component
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class PanicEffects:
    """The panic component of a function summary.

    Every field is a may-set / monotone flag in the summary lattice:

    * ``may_panic`` — some operation in the call tree can panic.
    * ``sources`` — the panic vocabulary observed in the call tree
      (``assert``, ``unwrap``, ``panic``, ``RefCell::borrow_mut``,
      ``opaque-call``, ...), unioned through callees.
    * ``hop`` — the callee key the may-panic bit was composed through
      (``None`` when a panic source is in this very body); the link
      ``panic_chain`` follows for `minirust explain` provenance.
    * ``moved_at_panic`` — locals that are moved-out and **not**
      reinitialised at some direct panic point of this body: the
      logically-uninit window unwinding can observe.
    * ``unwind_drops`` — drop obligations live at some direct panic
      point: what the landing pads (and the interpreter's unwind) run.
    """

    may_panic: bool = False
    sources: FrozenSet[str] = _EMPTY
    hop: Optional[str] = None
    moved_at_panic: FrozenSet[int] = _EMPTY
    unwind_drops: FrozenSet[int] = _EMPTY

    @property
    def is_bottom(self) -> bool:
        return not (self.may_panic or self.sources or self.moved_at_panic
                    or self.unwind_drops)


#: Shared bottom element for the common case (no panic source anywhere
#: in the call tree) — nothing mutates a PanicEffects after
#: construction, so sharing keeps summary equality checks on the
#: identity fast path.
_BOTTOM_PANIC = PanicEffects()


def _direct_panic_facts(body: Body):
    """Body-local panic facts (independent of callee summaries, so
    cached on the scan): the direct source names, the moved-out window
    and the live drop obligations across this body's own panic points."""
    sites = scan_of(body).panic_sites
    if not sites:
        return _EMPTY, _EMPTY, _EMPTY
    order = unwind_drop_order(body)
    init = init_of(body)
    sources = set()
    moved = set()
    drops = set()
    for bb, term, source in sites:
        sources.add(source)
        state = _state_before_unwind(init, bb, term)
        moved.update(init.moved_out_locals(state))
        drops.update(l for l in order if state >> l & 1)
    return freeze(sources), freeze(moved), freeze(drops)


def compute_panic_effects(body: Body, summaries, user_sites) -> PanicEffects:
    """The body's :class:`PanicEffects` against the live summary map.

    Direct facts come from the (cached) body scan; the may-panic bit and
    source vocabulary additionally compose through same-thread user
    calls.  ``hop`` records the first may-panic callee when no direct
    source exists — the provenance link, stable once the component
    converges.
    """
    sources, moved, drops = scan_of(body).memo(
        "panic_facts", lambda: _direct_panic_facts(body))
    hop: Optional[str] = None
    composed = set()
    for _bb, _term, callee, _sources in user_sites:
        callee_summary = summaries.get(callee)
        if callee_summary is None or not callee_summary.panic.may_panic:
            continue
        composed |= callee_summary.panic.sources
        if hop is None:
            hop = callee
    if not sources and not composed:
        return _BOTTOM_PANIC
    if sources:
        hop = None      # the panic is provable in this very body
    return PanicEffects(
        may_panic=True, sources=frozenset(sources) | frozenset(composed),
        hop=hop, moved_at_panic=moved, unwind_drops=drops)
