"""Per-body scan cache: flatten the MIR once, derive facts once.

Profiling the summary solve (ROADMAP's "hot path" item) showed the
engine spending most of its wall time not in lattice joins but in
*re-walking bodies*: ``Body.iter_statements`` generator resumptions,
``resolve_ref_chain`` rebuilding its assignment map on every call, and
every summarise iteration re-deriving deref sites, taint seeds and
guard chains that only depend on the body text.  :class:`BodyScan`
computes those structural facts exactly once per body and memoises the
pure per-local queries; the analysis modules (``summaries``,
``unsafe_prop``, ``lifetime``, ``points_to``, ``callgraph``) all route
through it instead of walking the block list themselves.

The scan lives in ``body.__dict__`` under a non-field attribute, so

* ``canonical(body)`` (the cache fingerprint) never sees it — fingerprints
  stay byte-identical with pre-scan releases, which is what keeps the
  v2 summary-cache keys valid;
* dataclass equality ignores it;
* ``Body.__getstate__`` strips it, so worker-task payloads and cache
  entries never ship derived state (workers rebuild their own scans);
* nothing in it points back at the body (the scan, its ``Cfg`` and every
  cached fact), so a body and everything derived from it are freed by
  reference counting alone, never left to the cyclic collector.
  Functions that need the body take it as an argument.

Derived facts that belong to *other* modules (deref sites, taint,
points-to skeletons) are stored in the scan's generic ``cache`` dict
under module-chosen keys — the scan stays free of imports from the
analysis layer, so there are no cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mir.cfg import Cfg
from repro.mir.nodes import Body, RvalueKind, StatementKind, TerminatorKind

#: ``body.__dict__`` attribute holding the scan.  Leading underscore:
#: ``Body.__getstate__`` strips every non-field attribute so pickles
#: (worker payloads, cache entries) never carry derived state.
_ATTR = "_scan_cache"


class BodyScan:
    """Flattened MIR views plus memoised per-local queries for one body."""

    __slots__ = (
        "statements",        # tuple of (block, index, stmt)
        "terminators",       # tuple of (block, terminator)
        "calls",             # tuple of (block, term) for CALL with a func
        "has_unsafe",        # any statement/terminator lowered from unsafe
        "first_assigns",     # local -> first rvalue assigned (is_local dests)
        "ref_map",           # local -> base of its last `= &base` assignment
        "drop_locals",       # locals with an explicit DROP statement
        "_ref_chains",       # resolve_ref_chain memo
        "cache",             # generic slot store for other modules' facts
    )

    def __init__(self, body: Body) -> None:
        statements: List[Tuple[int, int, object]] = []
        terminators: List[Tuple[int, object]] = []
        calls: List[Tuple[int, object]] = []
        first_assigns: Dict[int, object] = {}
        ref_map: Dict[int, int] = {}
        drop_locals: List[int] = []
        has_unsafe = False
        for block in body.blocks:
            # Landing pads synthesised by unwind lowering hold only the
            # pending drops of the panic path; the scan models the
            # fall-through program (drop_locals, first_assigns, value
            # chains), so they are skipped — pad effects are read from
            # the CFG edges, not the flattened views.
            if block.cleanup:
                continue
            bb = block.index
            for i, stmt in enumerate(block.statements):
                statements.append((bb, i, stmt))
                if stmt.in_unsafe:
                    has_unsafe = True
                if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local:
                    local = stmt.place.local
                    if local not in first_assigns:
                        first_assigns[local] = stmt.rvalue
                    rv = stmt.rvalue
                    if rv is not None and rv.kind in (
                            RvalueKind.REF, RvalueKind.ADDRESS_OF) \
                            and rv.place.is_local:
                        ref_map[local] = rv.place.local
                elif stmt.kind is StatementKind.DROP \
                        and stmt.place.is_local:
                    drop_locals.append(stmt.place.local)
            term = block.terminator
            if term is not None:
                terminators.append((bb, term))
                if term.in_unsafe:
                    has_unsafe = True
                if term.kind is TerminatorKind.CALL \
                        and term.func is not None:
                    calls.append((bb, term))
        self.statements = tuple(statements)
        self.terminators = tuple(terminators)
        self.calls = tuple(calls)
        self.has_unsafe = has_unsafe
        self.first_assigns = first_assigns
        self.ref_map = ref_map
        self.drop_locals = tuple(drop_locals)
        self._ref_chains: Dict[int, Tuple[int, Tuple]] = {}
        self.cache: Dict[str, object] = {}

    # -- memoised per-local queries -----------------------------------------

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

    def memo(self, key: str, compute):
        """Fetch-or-compute a derived fact owned by another module."""
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = compute()
        return hit


def scan_of(body: Body) -> BodyScan:
    """The body's scan, built on first use and cached on the body object
    (outside its dataclass fields, stripped from pickles)."""
    scan = body.__dict__.get(_ATTR)
    if scan is None:
        scan = BodyScan(body)
        body.__dict__[_ATTR] = scan
    return scan


def cfg_of(body: Body) -> Cfg:
    """The body's :class:`Cfg`, built once and shared by every analysis and
    detector.  Unwind lowering extends it in place with the landing pads
    it adds (``Cfg.add_landing_pads``); no other caller mutates it."""
    return scan_of(body).memo("cfg", lambda: Cfg(body))
