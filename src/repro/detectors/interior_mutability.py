"""Interior-mutability misuse detectors (non-blocking bugs, §6.2).

Two patterns from the paper:

* :class:`SyncUnsyncWriteDetector` — a struct shared across threads
  (``unsafe impl Sync`` or wrapped in ``Arc``) whose ``&self`` method
  mutates state through a raw-pointer cast of a field with no lock held —
  the Figure 4 ``TestCell::set`` shape.  Suggestion 8: "internal mutual
  exclusion must be carefully reviewed for interior mutability functions
  in structs implementing the Sync trait."
* :class:`AtomicityViolationDetector` — the Figure 9 ``generate_seal``
  shape: an atomic ``load`` of a field controls a branch that performs an
  atomic ``store`` to the same field (check-then-act instead of
  compare-and-swap).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.scan import cfg_of, scan_of
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Body, StatementKind, TerminatorKind


def _is_self_method(body: Body) -> bool:
    return body.self_mode == "ref" and body.arg_count >= 1


def _struct_is_shared(ctx: AnalysisContext, struct_name: str) -> bool:
    table = ctx.program.item_table
    info = table.structs.get(struct_name)
    if info is None:
        return False
    if info.unsafe_sync or info.traits.get("Sync") or info.traits.get("Send"):
        return True
    # Shared via Arc<StructName> anywhere in the program?
    return struct_name in ctx.arc_shared_structs()


def _may_synchronise(ctx: AnalysisContext, body: Body) -> bool:
    """Does this method (or anything it calls, transitively) acquire a
    lock?  The function summary's ``acquires_any_lock`` covers helpers
    like ``self.lock_then_write()``; ``calls_unknown`` is the soundness
    fallback — unresolved code might synchronise, so do not report."""
    summary = ctx.summary(body.key)
    return summary.acquires_any_lock or summary.calls_unknown


class SyncUnsyncWriteDetector(Detector):
    name = "sync-unsync-write"
    description = ("&self method of a thread-shared struct mutates state "
                   "through a raw pointer without synchronisation")
    paper_section = "6.2"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        if not _is_self_method(body) or body.self_ty is None:
            return findings
        struct_name = body.self_ty.name
        if not _struct_is_shared(ctx, struct_name):
            return findings
        if _may_synchronise(ctx, body):
            return findings

        pt = ctx.points_to(body)
        # self is argument local 1; writes through raw pointers whose
        # points-to includes self's storage are unsynchronised mutations.
        for _bb, _i, stmt, _place, is_write in scan_of(body).deref_places:
            if not is_write:
                continue
            base_ty = body.local_ty(stmt.place.local)
            if not base_ty.is_raw_ptr:
                continue
            base, _proj = resolve_ref_chain(body, stmt.place.local)
            targets = pt.local_targets(stmt.place.local) | {base}
            if 1 in targets:
                findings.append(Finding(
                    detector=self.name, kind="unsync-interior-mutation",
                    message=(f"`{body.key}` takes `&self` on thread-shared "
                             f"`{struct_name}` but mutates it through a raw "
                             f"pointer with no lock held; concurrent callers "
                             f"race"),
                    fn_key=body.key, span=stmt.span,
                    severity=Severity.WARNING,
                    metadata={"struct": struct_name}))
                break
        return findings


class AtomicityViolationDetector(Detector):
    name = "atomicity-violation"
    description = ("Atomic load feeding a branch that atomically stores to "
                   "the same location (check-then-act; needs CAS)")
    paper_section = "6.2"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        # A finding needs an atomic load and an atomic store.
        scan = scan_of(body)
        if BuiltinOp.ATOMIC_LOAD not in scan.ops \
                or BuiltinOp.ATOMIC_STORE not in scan.ops:
            return []
        findings: List[Finding] = []
        cfg = cfg_of(body)
        pt = ctx.points_to(body)

        loads: List[Tuple[int, int, frozenset]] = []   # (block, dest, field-id)
        stores: List[Tuple[int, frozenset, object]] = []  # (block, field-id, term)
        for bb, term in scan.calls_of(BuiltinOp.ATOMIC_LOAD,
                                      BuiltinOp.ATOMIC_STORE):
            op = term.func.builtin_op
            if not term.args or term.args[0].place is None:
                continue
            base, proj = resolve_ref_chain(body, term.args[0].place.local)
            proj_key = tuple((p.field_name or str(p.field_index))
                             for p in proj)
            ident = frozenset({(t, proj_key) for t in pt.targets(base)} |
                              {(("local", base), proj_key)})
            if op is BuiltinOp.ATOMIC_LOAD and term.destination is not None \
                    and term.destination.is_local:
                loads.append((bb, term.destination.local, ident))
            elif op is BuiltinOp.ATOMIC_STORE:
                stores.append((bb, ident, term))

        if not loads or not stores:
            return findings

        # A load "controls" a branch when its dest (or a comparison of it)
        # is some SwitchInt discriminant; the store must sit in a block
        # dominated by one of the branch targets.
        influenced: Dict[int, Set[int]] = {}   # load dest → derived locals
        for bb, i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None \
                    and stmt.place.is_local:
                srcs = {op.place.local for op in stmt.rvalue.operands
                        if op.place is not None}
                for load_bb, dest, ident in loads:
                    derived = influenced.setdefault(dest, {dest})
                    if srcs & derived:
                        derived.add(stmt.place.local)

        reported = set()
        for load_bb, dest, load_ident in loads:
            derived = influenced.get(dest, {dest})
            for bb, term in scan.terminators:
                if term.kind is not TerminatorKind.SWITCH_INT \
                        or term.discr is None or term.discr.place is None:
                    continue
                if term.discr.place.local not in derived:
                    continue
                for store_bb, store_ident, store_term in stores:
                    same_field = bool(
                        {i for i in load_ident} & {i for i in store_ident})
                    if not same_field:
                        continue
                    dominated = any(
                        succ is not None and cfg.dominates(succ, store_bb)
                        for succ in term.successors())
                    if dominated and (load_bb, store_bb) not in reported:
                        reported.add((load_bb, store_bb))
                        findings.append(Finding(
                            detector=self.name, kind="atomic-check-then-act",
                            message=("atomic `load` guards a branch that "
                                     "`store`s to the same atomic; two "
                                     "threads can both pass the check "
                                     "before either stores — use "
                                     "`compare_and_swap`/`compare_exchange`"),
                            fn_key=body.key, span=store_term.span,
                            severity=Severity.WARNING))
        return findings
