"""Double-lock detector (the paper's second detector, §7.2).

Construction follows the paper: "It first identifies all call sites of
lock() and extracts [...] the lock being acquired and the variable being
used to save the return value.  As Rust implicitly releases the lock when
the lifetime of this variable ends, our tool will record this release
time.  We then check whether or not the same lock is acquired before this
time [...].  Our check covers the case where two lock acquisitions are in
different functions by performing inter-procedural analysis."

The guard region (acquisition → implicit/explicit release) comes from
:func:`repro.analysis.lifetime.compute_guard_regions`; re-acquisition is
checked both intra-procedurally (another acquisition terminator inside the
region whose lock identity may-aliases) and inter-procedurally (a call
inside the region to a function whose lock summary includes the same
lock).  ``try_lock`` variants never block, so they are excluded, and two
``read()`` acquisitions of an ``RwLock`` are allowed.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lifetime import (
    LOCK_ACQUIRE_OPS, GuardRegion, caller_lock_ids, lock_identity,
)
from repro.analysis.scan import scan_of
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding
from repro.obs.provenance import fact
from repro.hir.builtins import FuncKind
from repro.mir.nodes import Body


def _kinds_conflict(first: str, second: str) -> bool:
    """Would acquiring ``second`` while holding ``first`` (same lock, same
    thread) block forever / panic?"""
    if first in ("read", "borrow") and second in ("read", "borrow"):
        return False
    return True


class DoubleLockDetector(Detector):
    name = "double-lock"
    description = ("Re-acquisition of a lock while its guard is still "
                   "alive (Rust's implicit unlock has not run yet)")
    paper_section = "7.2"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        regions = ctx.guard_regions(body)
        if not regions:
            return []
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        scan = scan_of(body)
        acquisitions = scan.calls_of(*LOCK_ACQUIRE_OPS)
        user_calls = scan.calls_of_kind(FuncKind.USER, FuncKind.CLOSURE)

        for region in regions:
            if region.is_try:
                continue
            # Intra-procedural: another acquisition inside the region.
            for bb, term in acquisitions:
                second_kind = LOCK_ACQUIRE_OPS[term.func.builtin_op]
                point = (bb, len(body.blocks[bb].statements))
                if bb == region.acquire_block or not region.covers(point):
                    continue
                if not term.args or term.args[0].place is None:
                    continue
                second_ids = lock_identity(body, pt,
                                           term.args[0].place.local)
                if not (second_ids & region.lock_ids):
                    continue
                if not _kinds_conflict(region.kind, second_kind):
                    continue
                shared_ids = second_ids & region.lock_ids
                provenance = [
                    fact("guard-region",
                         f"lifetime analysis: guard from "
                         f"`{region.op.value}` (kind {region.kind}) "
                         f"acquired in block {region.acquire_block} is "
                         f"still live at block {bb}",
                         acquire_block=region.acquire_block,
                         lock_kind=region.kind, op=region.op),
                    fact("lock-identity",
                         f"points-to analysis: both acquisitions "
                         f"resolve to the same lock",
                         shared=shared_ids),
                    fact("reacquire",
                         f"second acquisition `{term.func.name}` "
                         f"(kind {second_kind}) at block {bb} conflicts "
                         f"with the held {region.kind} guard",
                         block=bb, lock_kind=second_kind)]
                if region.via_call is not None:
                    provenance.append(fact(
                        "summary-chain",
                        f"summary engine: the held guard was returned by "
                        f"`{region.via_call}` (its summary holds this lock "
                        f"on return)",
                        chain=[body.key, region.via_call]))
                findings.append(Finding(
                    detector=self.name, kind="double-lock",
                    message=(f"lock acquired by `{term.func.name}` while the "
                             f"guard from `{region.op.value}` (same lock) is "
                             f"still held — the implicit unlock has not run; "
                             f"this self-deadlocks"),
                    fn_key=body.key, span=term.span,
                    metadata={"first": region.kind, "second": second_kind,
                              "acquire_block": region.acquire_block,
                              "reacquire_block": bb,
                              "interprocedural": False},
                    provenance=provenance))
            # Inter-procedural: a call inside the region to a function that
            # (transitively) locks the same lock (none under the
            # ``interprocedural=False`` ablation, whose summaries hold no
            # lock).
            findings.extend(self._check_calls_in_region(
                ctx, body, pt, region, user_calls))
        return findings

    def _check_calls_in_region(self, ctx, body: Body, pt,
                               region: GuardRegion,
                               user_calls) -> List[Finding]:
        findings: List[Finding] = []
        for bb, term in user_calls:
            point = (bb, len(body.blocks[bb].statements))
            if not region.covers(point):
                continue
            callee = term.func.user_fn
            summary = ctx.summary(callee)
            if not summary.locks:
                continue
            for lock in summary.locks:
                id_kind, payload, proj, lock_kind = lock
                if not _kinds_conflict(region.kind, lock_kind):
                    continue
                caller_ids = caller_lock_ids(body, pt, term, lock)
                if caller_ids & region.lock_ids:
                    chain = [body.key] + ctx.lock_chain(callee, lock)
                    findings.append(Finding(
                        detector=self.name, kind="double-lock",
                        message=(f"call to `{callee}` while the guard from "
                                 f"`{region.op.value}` is held — the callee "
                                 f"acquires the same lock "
                                 f"({lock_kind}); this self-deadlocks"),
                        fn_key=body.key, span=term.span,
                        metadata={"first": region.kind,
                                  "second": lock_kind,
                                  "callee": callee,
                                  "interprocedural": True},
                        provenance=[
                            fact("guard-region",
                                 f"lifetime analysis: guard from "
                                 f"`{region.op.value}` (kind {region.kind}) "
                                 f"acquired in block "
                                 f"{region.acquire_block} covers the call "
                                 f"at block {bb}",
                                 acquire_block=region.acquire_block,
                                 lock_kind=region.kind, op=region.op),
                            fact("lock-summary",
                                 f"function summary: `{callee}` "
                                 f"(transitively) acquires a {lock_kind} "
                                 f"lock",
                                 callee=callee, lock_kind=lock_kind,
                                 summary_entry=lock),
                            fact("lock-identity",
                                 f"points-to analysis: the callee's lock "
                                 f"resolves to the caller's held lock",
                                 shared=caller_ids & region.lock_ids),
                            fact("summary-chain",
                                 f"summary engine: the acquisition reaches "
                                 f"the lock along "
                                 f"{' → '.join(chain)}",
                                 chain=chain)]))
                    break
        return findings
