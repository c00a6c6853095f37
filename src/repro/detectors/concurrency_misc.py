"""Blocking-bug detectors beyond double-lock: condvar, channel, Once.

These cover the remaining §6.1 blocking-bug categories:

* :class:`CondvarDetector` — a ``Condvar::wait`` that no live
  ``notify_one``/``notify_all`` on the same condvar can wake (8 of the
  paper's 10 condvar bugs have this shape);
* :class:`ChannelDetector` — a blocking ``recv`` that no live ``send``
  on the same channel feeds while a ``Sender`` stays alive, and a
  ``recv`` holding a lock some (not provably every) sender needs;
* :class:`OnceRecursionDetector` — ``call_once`` whose closure
  (transitively) calls ``call_once`` on the same ``Once`` (self-deadlock).

The condvar and channel detectors only emit the verdicts of the one
wait/wake query (:mod:`repro.detectors.waits`); the ``deadlock``
detector emits its ``wake_blocked`` verdicts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.analysis.dataflow import reach
from repro.analysis.lifetime import lock_identity
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.detectors.waits import NO_WAKE, WAKE_MAYBE_BLOCKED
from repro.hir.builtins import BuiltinOp
from repro.lang.types import TyKind
from repro.mir.nodes import Body


def _receiver_identity(ctx: AnalysisContext, body: Body, term) -> FrozenSet:
    if not term.args or term.args[0].place is None:
        return frozenset()
    return lock_identity(body, ctx.points_to(body),
                         term.args[0].place.local)


class CondvarDetector(Detector):
    name = "condvar"
    description = ("Condvar::wait with no reachable notify on the same "
                   "condvar (missed-signal deadlock)")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        return [Finding(
            detector=self.name, kind="condvar-no-notify",
            message=("`Condvar::wait` but no thread ever calls "
                     "`notify_one`/`notify_all` on this condvar; "
                     "the waiter blocks forever"),
            fn_key=wait.body.key, span=wait.term.span,
            metadata={"block": wait.block})
            for wait in ctx.waits(BuiltinOp.CONDVAR_WAIT)
            if wait.verdict == NO_WAKE]


class ChannelDetector(Detector):
    name = "channel"
    description = ("Blocking recv with no sender, and recv while holding "
                   "a lock the sender needs")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        for wait in ctx.waits(BuiltinOp.CHANNEL_RECV):
            if wait.verdict == NO_WAKE:
                findings.append(Finding(
                    detector=self.name, kind="recv-no-sender",
                    message=("`recv()` while a `Sender` of this channel "
                             "is still alive, but no thread ever calls "
                             "`send` on it; the receiver blocks forever"),
                    fn_key=wait.body.key, span=wait.term.span))
            elif wait.verdict == WAKE_MAYBE_BLOCKED:
                sender_fn = wait.blocked[0].body.key
                findings.append(Finding(
                    detector=self.name, kind="recv-holding-lock",
                    message=(f"`recv()` while holding a lock that the "
                             f"sending side (`{sender_fn}`) also "
                             f"acquires; if the sender blocks on the "
                             f"lock, neither side progresses"),
                    fn_key=wait.body.key, span=wait.term.span,
                    severity=Severity.WARNING))
        return findings


class OnceRecursionDetector(Detector):
    name = "once-recursion"
    description = ("Once::call_once whose initialiser re-enters call_once "
                   "on the same Once")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        graph = ctx.call_graph
        findings: List[Finding] = []
        sites = ctx.builtin_sites(BuiltinOp.ONCE_CALL_ONCE)

        # Map: fn key → once identities it calls call_once on directly.
        direct: Dict[str, Set] = {}
        for body, _bb, term in sites:
            ids = _receiver_identity(ctx, body, term)
            global_ids = {i for i in ids if i[0] in ("static", "heap")}
            direct.setdefault(body.key, set()).update(global_ids or ids)

        for body, bb, term in sites:
            once_ids = _receiver_identity(ctx, body, term)
            once_global = {i for i in once_ids if i[0] in ("static", "heap")}
            closure_keys = []
            for arg in term.args[1:]:
                if arg.place is not None:
                    ty = body.local_ty(arg.place.local)
                    if ty.kind is TyKind.CLOSURE:
                        closure_keys.append(ty.name)
            for closure_key in closure_keys:
                for fn in sorted(reach((closure_key,), graph.callees)):
                    inner = direct.get(fn, set())
                    compare = once_global or once_ids
                    if inner & compare:
                        findings.append(Finding(
                            detector=self.name, kind="once-recursion",
                            message=(f"`call_once` initialiser "
                                     f"(via `{fn}`) recursively calls "
                                     f"`call_once` on the same `Once`; "
                                     f"this self-deadlocks"),
                            fn_key=body.key, span=term.span))
                        break
        return findings
