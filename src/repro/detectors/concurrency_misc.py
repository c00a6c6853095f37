"""Blocking-bug detectors beyond double-lock: condvar, channel, Once.

These cover the remaining §6.1 blocking-bug categories:

* :class:`CondvarDetector` — a ``Condvar::wait`` with no matching
  ``notify_one``/``notify_all`` anywhere in the program (8 of the paper's
  10 condvar bugs have this shape);
* :class:`ChannelDetector` — a blocking ``recv`` in a program with no
  ``send`` that can feed it, and ``recv`` while holding a lock the sender
  side needs;
* :class:`OnceRecursionDetector` — ``call_once`` whose closure
  (transitively) calls ``call_once`` on the same ``Once`` (self-deadlock).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.analysis.dataflow import reach
from repro.analysis.lifetime import lock_identity
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp
from repro.lang.types import TyKind
from repro.mir.nodes import Body

_NOTIFY_OPS = {BuiltinOp.CONDVAR_NOTIFY_ONE, BuiltinOp.CONDVAR_NOTIFY_ALL}


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
        from repro.analysis.lockgraph import global_site_ids, live_functions
        waits = ctx.builtin_sites(BuiltinOp.CONDVAR_WAIT)
        findings: List[Finding] = []
        if not waits:
            return findings
        # Only a notify that can actually run counts: its function must be
        # an entry point or reachable (called / spawned) from one.  A
        # notify inside a closure nothing ever invokes wakes nobody.
        live = live_functions(ctx.engine)
        notifies = [(body, bb, term) for body, bb, term
                    in ctx.builtin_sites(*_NOTIFY_OPS)
                    if body.key in live]
        # Identity comparison is only meaningful for global ids — but
        # ``global_site_ids`` resolves receiver locals interprocedurally
        # (through spawn captures and call sites), so a condvar handed to
        # a spawned closure still meets its waiter on the allocation site.
        notify_global: Set = set()
        unresolved_notify = False
        for nbody, _bb, nterm in notifies:
            if not nterm.args or nterm.args[0].place is None:
                unresolved_notify = True
                continue
            ids = global_site_ids(ctx.engine, nbody,
                                  nterm.args[0].place.local)
            if ids:
                notify_global |= ids
            else:
                unresolved_notify = True
        for body, bb, term in waits:
            if term.args and term.args[0].place is not None:
                wait_global = global_site_ids(ctx.engine, body,
                                              term.args[0].place.local)
            else:
                wait_global = set()
            if not notifies:
                matched = False
            elif not wait_global or unresolved_notify:
                matched = True     # cannot distinguish: assume matched
            else:
                matched = bool(wait_global & notify_global)
            if not matched:
                findings.append(Finding(
                    detector=self.name, kind="condvar-no-notify",
                    message=("`Condvar::wait` but no thread ever calls "
                             "`notify_one`/`notify_all` on this condvar; "
                             "the waiter blocks forever"),
                    fn_key=body.key, span=term.span,
                    metadata={"block": bb}))
        return findings


class ChannelDetector(Detector):
    name = "channel"
    description = ("Blocking recv with no sender, and recv while holding "
                   "a lock the sender needs")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        program = ctx.program
        recvs = ctx.builtin_sites(BuiltinOp.CHANNEL_RECV)
        sends = ctx.builtin_sites(BuiltinOp.CHANNEL_SEND)
        findings: List[Finding] = []
        if recvs and not sends:
            for body, bb, term in recvs:
                findings.append(Finding(
                    detector=self.name, kind="recv-no-sender",
                    message=("`recv()` but the program contains no `send` "
                             "on any channel; the receiver blocks forever"),
                    fn_key=body.key, span=term.span))
            return findings

        # recv while holding a lock that some sender-side function locks:
        # the classic "receiver holds the lock the producer needs" shape.
        graph = ctx.call_graph
        sender_fns = {body.key for body, _bb, _t in sends}
        for body, bb, term in recvs:
            regions = ctx.guard_regions(body)
            point = (bb, len(body.blocks[bb].statements))
            for region in regions:
                if not region.covers(point):
                    continue
                held_global = {i for i in region.lock_ids
                               if i[0] in ("static", "heap")}
                if not held_global:
                    continue
                for sender_fn in sender_fns:
                    if sender_fn == body.key:
                        continue
                    sender_body = program.functions.get(sender_fn)
                    if sender_body is None:
                        continue
                    # Statics the sender's summary says it (transitively)
                    # locks: these count even when the acquisition sits in
                    # a helper the sender calls.
                    summary_static = {
                        ("static", lock[1], lock[2])
                        for lock in ctx.summary(sender_fn).locks
                        if lock[0] == "static"}
                    for sregion in ctx.guard_regions(sender_body):
                        sender_global = {i for i in sregion.lock_ids
                                         if i[0] in ("static", "heap")}
                        sender_global |= summary_static
                        if held_global & sender_global:
                            findings.append(Finding(
                                detector=self.name,
                                kind="recv-holding-lock",
                                message=(f"`recv()` while holding a lock "
                                         f"that the sending side "
                                         f"(`{sender_fn}`) also acquires; "
                                         f"if the sender blocks on the "
                                         f"lock, neither side progresses"),
                                fn_key=body.key, span=term.span,
                                severity=Severity.WARNING))
                            break
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
