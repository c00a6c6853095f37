"""Cross-thread deadlock detector: the unified blocking-bug engine.

Three §6.1 blocking-bug shapes over global lock identities
(:mod:`repro.analysis.lockgraph`):

* **deadlock-cycle** — a cycle among global lock identities whose edges
  can be assigned pairwise-distinct thread roots: thread A holds M1
  wanting M2 while thread B holds M2 wanting M1.  Each report carries
  per-thread hold → want provenance chains (the call chain from the
  thread's root function to each acquisition).  Same-thread ABBA
  re-orderings stay with the ``lock-order`` detector; when both engines
  see the same lock set, the registry's subsumption pass keeps only the
  deadlock finding.
* **condvar-hold-lock** — ``Condvar::wait`` releases *its* guard but
  keeps every other lock held; if all reachable notifiers of the same
  condvar must take one of those locks first, nobody can ever signal.
* **recv-deadlock** — a blocking ``recv`` while holding a lock that
  every live sender on the same channel must acquire before sending:
  the receiver waits for a message only a blocked thread can produce.

The last two are the ``wake_blocked`` verdicts of the one wait/wake
query (:mod:`repro.detectors.waits`), which also answers the
``condvar`` and ``channel`` detectors; the verdicts are disjoint, so no
wait is reported by two of them.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.analysis.lockgraph import LockGraph, OrderEdge, pretty_lock
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding
from repro.detectors.waits import WAKE_BLOCKED, Wait
from repro.hir.builtins import BuiltinOp
from repro.obs.provenance import fact


def _chain_text(chain: Tuple[str, ...]) -> str:
    return " -> ".join(f"`{fn}`" for fn in chain)


class DeadlockDetector(Detector):
    name = "deadlock"
    description = ("Cross-thread deadlocks over the global lock graph: "
                   "lock cycles between threads, condvar wait holding a "
                   "lock the notifier needs, recv holding a lock the "
                   "sender needs")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        return self._cycle_findings(ctx) + self._wait_findings(ctx)

    # -- cross-thread lock cycles -------------------------------------------

    def _cycle_findings(self, ctx: AnalysisContext) -> List[Finding]:
        graph: LockGraph = ctx.lock_graph()
        findings: List[Finding] = []
        seen: Set[FrozenSet] = set()
        for cycle, witness in graph.deadlock_cycles():
            key = frozenset(cycle)
            if key in seen:
                continue
            seen.add(key)
            findings.append(self._cycle_finding(cycle, witness))
        return findings

    def _cycle_finding(self, cycle: Tuple,
                       witness: List[OrderEdge]) -> Finding:
        # Report at a main-thread edge when one exists (the spawning side
        # is where the user looks first), else at the first hop.
        rep = next((e for e in witness if e.root.kind == "main"),
                   witness[0])
        lines = []
        facts = [fact(
            "lock-graph",
            f"cycle of {len(cycle)} locks across "
            f"{len({e.root for e in witness})} threads",
            locks=[pretty_lock(node) for node in cycle])]
        for edge in witness:
            lines.append(
                f"{edge.root.label()} holds {pretty_lock(edge.src)} and wants "
                f"{pretty_lock(edge.dst)} (in `{edge.fn_key}`)")
            facts.append(fact(
                "hold-want",
                f"{edge.root.label()}: holds {pretty_lock(edge.src)} along "
                f"{_chain_text(edge.hold_chain)}; wants "
                f"{pretty_lock(edge.dst)} along "
                f"{_chain_text(edge.want_chain)}",
                thread=edge.root.label(), fn=edge.fn_key,
                holds=pretty_lock(edge.src), wants=pretty_lock(edge.dst),
                hold_chain=list(edge.hold_chain),
                want_chain=list(edge.want_chain)))
        return Finding(
            detector=self.name, kind="deadlock-cycle",
            message=("cross-thread deadlock: " + "; ".join(lines) +
                     "; each thread waits on a lock another holds"),
            fn_key=rep.fn_key, span=rep.span,
            metadata={
                "cycle": [str(node) for node in cycle],
                "threads": [edge.root.label() for edge in witness],
            },
            provenance=facts)

    # -- a wait every waker must take a held lock to reach --------------

    def _wait_findings(self, ctx: AnalysisContext) -> List[Finding]:
        findings = [self._condvar_finding(wait)
                    for wait in ctx.waits(BuiltinOp.CONDVAR_WAIT)
                    if wait.verdict == WAKE_BLOCKED]
        findings.extend(self._recv_finding(wait)
                        for wait in ctx.waits(BuiltinOp.CHANNEL_RECV)
                        if wait.verdict == WAKE_BLOCKED)
        return findings

    def _condvar_finding(self, wait: Wait) -> Finding:
        lock = wait.blocking[0]
        notifier_names = sorted({site.body.key for site in wait.wakes})
        return Finding(
            detector=self.name, kind="condvar-hold-lock",
            message=(f"`Condvar::wait` while still holding "
                     f"{pretty_lock(lock)}; every reachable notifier "
                     f"({', '.join(f'`{n}`' for n in notifier_names)}) "
                     f"must acquire that lock before signalling, so "
                     f"the wakeup can never happen"),
            fn_key=wait.body.key, span=wait.term.span,
            metadata={"held": pretty_lock(lock),
                      "notifiers": notifier_names},
            provenance=[
                fact("lockset",
                     f"waiter holds {pretty_lock(lock)} across the wait "
                     f"(the wait only releases its own guard)",
                     held=[pretty_lock(l) for l in sorted(wait.held)]),
                fact("condvar-identity",
                     "wait and notify resolve to the same condvar",
                     ids=[pretty_lock(i) for i in sorted(wait.ids)]),
                fact("notify-blocked",
                     f"all notify sites acquire {pretty_lock(lock)} "
                     f"first", notifiers=notifier_names),
            ])

    def _recv_finding(self, wait: Wait) -> Finding:
        locks = wait.blocking
        sender_names = sorted({site.body.key for site in wait.wakes})
        return Finding(
            detector=self.name, kind="recv-deadlock",
            message=(f"blocking `recv()` while holding "
                     f"{pretty_lock(locks[0])}; every sender on this "
                     f"channel ({', '.join(f'`{n}`' for n in sender_names)}) "
                     f"runs on another thread and must acquire that "
                     f"lock before sending — the receiver waits for "
                     f"a message only a blocked thread can produce"),
            fn_key=wait.body.key, span=wait.term.span,
            metadata={"held": [pretty_lock(l) for l in locks],
                      "senders": sender_names},
            provenance=[
                fact("lockset",
                     f"receiver holds {pretty_lock(locks[0])} across the "
                     f"blocking recv",
                     held=[pretty_lock(l) for l in sorted(wait.held)]),
                fact("channel-identity",
                     "recv and send resolve to the same channel "
                     "endpoints",
                     ids=[pretty_lock(i) for i in sorted(wait.ids)]),
                fact("sender-blocked",
                     "every live sender acquires the held lock "
                     "before sending", senders=sender_names),
            ])
