"""Cross-thread deadlock detector: the unified blocking-bug engine.

Three §6.1 blocking-bug shapes, all answered from the same cross-thread
lock graph (:mod:`repro.analysis.lockgraph`):

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

Condvar and channel-endpoint identities resolve interprocedurally
through :func:`repro.analysis.lockgraph.global_site_ids` (capture and
caller routes); notify / send sites only count when their function is
reachable from a live thread root (:func:`~repro.analysis.lockgraph.
live_functions`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.escape import translate_capture
from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.lockgraph import (
    LockGraph, OrderEdge, global_site_ids, live_functions, pretty_lock,
)
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.concurrency_misc import _NOTIFY_OPS
from repro.detectors.report import Finding
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Body
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
        findings = self._cycle_findings(ctx)
        findings.extend(self._condvar_findings(ctx))
        findings.extend(self._channel_findings(ctx))
        return findings

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

    # -- condvar wait while holding an unrelated lock -----------------------

    def _condvar_findings(self, ctx: AnalysisContext) -> List[Finding]:
        waits = ctx.builtin_sites(BuiltinOp.CONDVAR_WAIT)
        if not waits:
            return []
        notifies = ctx.builtin_sites(*_NOTIFY_OPS)
        if not notifies:
            return []          # missed-signal outright: CondvarDetector's
        live = live_functions(ctx.engine)
        findings: List[Finding] = []
        for body, bb, term in waits:
            if term.args[0].place is None:
                continue
            cv_ids = global_site_ids(ctx.engine, body,
                                     term.args[0].place.local)
            if not cv_ids:
                continue
            # The wait releases its own guard; every *other* region still
            # covering the wait point stays held while blocked.
            exclude = set()
            for arg in term.args[1:]:
                if arg.place is not None and arg.place.is_local:
                    exclude.add(arg.place.local)
                    exclude.add(resolve_ref_chain(body,
                                                  arg.place.local)[0])
            point = (bb, len(body.blocks[bb].statements))
            held = self._held_lock_nodes(ctx, body, point,
                                         exclude_guard_locals=exclude)
            if not held:
                continue
            notify_sites = []
            for nbody, nbb, nterm in notifies:
                if nbody.key not in live or nterm.args[0].place is None:
                    continue
                n_ids = global_site_ids(ctx.engine, nbody,
                                        nterm.args[0].place.local)
                if cv_ids & n_ids:
                    npoint = (nbb, len(nbody.blocks[nbb].statements))
                    notify_sites.append(
                        (nbody, nterm,
                         self._held_lock_nodes(ctx, nbody, npoint)))
            if not notify_sites:
                continue       # no live same-identity notify: missed-signal
            # A lock the waiter keeps held that *every* notifier must
            # also take: no notify can ever run while the waiter blocks.
            blocking = [
                lock for lock in sorted(held)
                if all(lock in nheld for _b, _t, nheld in notify_sites)]
            if not blocking:
                continue
            lock = blocking[0]
            notifier_names = sorted({nb.key for nb, _t, _h in notify_sites})
            findings.append(Finding(
                detector=self.name, kind="condvar-hold-lock",
                message=(f"`Condvar::wait` while still holding "
                         f"{pretty_lock(lock)}; every reachable notifier "
                         f"({', '.join(f'`{n}`' for n in notifier_names)}) "
                         f"must acquire that lock before signalling, so "
                         f"the wakeup can never happen"),
                fn_key=body.key, span=term.span,
                metadata={"held": pretty_lock(lock),
                          "notifiers": notifier_names},
                provenance=[
                    fact("lockset",
                         f"waiter holds {pretty_lock(lock)} across the wait "
                         f"(the wait only releases its own guard)",
                         held=[pretty_lock(l) for l in sorted(held)]),
                    fact("condvar-identity",
                         "wait and notify resolve to the same condvar",
                         ids=[pretty_lock(i) for i in sorted(cv_ids)]),
                    fact("notify-blocked",
                         f"all notify sites acquire {pretty_lock(lock)} "
                         f"first", notifiers=notifier_names),
                ]))
        return findings

    # -- blocking recv while holding the sender's lock ----------------------

    def _channel_findings(self, ctx: AnalysisContext) -> List[Finding]:
        recvs = ctx.builtin_sites(BuiltinOp.CHANNEL_RECV)
        if not recvs:
            return []
        sends = ctx.builtin_sites(BuiltinOp.CHANNEL_SEND)
        if not sends:
            return []          # no sender at all: ChannelDetector's case
        te = ctx.thread_escape()
        live = live_functions(ctx.engine)
        findings: List[Finding] = []
        for body, bb, term in recvs:
            if not term.args or term.args[0].place is None:
                continue
            chan_ids = global_site_ids(ctx.engine, body,
                                       term.args[0].place.local)
            if not chan_ids:
                continue
            point = (bb, len(body.blocks[bb].statements))
            held = self._held_lock_nodes(ctx, body, point)
            if not held:
                continue
            recv_spawned = body.key in te.thread_reachable
            send_sites = []
            cross_thread = False
            for sbody, sbb, sterm in sends:
                if sbody.key not in live or not sterm.args \
                        or sterm.args[0].place is None:
                    continue
                s_ids = global_site_ids(ctx.engine, sbody,
                                        sterm.args[0].place.local)
                if not (chan_ids & s_ids):
                    continue
                spoint = (sbb, len(sbody.blocks[sbb].statements))
                send_sites.append(
                    (sbody, sterm,
                     self._held_lock_nodes(ctx, sbody, spoint)))
                if (sbody.key in te.thread_reachable) != recv_spawned:
                    cross_thread = True
            if not send_sites or not cross_thread:
                continue
            # Deadlock only when *every* sender that could feed this
            # channel must first take a lock the receiver holds.
            blocked = all(set(held) & set(sheld)
                          for _b, _t, sheld in send_sites)
            if not blocked:
                continue
            sender_names = sorted({sb.key for sb, _t, _h in send_sites})
            locks = sorted(set(held) & set.union(
                *[set(sheld) for _b, _t, sheld in send_sites]))
            findings.append(Finding(
                detector=self.name, kind="recv-deadlock",
                message=(f"blocking `recv()` while holding "
                         f"{pretty_lock(locks[0])}; every sender on this "
                         f"channel ({', '.join(f'`{n}`' for n in sender_names)}) "
                         f"runs on another thread and must acquire that "
                         f"lock before sending — the receiver waits for "
                         f"a message only a blocked thread can produce"),
                fn_key=body.key, span=term.span,
                metadata={"held": [pretty_lock(l) for l in locks],
                          "senders": sender_names},
                provenance=[
                    fact("lockset",
                         f"receiver holds {pretty_lock(locks[0])} across the "
                         f"blocking recv",
                         held=[pretty_lock(l) for l in sorted(held)]),
                    fact("channel-identity",
                         "recv and send resolve to the same channel "
                         "endpoints",
                         ids=[pretty_lock(i) for i in sorted(chan_ids)]),
                    fact("sender-blocked",
                         "every live sender acquires the held lock "
                         "before sending", senders=sender_names),
                ]))
        return findings

    # -- shared lockset helper ----------------------------------------------

    @staticmethod
    def _held_lock_nodes(ctx: AnalysisContext, body: Body, point,
                         exclude_guard_locals: Optional[Set[int]] = None
                         ) -> Dict[Tuple, str]:
        """Global lock nodes held at ``point``: the guard regions
        covering it, with arg-relative ids (closure captures) resolved
        through every spawn site of this closure.  ``exclude_guard_locals``
        drops regions whose guard flows through one of those locals (the
        guard a ``Condvar::wait`` releases)."""
        exclude = exclude_guard_locals or set()
        te = ctx.thread_escape()
        spawn_sites = te.sites_spawning(body.key) if body.is_closure \
            else []
        out: Dict[Tuple, str] = {}
        for region in ctx.guard_regions(body):
            if region.is_try or not region.covers(point):
                continue
            if region.guard_chain & exclude:
                continue
            for ident in region.lock_ids:
                if ident[0] in ("static", "heap"):
                    out.setdefault(
                        (ident[0], ident[1], tuple(ident[2])), region.kind)
                elif ident[0] == "arg":
                    for site in spawn_sites:
                        spawner = ctx.program.functions.get(site.spawner)
                        if spawner is None:
                            continue
                        for node in translate_capture(
                                site, ctx.points_to(spawner),
                                ident[1], tuple(ident[2])):
                            out.setdefault(node, region.kind)
        return out
