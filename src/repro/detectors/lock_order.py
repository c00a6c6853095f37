"""Conflicting-lock-order (ABBA deadlock) detector.

The paper attributes seven of its blocking bugs to "acquiring locks in
conflicting orders" (§6.1).  We build a lock-order graph: an edge
``L1 → L2`` is recorded whenever ``L2`` is acquired inside the guard
region of ``L1`` — intra-procedurally, or via a call to a function whose
summary (transitively) locks ``L2``.  A cycle among globally identifiable
locks (statics, heap allocation sites) is a potential ABBA deadlock.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx

from repro.analysis.lifetime import (
    LOCK_ACQUIRE_OPS, caller_lock_ids, lock_identity,
)
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import FuncKind
from repro.lang.source import Span
from repro.mir.nodes import Body, TerminatorKind


def _global_ids(ids: FrozenSet) -> Set[Tuple]:
    """Keep only program-wide lock identities (statics / heap sites).

    Argument positions do not qualify *here* — args are caller-relative —
    but they are not lost: the summary engine records arg-relative
    acquisition orders in ``FunctionSummary.lock_orders`` and translates
    them into each caller's frame, so an ABBA pair split across a helper
    that receives both locks as parameters still reaches the graph once
    the ids resolve to statics (see ``check_program``)."""
    return {i for i in ids if i[0] in ("static", "heap")}


def _rotate_to_least(cycle: List[Tuple]) -> List[Tuple]:
    """The same circuit, started at its least lock (by ``repr``)."""
    start = min(range(len(cycle)), key=lambda i: repr(cycle[i]))
    return cycle[start:] + cycle[:start]


class LockOrderDetector(Detector):
    name = "lock-order"
    description = ("Cycles in the lock-acquisition-order graph "
                   "(potential ABBA deadlocks between threads)")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        graph = nx.DiGraph()
        edge_spans: Dict[Tuple, Tuple[str, Span]] = {}

        for body in ctx.program.bodies():
            pt = ctx.points_to(body)
            regions = ctx.guard_regions(body)
            for region in regions:
                firsts = _global_ids(region.lock_ids)
                if not firsts:
                    continue
                for bb, term in body.iter_terminators():
                    if term.kind is not TerminatorKind.CALL or term.func is None:
                        continue
                    point = (bb, len(body.blocks[bb].statements))
                    if bb == region.acquire_block or not region.covers(point):
                        continue
                    second_ids: Set[Tuple] = set()
                    if LOCK_ACQUIRE_OPS.get(term.func.builtin_op) is not None:
                        if not term.args or term.args[0].place is None:
                            continue
                        second_ids = _global_ids(lock_identity(
                            body, pt, term.args[0].place.local))
                    elif term.func.kind in (FuncKind.USER, FuncKind.CLOSURE):
                        # A call inside the region: every lock the callee's
                        # summary (transitively) acquires is ordered after
                        # the held one.
                        summary = ctx.summary(term.func.user_fn)
                        for lock in summary.locks:
                            second_ids |= _global_ids(
                                caller_lock_ids(body, pt, term, lock))
                    # Sorted, so the graph's node order (and with it the
                    # lock each cycle is found from) does not follow the
                    # set iteration order, which varies with the hash seed.
                    for first in sorted(firsts, key=repr):
                        for second in sorted(second_ids, key=repr):
                            if first == second:
                                continue
                            graph.add_edge(first, second)
                            edge_spans[(first, second)] = (body.key, term.span)

            # Summary-carried orders: acquisition pairs observed inside
            # callees with argument-relative lock identities, translated
            # into this body's frame by the engine.  Only pairs that
            # resolved all the way to global ids enter the graph.
            for (a, b), span in sorted(
                    ctx.summary(body.key).lock_orders.items(),
                    key=lambda item: (str(item[0]), item[1].lo)):
                first, second = a[:3], b[:3]
                if first == second or a[0] != "static" or b[0] != "static":
                    continue
                graph.add_edge(first, second)
                edge_spans.setdefault((first, second), (body.key, span))

        findings: List[Finding] = []
        if not edge_spans:
            # No edge (each one is recorded in ``edge_spans``), no cycle:
            # skip the enumerator's set-up, which a per-file check would
            # otherwise pay on every file.  Not ``graph.number_of_edges()``:
            # it caches a degree view on the graph that points back at it.
            return findings
        seen_cycles = set()
        for cycle in nx.simple_cycles(graph):
            key = frozenset(cycle)
            if key in seen_cycles or len(cycle) < 2:
                continue
            seen_cycles.add(key)
            cycle = _rotate_to_least(cycle)
            first, second = cycle[0], cycle[1]
            fn_key, span = edge_spans.get((first, second),
                                          ("<program>", Span.DUMMY))
            pretty = " -> ".join(self._pretty(lock) for lock in cycle)
            findings.append(Finding(
                detector=self.name, kind="conflicting-lock-order",
                message=(f"locks are acquired in conflicting orders: "
                         f"{pretty} -> {self._pretty(cycle[0])}; two threads "
                         f"interleaving these acquisitions deadlock"),
                fn_key=fn_key, span=span, severity=Severity.WARNING,
                metadata={"cycle": [str(c) for c in cycle]}))
        return findings

    @staticmethod
    def _pretty(lock: Tuple) -> str:
        kind, payload = lock[0], lock[1]
        proj = lock[2] if len(lock) > 2 else ()
        suffix = ("." + ".".join(proj)) if proj else ""
        if kind == "static":
            return f"static `{payload}`{suffix}"
        return f"lock@{payload}{suffix}"
