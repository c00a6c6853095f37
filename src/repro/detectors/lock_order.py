"""Conflicting-lock-order (ABBA deadlock) detector.

The paper attributes seven of its blocking bugs to "acquiring locks in
conflicting orders" (§6.1).  The lock-order graph is a query over pairs
the summary engine already solved: an edge ``L1 → L2`` is a
``FunctionSummary.lock_orders`` pair — ``L2`` acquired inside the guard
region of ``L1``, directly or through a callee, with argument-relative
ids translated into each caller's frame — whose two ids are both
program-wide (statics, heap allocation sites).  A cycle is a potential
ABBA deadlock.  Cycles come from the lock graph's bounded enumerator
(:func:`repro.analysis.lockgraph.elementary_circuits`), under the same
bound as the deadlock detector
(:data:`repro.analysis.lockgraph.DEFAULT_CYCLE_BOUND`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.lockgraph import (
    DEFAULT_CYCLE_BOUND, elementary_circuits, pretty_lock,
)
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.lang.source import Span

_GLOBAL_KINDS = ("static", "heap")


def _rotate_to_least(cycle: Tuple) -> List[Tuple]:
    """The same circuit, started at its least lock by ``repr``.  Not the
    enumerator's least-by-tuple start: the two differ when projections
    differ (``()`` sorts before ``('f',)``, but its ``repr`` after)."""
    start = min(range(len(cycle)), key=lambda i: repr(cycle[i]))
    return list(cycle[start:] + cycle[:start])


class LockOrderDetector(Detector):
    name = "lock-order"
    description = ("Cycles in the lock-acquisition-order graph "
                   "(potential ABBA deadlocks between threads)")
    paper_section = "6.1"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        # Edge → (function, span) of the first pair seen for it.
        edge_spans: Dict[Tuple, Tuple[str, Span]] = {}
        for body in ctx.program.bodies():
            for (a, b), span in sorted(
                    ctx.summary(body.key).lock_orders.items(),
                    key=lambda item: (str(item[0]), item[1].lo)):
                if a[0] in _GLOBAL_KINDS and b[0] in _GLOBAL_KINDS:
                    edge_spans.setdefault((a[:3], b[:3]), (body.key, span))

        findings: List[Finding] = []
        seen_cycles = set()
        for cycle in elementary_circuits(edge_spans, DEFAULT_CYCLE_BOUND):
            key = frozenset(cycle)
            if key in seen_cycles:
                continue
            seen_cycles.add(key)
            cycle = _rotate_to_least(cycle)
            fn_key, span = edge_spans[(cycle[0], cycle[1])]
            pretty = " -> ".join(pretty_lock(lock) for lock in cycle)
            findings.append(Finding(
                detector=self.name, kind="conflicting-lock-order",
                message=(f"locks are acquired in conflicting orders: "
                         f"{pretty} -> {pretty_lock(cycle[0])}; two threads "
                         f"interleaving these acquisitions deadlock"),
                fn_key=fn_key, span=span, severity=Severity.WARNING,
                metadata={"cycle": [str(c) for c in cycle]}))
        return findings
