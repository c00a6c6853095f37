"""Folded-stack flamegraph export from the collector's span tree.

One line per distinct span path, ``root;child;leaf <self-µs>`` — the
input format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
folded importer.  Weights are *self* time (duration minus children), so
the flamegraph's widths add up instead of double-counting nested spans;
identical paths recorded repeatedly (e.g. one ``analysis.scc`` span per
component under one wave) aggregate into a single line.

Spans folded back from worker processes are prefixed with their process
lane (``worker-<pid>``) so a parallel batch shows each worker's stack
as its own tower next to the main process.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.obs.core import Collector, SpanRecord


def _frame(name: str) -> str:
    # The folded format is whitespace/semicolon-delimited; sanitise.
    return name.replace(";", ":").replace(" ", "_")


def folded_stacks(collector: Collector) -> List[str]:
    """The folded-stack lines for every span in the collector."""
    weights: Dict[str, int] = {}
    main_pid = os.getpid()

    def visit(span: SpanRecord, prefix: str, parent_pid: int) -> None:
        frame = _frame(span.name)
        if span.pid and span.pid != parent_pid and span.pid != main_pid:
            # Crossing into an adopted worker subtree: open its lane.
            frame = f"worker-{span.pid};{frame}"
        stack = f"{prefix};{frame}" if prefix else frame
        weight = int(round(span.self_time * 1e6))
        weights[stack] = weights.get(stack, 0) + max(0, weight)
        for child in span.children:
            visit(child, stack, span.pid)

    for root in collector.roots:
        visit(root, "", main_pid)
    return [f"{stack} {weight}" for stack, weight in weights.items()]


def write_folded(collector: Collector, path: str) -> List[str]:
    """Write the folded stacks to ``path`` and return the lines."""
    lines = folded_stacks(collector)
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")
    return lines
