"""Exporters: the pretty-text phase tree, flattened phase timings and
hot-SCC attribution, shared by ``--profile``, ``minirust stats`` and the
benchmark harness."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.core import Collector, SpanRecord


def _fmt_secs(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def _render_span(span: SpanRecord, lines: List[str], prefix: str,
                 is_last: bool, is_root: bool) -> None:
    if is_root:
        head, child_prefix = "", ""
    else:
        head = prefix + ("└─ " if is_last else "├─ ")
        child_prefix = prefix + ("   " if is_last else "│  ")
    attrs = ""
    if span.attrs:
        attrs = " [" + ", ".join(f"{k}={v}"
                                 for k, v in sorted(span.attrs.items())) + "]"
    self_note = ""
    if span.children and span.duration:
        self_note = f" (self {_fmt_secs(span.self_time)})"
    lines.append(f"{head}{span.name:<24} {_fmt_secs(span.duration)}"
                 f"{self_note}{attrs}")
    for i, child in enumerate(span.children):
        _render_span(child, lines, child_prefix,
                     is_last=(i == len(span.children) - 1), is_root=False)


def hot_sccs(collector: Collector, top: int = 10) -> List[Dict[str, Any]]:
    """Per-unit cost attribution: the ``top`` hottest SCCs by summary-
    solve wall time, aggregated over every ``analysis.scc`` span in the
    collector (main-process and folded-back worker spans alike).

    Each entry carries the component head function, total solve seconds,
    summed fixpoint iterations, component size, and how many times the
    component was solved — the table behind ``minirust stats --top``.
    """
    agg: Dict[str, Dict[str, Any]] = {}
    for span in collector.iter_spans():
        if span.name != "analysis.scc":
            continue
        head = str(span.attrs.get("head", "?"))
        entry = agg.setdefault(head, {
            "fn": head, "wall_s": 0.0, "iterations": 0,
            "functions": int(span.attrs.get("functions", 1)), "solves": 0,
        })
        entry["wall_s"] += span.duration
        entry["iterations"] += int(span.attrs.get("iterations", 0))
        entry["solves"] += 1
    ranked = sorted(agg.values(), key=lambda e: (-e["wall_s"], e["fn"]))
    return ranked[:max(0, top)]


def render_hot_sccs(entries: List[Dict[str, Any]]) -> List[str]:
    if not entries:
        return []
    width = max(max(len(e["fn"]) for e in entries), len("function"))
    lines = [f"{'function':<{width}}  {'solve':>9}  {'iters':>5} "
             f"{'fns':>4}  {'solves':>6}"]
    for e in entries:
        lines.append(f"{e['fn']:<{width}}  {_fmt_secs(e['wall_s']):>9}  "
                     f"{e['iterations']:>5} {e['functions']:>4}  "
                     f"{e['solves']:>6}")
    return lines


def render_text(collector: Collector, top_sccs: int = 5) -> str:
    """Human-readable dump: span tree, hottest SCCs (when the summary
    solve ran), then counters and gauges."""
    lines: List[str] = [f"== trace ({collector.name}) =="]
    if not collector.roots:
        lines.append("(no spans recorded)")
    for root in collector.roots:
        _render_span(root, lines, "", is_last=True, is_root=True)
    hottest = hot_sccs(collector, top=top_sccs)
    if hottest:
        lines.append("== hottest sccs ==")
        lines.extend(render_hot_sccs(hottest))
    if collector.counters:
        lines.append("== counters ==")
        width = max(len(k) for k in collector.counters)
        for key in sorted(collector.counters):
            value = collector.counters[key]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{key:<{width}}  {shown}")
    if collector.gauges:
        lines.append("== gauges ==")
        for key in sorted(collector.gauges):
            lines.append(f"{key}  {collector.gauges[key]}")
    return "\n".join(lines)


def phase_timings(collector: Collector) -> Dict[str, float]:
    """Flatten the span forest into ``{dotted.path: duration_s}``.

    Repeated spans at the same path accumulate, so e.g. per-body analysis
    spans sum into one phase figure — the shape BENCH_obs.json records.
    """
    out: Dict[str, float] = {}

    def visit(span: SpanRecord, path: str) -> None:
        key = f"{path}.{span.name}" if path else span.name
        out[key] = out.get(key, 0.0) + span.duration
        for child in span.children:
            visit(child, key)

    for root in collector.roots:
        visit(root, "")
    return out
