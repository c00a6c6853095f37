"""Benchmark-regression observatory: diff two ``BENCH_*.json`` artifacts.

Every benchmark in this repo writes a JSON artifact (``BENCH_obs.json``,
``BENCH_parallel.json``, …) whose numeric leaves are the floors the perf
PRs optimise against.  This module compares two such artifacts — or two
directories of them — metric by metric:

* payloads are flattened to ``dotted.path → number`` leaves;
* each key is classified by direction rules (regexes): *lower-is-better*
  (wall seconds, bytes, recompute counts), *higher-is-better* (speedups,
  ratios, recall), or neutral (informational counters — never flagged);
* a directed relative change beyond the threshold is a **regression**;
  the opposite direction beyond the threshold is an improvement;
* a ``*_fraction`` key is judged by its absolute change against
  :data:`FRACTION_BAR` instead.

``minirust bench-diff OLD NEW`` prints the table and exits 1 on any
regression (0 with ``--warn`` — the CI mode, where host noise makes hard
gating on timings dishonest but the table in the log is the point).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: A 10% directed change is the default significance bar — small enough
#: to flag a real 20% regression loudly, large enough to ride over
#: per-run jitter in the sub-millisecond phases.
DEFAULT_THRESHOLD = 0.10

#: The contract metrics ``bench-diff --warn`` still *enforces* (exit 1):
#: wall ratios (engine-vs-naive-schedule in BENCH_summaries, unwind
#: on/off in BENCH_cve) and the warm-over-cold audit speedup
#: (BENCH_unsafe).  These are ratios of numbers measured in the same run
#: on the same host, so host noise largely cancels — hard gating on them
#: is honest where gating on raw seconds is not.
DEFAULT_ENFORCE = r"wall_ratio|warm_speedup"

#: Ordered ``(regex, direction, threshold-override)`` rules; the first
#: match classifies the metric.  ``None`` threshold means "use the
#: caller's".  Patterns are matched with ``re.search`` against the full
#: dotted key, case-insensitively.
DEFAULT_RULES: Tuple[Tuple[str, str, Optional[float]], ...] = (
    (r"(^|\.)phases\.", "lower", None),          # BENCH_obs phase seconds
    # wall_ratio is engine-wall / baseline-wall: smaller is faster,
    # despite the "ratio" suffix that the generic rule reads as a
    # speedup-style higher-is-better metric.  Its ambient spread on a
    # shared 1-CPU host exceeds the default 10% delta threshold, and
    # the producing benchmarks already enforce an absolute ceiling
    # (their ``max_wall_ratio``), so cross-run drift only matters when
    # it is gross — hence the loose override.
    (r"wall_ratio", "lower", 0.5),
    (r"(speedup|ratio|recall|throughput|hit)", "higher", None),
    (r"(seconds|wall|_s$|bytes|overhead|fraction|computes|iterations"
     r"|pickle|deserialize|evict|corrupt|stale|rss)", "lower", None),
)

#: A fraction (a ``*_fraction`` key) is judged by its absolute change
#: against this bar, not by a relative one: near 0 a relative change is
#: noise (0.0002 -> 0.003 reads as +1,400%) and a sign flip reads as
#: more than 100%.
FRACTION_BAR = 0.05

#: Identity fields, not metrics: span ids, parent links, and pid/tid
#: lane tags inside an exported span tree differ between any two runs by
#: construction.  They are dropped before comparison — neither compared
#: nor reported as one-sided keys.
IGNORE_PATTERN = r"\.(id|parent|pid|tid)$"


def flatten(payload: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a JSON payload as ``{dotted.path: value}``.

    Booleans are not numbers here; list elements key by index.
    """
    out: Dict[str, float] = {}
    if isinstance(payload, bool):
        return out
    if isinstance(payload, (int, float)):
        out[prefix or "value"] = float(payload)
        return out
    if isinstance(payload, dict):
        for key in payload:
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(payload[key], sub))
        return out
    if isinstance(payload, list):
        for i, item in enumerate(payload):
            sub = f"{prefix}.{i}" if prefix else str(i)
            out.update(flatten(item, sub))
        return out
    return out


def _is_fraction(key: str) -> bool:
    return key.endswith("_fraction")


def classify(key: str, rules=DEFAULT_RULES) -> Tuple[str, Optional[float]]:
    """``(direction, threshold-override)`` for a metric key; direction is
    ``"lower"`` / ``"higher"`` / ``"neutral"``."""
    for pattern, direction, threshold in rules:
        if re.search(pattern, key, re.IGNORECASE):
            return direction, threshold
    return "neutral", None


@dataclass
class MetricDelta:
    """One compared metric: old vs new and the verdict."""

    file: str
    key: str
    old: float
    new: float
    rel: float                  # (new - old) / |old|; inf when old == 0
    direction: str              # lower | higher | neutral
    status: str                 # ok | regression | improvement | neutral

    def to_dict(self) -> Dict[str, object]:
        return {"file": self.file, "key": self.key, "old": self.old,
                "new": self.new, "rel": self.rel,
                "direction": self.direction, "status": self.status}


@dataclass
class BenchDiffReport:
    """The full comparison: every compared metric plus bookkeeping notes
    (files or keys present on only one side)."""

    deltas: List[MetricDelta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "compared": len(self.deltas),
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"bench-diff: {len(self.deltas)} metrics compared "
                 f"(threshold {self.threshold:.0%})"]
        for note in self.notes:
            lines.append(f"  note: {note}")

        def rows(deltas: List[MetricDelta], label: str) -> None:
            if not deltas:
                return
            lines.append(f"-- {label} ({len(deltas)}) --")
            width = max(len(f"{d.file}:{d.key}") for d in deltas)
            for d in sorted(deltas, key=lambda d: -abs(d.rel)):
                rel = "new" if d.rel == float("inf") else f"{d.rel:+.1%}"
                if _is_fraction(d.key):
                    rel = f"{d.new - d.old:+.4f} absolute"
                lines.append(
                    f"  {d.file + ':' + d.key:<{width}}  "
                    f"{d.old:.6g} -> {d.new:.6g}  ({rel}, "
                    f"{d.direction}-is-better)")

        rows(self.regressions, "regressions")
        rows(self.improvements, "improvements")
        if not self.regressions and not self.improvements:
            lines.append("no metric moved beyond the threshold")
        return "\n".join(lines)


def diff_payloads(old: object, new: object, *,
                  threshold: float = DEFAULT_THRESHOLD,
                  rules=DEFAULT_RULES, file: str = "",
                  report: Optional[BenchDiffReport] = None
                  ) -> BenchDiffReport:
    """Compare two artifact payloads (parsed JSON) metric by metric."""
    if report is None:
        report = BenchDiffReport(threshold=threshold)
    old_flat = {k: v for k, v in flatten(old).items()
                if not re.search(IGNORE_PATTERN, k)}
    new_flat = {k: v for k, v in flatten(new).items()
                if not re.search(IGNORE_PATTERN, k)}
    for key in sorted(set(old_flat) - set(new_flat)):
        report.notes.append(f"{file}:{key} only in OLD")
    for key in sorted(set(new_flat) - set(old_flat)):
        report.notes.append(f"{file}:{key} only in NEW")
    for key in sorted(set(old_flat) & set(new_flat)):
        a, b = old_flat[key], new_flat[key]
        direction, override = classify(key, rules)
        bar = threshold if override is None else override
        if a == 0.0:
            rel = 0.0 if b == 0.0 else float("inf")
        else:
            rel = (b - a) / abs(a)
        moved = rel
        if _is_fraction(key):
            moved, bar = b - a, FRACTION_BAR
        status = "ok"
        if direction == "neutral":
            status = "neutral"
        elif direction == "lower":
            if moved > bar:
                status = "regression"
            elif moved < -bar:
                status = "improvement"
        elif direction == "higher":
            if moved < -bar:
                status = "regression"
            elif moved > bar and moved != float("inf"):
                status = "improvement"
        report.deltas.append(MetricDelta(
            file=file, key=key, old=a, new=b, rel=rel,
            direction=direction, status=status))
    return report


def _load(path: str) -> object:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _artifact_names(root: str) -> List[str]:
    return sorted(name for name in os.listdir(root)
                  if re.fullmatch(r"BENCH_\w+\.json", name))


def bench_diff(old_path: str, new_path: str, *,
               threshold: float = DEFAULT_THRESHOLD,
               rules=DEFAULT_RULES) -> BenchDiffReport:
    """Compare two artifact files, or two directories of ``BENCH_*.json``
    artifacts matched by file name."""
    report = BenchDiffReport(threshold=threshold)
    if os.path.isdir(old_path) and os.path.isdir(new_path):
        old_names = _artifact_names(old_path)
        new_names = set(_artifact_names(new_path))
        for name in old_names:
            if name not in new_names:
                report.notes.append(f"{name} only in OLD dir")
                continue
            diff_payloads(_load(os.path.join(old_path, name)),
                          _load(os.path.join(new_path, name)),
                          threshold=threshold, rules=rules, file=name,
                          report=report)
        for name in sorted(new_names - set(old_names)):
            report.notes.append(f"{name} only in NEW dir")
        return report
    diff_payloads(_load(old_path), _load(new_path), threshold=threshold,
                  rules=rules, file=os.path.basename(new_path),
                  report=report)
    return report
