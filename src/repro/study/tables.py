"""Table generators: every table and in-text statistic of the evaluation.

Each ``table*`` function aggregates the reconstructed records and returns
plain data structures (lists of rows), plus a ``render_table`` helper that
prints them the way the paper lays them out.  The benchmark harness under
``benchmarks/`` calls these and prints the same rows the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.study.dataset import (
    ALL_BUGS, BLOCKING_BUGS, INTERIOR_CHECK_COUNTS, INTERIOR_CONDITION_COUNTS,
    MEMORY_BUGS, NONBLOCKING_BUGS, REMOVAL_COMMITS, REMOVALS_TO_INTERIOR,
    TABLE1_METADATA, UNSAFE_REMOVALS, UNSAFE_USAGE_STATS, USAGE_SAMPLE,
    BugRecord,
)
from repro.study.taxonomy import (
    TABLE1_PROJECTS, BlockingCause, BlockingFix, BlockingPrimitive, BugKind,
    DataSharing, DoubleLockShape, FixStrategy, MemoryEffect, NonblockingFix,
    Project, Propagation, SkippedCode, UnsafeOpKind, UnsafePurpose,
    UnsafeRemovalReason,
)


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width text rendering used by the benches and the CLI."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1_studied_software(bugs: Optional[List[BugRecord]] = None) -> List[dict]:
    """Table 1: studied software with metadata and per-kind bug counts."""
    bugs = ALL_BUGS if bugs is None else bugs
    rows = []
    for project in TABLE1_PROJECTS:
        meta = TABLE1_METADATA[project]
        mine = [b for b in bugs if b.project is project]
        rows.append({
            "software": project.value,
            "start": meta["start"],
            "stars": meta["stars"],
            "commits": meta["commits"],
            "loc_k": meta["loc_k"],
            "mem": sum(1 for b in mine if b.kind is BugKind.MEMORY),
            "blk": sum(1 for b in mine if b.kind is BugKind.BLOCKING),
            "nblk": sum(1 for b in mine if b.kind is BugKind.NON_BLOCKING),
        })
    return rows


def table1_totals(bugs: Optional[List[BugRecord]] = None) -> Dict[str, int]:
    bugs = ALL_BUGS if bugs is None else bugs
    return {
        "memory": sum(1 for b in bugs if b.kind is BugKind.MEMORY),
        "blocking": sum(1 for b in bugs if b.kind is BugKind.BLOCKING),
        "non_blocking": sum(1 for b in bugs
                            if b.kind is BugKind.NON_BLOCKING),
        "cve_memory": sum(1 for b in bugs if b.project is Project.CVE),
        "total": len(bugs),
    }


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

TABLE2_EFFECT_ORDER = [MemoryEffect.BUFFER_OVERFLOW, MemoryEffect.NULL_DEREF,
                       MemoryEffect.UNINITIALIZED, MemoryEffect.INVALID_FREE,
                       MemoryEffect.USE_AFTER_FREE, MemoryEffect.DOUBLE_FREE]
TABLE2_ROW_ORDER = [Propagation.SAFE, Propagation.UNSAFE,
                    Propagation.SAFE_TO_UNSAFE, Propagation.UNSAFE_TO_SAFE]


def table2_memory_categories(bugs: Optional[List[BugRecord]] = None) -> List[dict]:
    """Table 2: memory bugs by propagation (rows) × effect (columns);
    each cell is ``(count, count-with-effect-in-interior-unsafe)``."""
    bugs = MEMORY_BUGS if bugs is None else \
        [b for b in bugs if b.kind is BugKind.MEMORY]
    rows = []
    for propagation in TABLE2_ROW_ORDER:
        row = {"category": propagation.value}
        total = 0
        for effect in TABLE2_EFFECT_ORDER:
            cell = [b for b in bugs if b.propagation is propagation
                    and b.effect is effect]
            interior = sum(1 for b in cell if b.effect_in_interior_unsafe)
            row[effect.value] = (len(cell), interior)
            total += len(cell)
        row["total"] = total
        rows.append(row)
    return rows


def table2_effect_totals(bugs: Optional[List[BugRecord]] = None
                         ) -> Dict[str, int]:
    bugs = MEMORY_BUGS if bugs is None else bugs
    return {effect.value: sum(1 for b in bugs if b.effect is effect)
            for effect in TABLE2_EFFECT_ORDER}


# ---------------------------------------------------------------------------
# §5.2 fix strategies
# ---------------------------------------------------------------------------

def section5_fix_strategies(bugs: Optional[List[BugRecord]] = None) -> dict:
    bugs = MEMORY_BUGS if bugs is None else bugs
    out: Dict[str, object] = {}
    for strategy in FixStrategy:
        out[strategy.value] = sum(1 for b in bugs
                                  if b.fix_strategy is strategy)
    out["skip breakdown"] = {
        skipped.value: sum(1 for b in bugs if b.skipped_code is skipped)
        for skipped in (SkippedCode.UNSAFE, SkippedCode.INTERIOR_UNSAFE,
                        SkippedCode.SAFE)
    }
    return out


# ---------------------------------------------------------------------------
# Table 3 and §6.1
# ---------------------------------------------------------------------------

TABLE3_COLUMNS = [BlockingPrimitive.MUTEX_RWLOCK, BlockingPrimitive.CONDVAR,
                  BlockingPrimitive.CHANNEL, BlockingPrimitive.ONCE,
                  BlockingPrimitive.OTHER]


def table3_blocking_sync(bugs: Optional[List[BugRecord]] = None) -> List[dict]:
    """Table 3: blocking bugs by synchronisation primitive per project."""
    bugs = BLOCKING_BUGS if bugs is None else \
        [b for b in bugs if b.kind is BugKind.BLOCKING]
    rows = []
    for project in TABLE1_PROJECTS:
        mine = [b for b in bugs if b.project is project]
        row = {"software": project.value}
        for primitive in TABLE3_COLUMNS:
            row[primitive.value] = sum(1 for b in mine
                                       if b.primitive is primitive)
        row["total"] = len(mine)
        rows.append(row)
    totals = {"software": "Total"}
    for primitive in TABLE3_COLUMNS:
        totals[primitive.value] = sum(1 for b in bugs
                                      if b.primitive is primitive)
    totals["total"] = len(bugs)
    rows.append(totals)
    return rows


def section6_blocking_causes(bugs: Optional[List[BugRecord]] = None) -> dict:
    bugs = BLOCKING_BUGS if bugs is None else bugs
    causes = {cause.value: sum(1 for b in bugs if b.blocking_cause is cause)
              for cause in BlockingCause}
    shapes = {shape.value: sum(1 for b in bugs
                               if b.double_lock_shape is shape)
              for shape in (DoubleLockShape.MATCH_CONDITION,
                            DoubleLockShape.IF_CONDITION,
                            DoubleLockShape.OTHER)}
    return {"causes": {k: v for k, v in causes.items() if v},
            "double_lock_shapes": shapes}


def section6_blocking_fixes(bugs: Optional[List[BugRecord]] = None) -> dict:
    bugs = BLOCKING_BUGS if bugs is None else bugs
    by_fix = {fix.value: sum(1 for b in bugs if b.blocking_fix is fix)
              for fix in BlockingFix}
    by_fix["adjusted synchronisation (total)"] = (
        by_fix[BlockingFix.ADJUST_SYNC.value]
        + by_fix[BlockingFix.GUARD_LIFETIME.value])
    return by_fix


# ---------------------------------------------------------------------------
# Table 4 and §6.2
# ---------------------------------------------------------------------------

TABLE4_COLUMN_ORDER = [DataSharing.GLOBAL, DataSharing.POINTER,
                       DataSharing.SYNC_TRAIT, DataSharing.OS_HARDWARE,
                       DataSharing.ATOMIC, DataSharing.MUTEX,
                       DataSharing.MESSAGE]


def table4_data_sharing(bugs: Optional[List[BugRecord]] = None) -> List[dict]:
    """Table 4: how the buggy code of non-blocking bugs shares data."""
    bugs = NONBLOCKING_BUGS if bugs is None else \
        [b for b in bugs if b.kind is BugKind.NON_BLOCKING]
    rows = []
    for project in TABLE1_PROJECTS:
        mine = [b for b in bugs if b.project is project]
        row = {"software": project.value}
        for sharing in TABLE4_COLUMN_ORDER:
            row[sharing.value] = sum(1 for b in mine if b.sharing is sharing)
        row["total"] = len(mine)
        rows.append(row)
    totals = {"software": "Total"}
    for sharing in TABLE4_COLUMN_ORDER:
        totals[sharing.value] = sum(1 for b in bugs if b.sharing is sharing)
    totals["total"] = len(bugs)
    rows.append(totals)
    return rows


def section6_nonblocking_stats(bugs: Optional[List[BugRecord]] = None) -> dict:
    bugs = NONBLOCKING_BUGS if bugs is None else bugs
    shared = [b for b in bugs if b.sharing is not DataSharing.MESSAGE]
    return {
        "total": len(bugs),
        "message_passing": sum(1 for b in bugs
                               if b.sharing is DataSharing.MESSAGE),
        "shared_memory": len(shared),
        "share_via_unsafe": sum(1 for b in shared
                                if b.sharing.is_unsafe_sharing),
        "share_via_interior_unsafe": sum(1 for b in shared
                                         if b.interior_unsafe_sharing),
        "share_via_safe": sum(1 for b in shared
                              if b.sharing.is_safe_sharing),
        "unsynchronized": sum(1 for b in shared if not b.synchronized),
        "synchronized_but_wrong": sum(1 for b in shared if b.synchronized),
        "in_safe_code": sum(1 for b in bugs if b.in_safe_code),
        "interior_mutability": sum(1 for b in bugs if b.interior_mutability),
        "fixes": {fix.value: sum(1 for b in bugs
                                 if b.nonblocking_fix is fix)
                  for fix in NonblockingFix},
    }


# ---------------------------------------------------------------------------
# §4 statistics
# ---------------------------------------------------------------------------

def section4_unsafe_usage() -> dict:
    """§4 headline numbers plus the 600-usage sample breakdown."""
    stats = dict(UNSAFE_USAGE_STATS)
    ops = {kind.value: sum(1 for u in USAGE_SAMPLE if u.op_kind is kind)
           for kind in UnsafeOpKind}
    purposes = {p.value: sum(1 for u in USAGE_SAMPLE if u.purpose is p)
                for p in UnsafePurpose}
    total = len(USAGE_SAMPLE)
    stats["operations"] = ops
    stats["operations_pct"] = {k: round(100 * v / total)
                               for k, v in ops.items()}
    stats["purposes"] = purposes
    stats["purposes_pct"] = {k: round(100 * v / total)
                             for k, v in purposes.items()}
    stats["no_compile_error"] = sum(1 for u in USAGE_SAMPLE
                                    if u.compiles_without_unsafe)
    return stats


def section4_removals() -> dict:
    """§4.2: the 130 unsafe-removal cases."""
    total = len(UNSAFE_REMOVALS)
    reasons = {r.value: sum(1 for u in UNSAFE_REMOVALS if u.reason is r)
               for r in UnsafeRemovalReason}
    return {
        "total": total,
        "commits": REMOVAL_COMMITS,
        "reasons": reasons,
        "reasons_pct": {k: round(100 * v / total)
                        for k, v in reasons.items()},
        "to_safe": sum(1 for u in UNSAFE_REMOVALS if u.to_safe),
        "to_interior": {t: n for t, n in REMOVALS_TO_INTERIOR},
    }


def section4_interior_unsafe() -> dict:
    """§4.3: the interior-unsafe encapsulation audit."""
    total = UNSAFE_USAGE_STATS["std_interior_sample"]
    conditions = dict(INTERIOR_CONDITION_COUNTS)
    checks = {c.value: n for c, n in INTERIOR_CHECK_COUNTS}
    return {
        "std_sample": total,
        "app_sample": UNSAFE_USAGE_STATS["app_interior_sample"],
        "conditions": conditions,
        "conditions_pct": {k: round(100 * v / total)
                           for k, v in conditions.items()},
        "checks": checks,
        "checks_pct": {k: round(100 * v / total) for k, v in checks.items()},
        "improper": UNSAFE_USAGE_STATS["improper_encapsulations"],
        "improper_std": UNSAFE_USAGE_STATS["improper_std"],
        "improper_apps": UNSAFE_USAGE_STATS["improper_apps"],
    }
