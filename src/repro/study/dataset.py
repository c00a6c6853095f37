"""The paper's labelled datasets, reconstructed from published marginals.

Every aggregate number the paper reports (Tables 1-4, the §4/§5/§6
statistics) is reproduced *exactly* by aggregating these records.  Joint
distributions the paper does not publish — e.g. which project a particular
Table 2 cell's bug came from — are filled in by a deterministic
round-robin that respects all published marginals; EXPERIMENTS.md lists
each such reconstruction.

Two known internal inconsistencies of the paper are preserved faithfully
and documented rather than silently "fixed":

* Table 1's per-project bug counts sum to 49 memory / 59 blocking / 40
  non-blocking, while the text reports 70 / 59 / 41 (the extra memory
  bugs come from CVE/RustSec; we attribute 21 records to ``Project.CVE``
  so the 70 total holds, and note the text's "22" claim).
* Table 4's ``libraries`` row sums to 11 non-blocking bugs where Table 1
  prints 10.  Our records follow Table 4 (whose row and column totals are
  self-consistent and give the text's 41).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.study.taxonomy import (
    TABLE1_PROJECTS, BlockingCause, BlockingFix, BlockingPrimitive, BugKind,
    DataSharing, DoubleLockShape, FixStrategy, InteriorUnsafeCheck,
    MemoryEffect, NonblockingFix, NonblockingIssue, Project, Propagation,
    SkippedCode, UnsafeOpKind, UnsafePurpose, UnsafeRemovalReason,
)


@dataclass
class BugRecord:
    """One studied bug with every label the paper's analysis uses."""

    bug_id: str
    project: Project
    kind: BugKind
    fix_date: datetime.date
    source: str = "github"
    # Memory-bug labels (Table 2, §5).
    effect: Optional[MemoryEffect] = None
    propagation: Optional[Propagation] = None
    effect_in_interior_unsafe: bool = False
    fix_strategy: Optional[FixStrategy] = None
    skipped_code: SkippedCode = SkippedCode.NOT_APPLICABLE
    # Blocking labels (Table 3, §6.1).
    primitive: Optional[BlockingPrimitive] = None
    blocking_cause: Optional[BlockingCause] = None
    double_lock_shape: DoubleLockShape = DoubleLockShape.NOT_APPLICABLE
    blocking_fix: Optional[BlockingFix] = None
    # Non-blocking labels (Table 4, §6.2).
    sharing: Optional[DataSharing] = None
    issue: Optional[NonblockingIssue] = None
    in_safe_code: bool = False
    synchronized: bool = False
    interior_unsafe_sharing: bool = False
    interior_mutability: bool = False
    nonblocking_fix: Optional[NonblockingFix] = None


# ---------------------------------------------------------------------------
# Published marginals
# ---------------------------------------------------------------------------

#: Table 1 metadata: start time, GitHub stars, commits, LOC (thousands).
TABLE1_METADATA: Dict[Project, Dict[str, object]] = {
    Project.SERVO: {"start": "2012/02", "stars": 14574, "commits": 38096,
                    "loc_k": 271},
    Project.TOCK: {"start": "2015/05", "stars": 1343, "commits": 4621,
                   "loc_k": 60},
    Project.ETHEREUM: {"start": "2015/11", "stars": 5565, "commits": 12121,
                       "loc_k": 145},
    Project.TIKV: {"start": "2016/01", "stars": 5717, "commits": 3897,
                   "loc_k": 149},
    Project.REDOX: {"start": "2016/08", "stars": 11450, "commits": 2129,
                    "loc_k": 199},
    Project.LIBRARIES: {"start": "2010/07", "stars": 3106, "commits": 2402,
                        "loc_k": 25},
}

#: Table 1 per-project bug counts (Mem, Blk, NBlk) — NBlk follows Table 4
#: for the libraries row (11, not the 10 Table 1 prints; see module doc).
TABLE1_BUG_COUNTS: Dict[Project, Tuple[int, int, int]] = {
    Project.SERVO: (14, 13, 18),
    Project.TOCK: (5, 0, 2),
    Project.ETHEREUM: (2, 34, 4),
    Project.TIKV: (1, 4, 3),
    Project.REDOX: (20, 2, 3),
    Project.LIBRARIES: (7, 6, 11),
}
#: The value Table 1 actually prints for libraries' non-blocking bugs.
TABLE1_PUBLISHED_LIBRARIES_NONBLOCKING = 10

#: Memory bugs attributed to the CVE/RustSec databases so that the total
#: reaches the text's 70 (the text says "22 bugs collected from the two
#: CVE databases"; one of those overlaps a project row).
CVE_MEMORY_BUGS = 70 - sum(m for m, _b, _n in TABLE1_BUG_COUNTS.values())

#: Table 2 cells: propagation → [(effect, count, count-in-interior-unsafe)].
TABLE2_CELLS: Dict[Propagation, List[Tuple[MemoryEffect, int, int]]] = {
    Propagation.SAFE: [
        (MemoryEffect.USE_AFTER_FREE, 1, 0),
    ],
    Propagation.UNSAFE: [
        (MemoryEffect.BUFFER_OVERFLOW, 4, 1),
        (MemoryEffect.NULL_DEREF, 12, 4),
        (MemoryEffect.INVALID_FREE, 5, 3),
        (MemoryEffect.USE_AFTER_FREE, 2, 2),
    ],
    Propagation.SAFE_TO_UNSAFE: [
        (MemoryEffect.BUFFER_OVERFLOW, 17, 10),
        (MemoryEffect.INVALID_FREE, 1, 0),
        (MemoryEffect.USE_AFTER_FREE, 11, 4),
        (MemoryEffect.DOUBLE_FREE, 2, 2),
    ],
    Propagation.UNSAFE_TO_SAFE: [
        (MemoryEffect.UNINITIALIZED, 7, 0),
        (MemoryEffect.INVALID_FREE, 4, 0),
        (MemoryEffect.DOUBLE_FREE, 4, 0),
    ],
}

#: §5.2 fix strategies: (strategy, count) plus the skip breakdown.
FIX_STRATEGY_COUNTS = [
    (FixStrategy.CONDITIONALLY_SKIP, 30),
    (FixStrategy.ADJUST_LIFETIME, 22),
    (FixStrategy.CHANGE_UNSAFE_OPERANDS, 9),
    (FixStrategy.OTHER, 9),
]
SKIP_BREAKDOWN = [(SkippedCode.UNSAFE, 25), (SkippedCode.INTERIOR_UNSAFE, 4),
                  (SkippedCode.SAFE, 1)]

#: Table 3: project → (Mutex&Rwlock, Condvar, Channel, Once, Other).
TABLE3_ROWS: Dict[Project, Tuple[int, int, int, int, int]] = {
    Project.SERVO: (6, 0, 5, 0, 2),
    Project.TOCK: (0, 0, 0, 0, 0),
    Project.ETHEREUM: (27, 6, 0, 0, 1),
    Project.TIKV: (3, 1, 0, 0, 0),
    Project.REDOX: (2, 0, 0, 0, 0),
    Project.LIBRARIES: (0, 3, 1, 1, 1),
}

#: §6.1 cause breakdown per primitive.
BLOCKING_CAUSES: Dict[BlockingPrimitive, List[Tuple[BlockingCause, int]]] = {
    BlockingPrimitive.MUTEX_RWLOCK: [
        (BlockingCause.DOUBLE_LOCK, 30),
        (BlockingCause.CONFLICTING_ORDER, 7),
        (BlockingCause.FORGOT_UNLOCK, 1),
    ],
    BlockingPrimitive.CONDVAR: [
        (BlockingCause.WAIT_NO_NOTIFY, 8),
        (BlockingCause.WAIT_MUTUAL, 2),
    ],
    BlockingPrimitive.CHANNEL: [
        (BlockingCause.RECV_NO_SENDER, 1),
        (BlockingCause.CHANNEL_MUTUAL, 3),
        (BlockingCause.RECV_HOLDING_LOCK, 1),
        (BlockingCause.SEND_FULL_CHANNEL, 1),
    ],
    BlockingPrimitive.ONCE: [
        (BlockingCause.ONCE_RECURSION, 1),
    ],
    BlockingPrimitive.OTHER: [
        (BlockingCause.BLOCKING_SYSCALL, 1),
        (BlockingCause.BUSY_LOOP, 2),
        (BlockingCause.JOIN, 1),
    ],
}

#: §6.1: of the 30 double locks, where the first lock sat.
DOUBLE_LOCK_SHAPES = [(DoubleLockShape.MATCH_CONDITION, 6),
                      (DoubleLockShape.IF_CONDITION, 5),
                      (DoubleLockShape.OTHER, 19)]

#: §6.1 fixes: 51 of 59 adjusted synchronisation; 21 of those adjusted the
#: lifetime of the lock() return value; 8 were fixed otherwise.
BLOCKING_FIX_COUNTS = [(BlockingFix.GUARD_LIFETIME, 21),
                       (BlockingFix.ADJUST_SYNC, 30),
                       (BlockingFix.OTHER, 8)]

#: Table 4: project → (Global, Pointer, Sync, O.H., Atomic, Mutex, MSG).
TABLE4_ROWS: Dict[Project, Tuple[int, ...]] = {
    Project.SERVO: (1, 7, 1, 0, 0, 7, 2),
    Project.TOCK: (0, 0, 0, 2, 0, 0, 0),
    Project.ETHEREUM: (0, 0, 0, 0, 1, 2, 1),
    Project.TIKV: (0, 0, 0, 1, 1, 1, 0),
    Project.REDOX: (1, 0, 0, 2, 0, 0, 0),
    Project.LIBRARIES: (1, 5, 2, 0, 3, 0, 0),
}
TABLE4_COLUMNS = [DataSharing.GLOBAL, DataSharing.POINTER,
                  DataSharing.SYNC_TRAIT, DataSharing.OS_HARDWARE,
                  DataSharing.ATOMIC, DataSharing.MUTEX, DataSharing.MESSAGE]

#: §6.2: of the 23 unsafe-sharing bugs, 19 share via interior-unsafe fns.
INTERIOR_UNSAFE_SHARING = 19
#: §6.2: 17 of the 38 shared-memory bugs have no synchronisation at all.
UNSYNCHRONIZED_COUNT = 17
#: §6.2: 25 of the 41 non-blocking bugs happen in safe code.
IN_SAFE_CODE_COUNT = 25
#: §6.2: 13 bugs involve interior mutability (Figure 9 plus 12 more).
INTERIOR_MUTABILITY_COUNT = 13

#: §6.2 fixes (the three message-passing bugs are not in this breakdown).
NONBLOCKING_FIX_COUNTS = [(NonblockingFix.ENFORCE_ATOMICITY, 20),
                          (NonblockingFix.ENFORCE_ORDER, 10),
                          (NonblockingFix.AVOID_SHARING, 5),
                          (NonblockingFix.LOCAL_COPY, 1),
                          (NonblockingFix.APP_LOGIC, 2)]

#: §3: 145 of the 170 studied bugs were fixed after the start of 2016.
FIXED_AFTER_2016 = 145


# ---------------------------------------------------------------------------
# §4 unsafe-usage statistics (published constants)
# ---------------------------------------------------------------------------

UNSAFE_USAGE_STATS = {
    "apps_total": 4990,
    "apps_blocks": 3665,
    "apps_fns": 1302,
    "apps_traits": 23,
    "std_blocks": 1581,
    "std_fns": 861,
    "std_traits": 12,
    "sample_size": 600,
    "sample_interior": 400,
    "sample_fns": 200,
    "std_interior_sample": 250,
    "app_interior_sample": 400,
    "no_compile_error_removals": 32,
    "no_compile_error_consistency": 21,
    "std_unsafe_constructors": 50,
    "improper_encapsulations": 19,
    "improper_std": 5,
    "improper_apps": 14,
}

#: §4.1: the 600 sampled usages — operation kinds (66% / 29% / 5%).
USAGE_OP_COUNTS = [(UnsafeOpKind.MEMORY_OPERATION, 396),
                   (UnsafeOpKind.UNSAFE_CALL, 174),
                   (UnsafeOpKind.OTHER, 30)]
#: §4.1: purposes (42% / 22% / 14% / 22%).
USAGE_PURPOSE_COUNTS = [(UnsafePurpose.CODE_REUSE, 252),
                        (UnsafePurpose.PERFORMANCE, 132),
                        (UnsafePurpose.THREAD_SHARING, 84),
                        (UnsafePurpose.OTHER_BYPASS, 132)]

#: §4.3: the 250 sampled std interior-unsafe functions.
INTERIOR_CONDITION_COUNTS = [("valid memory / valid UTF-8", 172),
                             ("lifetime or ownership", 38),
                             ("other", 40)]
INTERIOR_CHECK_COUNTS = [(InteriorUnsafeCheck.INPUT_ENVIRONMENT, 145),
                         (InteriorUnsafeCheck.EXPLICIT_CHECK, 105)]

#: §4.2: the 130 unsafe removals (from 108 commits).
REMOVAL_REASON_COUNTS = [(UnsafeRemovalReason.MEMORY_SAFETY, 79),
                         (UnsafeRemovalReason.CODE_STRUCTURE, 31),
                         (UnsafeRemovalReason.THREAD_SAFETY, 13),
                         (UnsafeRemovalReason.BUG_FIX, 4),
                         (UnsafeRemovalReason.UNNECESSARY, 3)]
REMOVAL_COMMITS = 108
REMOVALS_TO_SAFE = 43
REMOVALS_TO_INTERIOR = [("std interior-unsafe function", 48),
                        ("self-implemented interior-unsafe function", 29),
                        ("third-party interior-unsafe function", 10)]


# ---------------------------------------------------------------------------
# Record reconstruction
# ---------------------------------------------------------------------------

def _quarters(start_year: int, start_q: int, end_year: int,
              end_q: int) -> List[Tuple[int, int]]:
    out = []
    year, quarter = start_year, start_q
    while (year, quarter) <= (end_year, end_q):
        out.append((year, quarter))
        quarter += 1
        if quarter == 5:
            year, quarter = year + 1, 1
    return out


#: Per-project windows for synthesised fix dates.  Pre-2016 bugs (25 of
#: 170) are placed in Servo and the libraries, whose histories predate
#: Rust 1.6; everything else lands 2016-2019 (the paper's Figure 2 shape).
_PRE_2016_QUOTA = {Project.SERVO: 18, Project.LIBRARIES: 7}
_DATE_WINDOWS = {
    Project.SERVO: _quarters(2013, 1, 2019, 3),
    Project.TOCK: _quarters(2016, 1, 2019, 3),
    Project.ETHEREUM: _quarters(2016, 1, 2019, 3),
    Project.TIKV: _quarters(2016, 2, 2019, 3),
    Project.REDOX: _quarters(2016, 3, 2019, 3),
    Project.LIBRARIES: _quarters(2013, 1, 2019, 3),
    Project.CVE: _quarters(2016, 1, 2019, 3),
}


class _DateAssigner:
    """Deterministically spreads fix dates over each project's window,
    honouring the pre-2016 quotas."""

    def __init__(self) -> None:
        self.counters: Dict[Project, int] = {}
        self.pre_2016_left = dict(_PRE_2016_QUOTA)

    def next_date(self, project: Project) -> datetime.date:
        window = _DATE_WINDOWS[project]
        index = self.counters.get(project, 0)
        self.counters[project] = index + 1
        pre = [q for q in window if q[0] < 2016]
        post = [q for q in window if q[0] >= 2016]
        left = self.pre_2016_left.get(project, 0)
        if left > 0 and pre:
            self.pre_2016_left[project] = left - 1
            year, quarter = pre[index % len(pre)]
        else:
            year, quarter = post[index % len(post)]
        month = (quarter - 1) * 3 + 1 + (index % 3)
        day = 1 + (index * 7) % 28
        return datetime.date(year, min(month, 12), day)


def _round_robin(quotas: Dict[Project, int]) -> List[Project]:
    """Interleave projects according to their quotas, deterministically."""
    remaining = {p: n for p, n in quotas.items() if n > 0}
    order: List[Project] = []
    while remaining:
        for project in list(remaining):
            order.append(project)
            remaining[project] -= 1
            if remaining[project] == 0:
                del remaining[project]
    return order


def _build_memory_bugs(dates: _DateAssigner) -> List[BugRecord]:
    records: List[BugRecord] = []
    # Flatten Table 2 into bug slots.
    slots: List[Tuple[Propagation, MemoryEffect, bool]] = []
    for propagation, cells in TABLE2_CELLS.items():
        for effect, count, interior in cells:
            for i in range(count):
                slots.append((propagation, effect, i < interior))

    # Project attribution: Table 1 quotas + CVE remainder.
    quotas = {p: TABLE1_BUG_COUNTS[p][0] for p in TABLE1_PROJECTS}
    quotas[Project.CVE] = CVE_MEMORY_BUGS
    projects = _round_robin(quotas)
    assert len(projects) == len(slots) == 70

    # Fix strategies: prefer lifetime fixes for lifetime bugs (the paper's
    # Figures 6/7 are fixed that way), then fill the published counts.
    strategy_pool: Dict[FixStrategy, int] = dict(FIX_STRATEGY_COUNTS)
    skip_pool: Dict[SkippedCode, int] = dict(SKIP_BREAKDOWN)
    lifetime_effects = {MemoryEffect.USE_AFTER_FREE,
                        MemoryEffect.DOUBLE_FREE, MemoryEffect.INVALID_FREE}

    def pick_strategy(effect: MemoryEffect) -> FixStrategy:
        if effect in lifetime_effects and \
                strategy_pool.get(FixStrategy.ADJUST_LIFETIME, 0) > 0:
            strategy_pool[FixStrategy.ADJUST_LIFETIME] -= 1
            return FixStrategy.ADJUST_LIFETIME
        for strategy in (FixStrategy.CONDITIONALLY_SKIP,
                         FixStrategy.CHANGE_UNSAFE_OPERANDS,
                         FixStrategy.OTHER, FixStrategy.ADJUST_LIFETIME):
            if strategy_pool.get(strategy, 0) > 0:
                strategy_pool[strategy] -= 1
                return strategy
        return FixStrategy.OTHER

    for index, ((propagation, effect, interior), project) in enumerate(
            zip(slots, projects)):
        strategy = pick_strategy(effect)
        skipped = SkippedCode.NOT_APPLICABLE
        if strategy is FixStrategy.CONDITIONALLY_SKIP:
            for code, left in skip_pool.items():
                if left > 0:
                    skip_pool[code] -= 1
                    skipped = code
                    break
        records.append(BugRecord(
            bug_id=f"mem-{index:03d}",
            project=project,
            kind=BugKind.MEMORY,
            fix_date=dates.next_date(project),
            source="cve" if project is Project.CVE else "github",
            effect=effect,
            propagation=propagation,
            effect_in_interior_unsafe=interior,
            fix_strategy=strategy,
            skipped_code=skipped,
        ))
    return records


def _build_blocking_bugs(dates: _DateAssigner) -> List[BugRecord]:
    records: List[BugRecord] = []
    # Per-primitive cause pools.
    cause_pools = {prim: [c for c, n in causes for _ in range(n)]
                   for prim, causes in BLOCKING_CAUSES.items()}
    shape_pool = [s for s, n in DOUBLE_LOCK_SHAPES for _ in range(n)]
    fix_pool = [f for f, n in BLOCKING_FIX_COUNTS for _ in range(n)]
    primitives = [BlockingPrimitive.MUTEX_RWLOCK, BlockingPrimitive.CONDVAR,
                  BlockingPrimitive.CHANNEL, BlockingPrimitive.ONCE,
                  BlockingPrimitive.OTHER]

    index = 0
    for project in TABLE1_PROJECTS:
        row = TABLE3_ROWS[project]
        for primitive, count in zip(primitives, row):
            for _ in range(count):
                cause = cause_pools[primitive].pop(0)
                shape = DoubleLockShape.NOT_APPLICABLE
                if cause is BlockingCause.DOUBLE_LOCK:
                    shape = shape_pool.pop(0)
                # Guard-lifetime fixes apply to double locks first.
                if cause is BlockingCause.DOUBLE_LOCK and \
                        BlockingFix.GUARD_LIFETIME in fix_pool:
                    fix_pool.remove(BlockingFix.GUARD_LIFETIME)
                    fix = BlockingFix.GUARD_LIFETIME
                elif BlockingFix.ADJUST_SYNC in fix_pool:
                    fix_pool.remove(BlockingFix.ADJUST_SYNC)
                    fix = BlockingFix.ADJUST_SYNC
                else:
                    fix_pool.remove(BlockingFix.OTHER)
                    fix = BlockingFix.OTHER
                records.append(BugRecord(
                    bug_id=f"blk-{index:03d}",
                    project=project,
                    kind=BugKind.BLOCKING,
                    fix_date=dates.next_date(project),
                    primitive=primitive,
                    blocking_cause=cause,
                    double_lock_shape=shape,
                    blocking_fix=fix,
                ))
                index += 1
    assert index == 59
    return records


def _build_nonblocking_bugs(dates: _DateAssigner) -> List[BugRecord]:
    records: List[BugRecord] = []
    interior_sharing_left = INTERIOR_UNSAFE_SHARING
    unsynchronized_left = UNSYNCHRONIZED_COUNT
    safe_code_left = IN_SAFE_CODE_COUNT
    interior_mut_left = INTERIOR_MUTABILITY_COUNT
    fix_pool = [f for f, n in NONBLOCKING_FIX_COUNTS for _ in range(n)]

    index = 0
    for project in TABLE1_PROJECTS:
        row = TABLE4_ROWS[project]
        for sharing, count in zip(TABLE4_COLUMNS, row):
            for _ in range(count):
                is_msg = sharing is DataSharing.MESSAGE
                interior_sharing = False
                if sharing.is_unsafe_sharing and interior_sharing_left > 0:
                    interior_sharing = True
                    interior_sharing_left -= 1
                # Unsynchronised bugs share via unsafe code (§6.2: "the
                # memory is shared using unsafe code" for all 17).
                synchronized = True
                if sharing.is_unsafe_sharing and unsynchronized_left > 0:
                    synchronized = False
                    unsynchronized_left -= 1
                # 25 of 41 manifest in safe code; safe-sharing and message
                # bugs are in safe code by construction, then unsafe-shared
                # ones fill the remainder.
                in_safe = False
                if (sharing.is_safe_sharing or is_msg) and safe_code_left > 0:
                    in_safe = True
                    safe_code_left -= 1
                interior_mut = False
                if sharing in (DataSharing.ATOMIC, DataSharing.MUTEX,
                               DataSharing.SYNC_TRAIT, DataSharing.POINTER) \
                        and interior_mut_left > 0:
                    interior_mut = True
                    interior_mut_left -= 1
                if is_msg:
                    fix = None
                    issue = NonblockingIssue.MESSAGE_ORDER
                else:
                    fix = fix_pool.pop(0) if fix_pool else None
                    if fix is NonblockingFix.ENFORCE_ATOMICITY:
                        issue = NonblockingIssue.ATOMICITY_VIOLATION
                    elif fix is NonblockingFix.ENFORCE_ORDER:
                        issue = NonblockingIssue.ORDER_VIOLATION
                    else:
                        issue = NonblockingIssue.DATA_RACE
                records.append(BugRecord(
                    bug_id=f"nblk-{index:03d}",
                    project=project,
                    kind=BugKind.NON_BLOCKING,
                    fix_date=dates.next_date(project),
                    sharing=sharing,
                    issue=issue,
                    in_safe_code=in_safe,
                    synchronized=synchronized,
                    interior_unsafe_sharing=interior_sharing,
                    interior_mutability=interior_mut,
                    nonblocking_fix=fix,
                ))
                index += 1
    # Top up the in-safe-code count from safe-sharing records if the
    # structural preference did not exhaust the quota.
    if safe_code_left > 0:
        for record in records:
            if safe_code_left == 0:
                break
            if not record.in_safe_code and record.sharing is not None \
                    and not record.sharing.is_unsafe_sharing:
                record.in_safe_code = True
                safe_code_left -= 1
        for record in records:
            if safe_code_left == 0:
                break
            if not record.in_safe_code:
                record.in_safe_code = True
                safe_code_left -= 1
    assert index == 41
    return records


def _build_all() -> List[BugRecord]:
    dates = _DateAssigner()
    records = (_build_memory_bugs(dates) + _build_blocking_bugs(dates)
               + _build_nonblocking_bugs(dates))
    return records


ALL_BUGS: List[BugRecord] = _build_all()
MEMORY_BUGS = [b for b in ALL_BUGS if b.kind is BugKind.MEMORY]
BLOCKING_BUGS = [b for b in ALL_BUGS if b.kind is BugKind.BLOCKING]
NONBLOCKING_BUGS = [b for b in ALL_BUGS if b.kind is BugKind.NON_BLOCKING]


# ---------------------------------------------------------------------------
# §4 sampled usages and removals, as records
# ---------------------------------------------------------------------------

@dataclass
class UsageRecord:
    """One sampled unsafe usage (§4.1)."""

    usage_id: str
    op_kind: UnsafeOpKind
    purpose: UnsafePurpose
    compiles_without_unsafe: bool = False
    is_constructor_label: bool = False


def _build_usage_sample() -> List[UsageRecord]:
    ops = [k for k, n in USAGE_OP_COUNTS for _ in range(n)]
    purposes = [p for p, n in USAGE_PURPOSE_COUNTS for _ in range(n)]
    assert len(ops) == len(purposes) == 600
    records = []
    stats = UNSAFE_USAGE_STATS
    no_error = stats["no_compile_error_removals"]
    constructors = 5
    for i, (op, purpose) in enumerate(zip(ops, purposes)):
        records.append(UsageRecord(
            usage_id=f"usage-{i:03d}", op_kind=op, purpose=purpose,
            compiles_without_unsafe=i < no_error,
            is_constructor_label=i < constructors))
    return records


USAGE_SAMPLE: List[UsageRecord] = _build_usage_sample()


@dataclass
class RemovalRecord:
    """One unsafe-removal case (§4.2)."""

    removal_id: str
    reason: UnsafeRemovalReason
    to_safe: bool
    interior_target: Optional[str] = None


def _build_removals() -> List[RemovalRecord]:
    reasons = [r for r, n in REMOVAL_REASON_COUNTS for _ in range(n)]
    assert len(reasons) == 130
    targets = [t for t, n in REMOVALS_TO_INTERIOR for _ in range(n)]
    records = []
    for i, reason in enumerate(reasons):
        to_safe = i < REMOVALS_TO_SAFE
        records.append(RemovalRecord(
            removal_id=f"removal-{i:03d}", reason=reason, to_safe=to_safe,
            interior_target=None if to_safe else targets[i - REMOVALS_TO_SAFE]))
    return records


UNSAFE_REMOVALS: List[RemovalRecord] = _build_removals()
