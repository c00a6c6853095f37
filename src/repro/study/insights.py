"""The paper's 11 insights and 8 suggestions, as checkable claims.

Each :class:`Insight` carries the paper's wording plus an ``evidence``
function that re-derives the supporting statistic from the reconstructed
datasets.  ``verify_all_insights()`` returns the full scorecard — used by
tests and the `examples/study_report.py` walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.study import dataset, tables
from repro.study.taxonomy import DataSharing, Propagation


@dataclass(frozen=True)
class Insight:
    number: int
    text: str
    evidence: Callable[[], Tuple[bool, str]]


def _i1() -> Tuple[bool, str]:
    stats = tables.section4_unsafe_usage()
    good = (stats["purposes_pct"]["reuse existing code"]
            + stats["purposes_pct"]["performance"]
            + stats["purposes_pct"]["share data across threads"])
    return good >= 75, (f"{good}% of sampled unsafe usages have concrete "
                        f"reasons (reuse/performance/sharing)")


def _i2() -> Tuple[bool, str]:
    removals = tables.section4_removals()
    interior = removals["total"] - removals["to_safe"]
    return interior > removals["to_safe"], \
        (f"{interior}/130 unsafe removals encapsulate into interior-unsafe "
         f"functions (vs {removals['to_safe']} full rewrites)")


def _i3() -> Tuple[bool, str]:
    audit = tables.section4_interior_unsafe()
    pct = audit["checks_pct"]["correct inputs / environment"]
    return pct > 50, (f"{pct}% of std interior-unsafe functions rely on "
                      f"correct inputs/environments, not explicit checks")


def _i4() -> Tuple[bool, str]:
    involve_unsafe = sum(1 for b in dataset.MEMORY_BUGS
                         if b.propagation is not Propagation.SAFE)
    return involve_unsafe == 69, \
        f"{involve_unsafe}/70 memory bugs involve unsafe code"


def _i5() -> Tuple[bool, str]:
    fixes = tables.section5_fix_strategies()
    changed = fixes["conditionally skip code"] + \
        fixes["change unsafe operands"]
    return changed > 35, (f"{changed}/70 memory bugs fixed by changing or "
                          f"conditionally skipping unsafe code")


def _i6() -> Tuple[bool, str]:
    causes = tables.section6_blocking_causes()["causes"]
    lifetime_linked = causes["double lock"]
    return lifetime_linked >= 30, \
        (f"{lifetime_linked}/59 blocking bugs are double locks rooted in "
         f"guard-lifetime misunderstanding")


def _i7() -> Tuple[bool, str]:
    stats = tables.section6_nonblocking_stats()
    patterns = stats["share_via_unsafe"] + stats["share_via_safe"]
    return patterns == 38, (f"all {patterns} shared-memory non-blocking "
                            f"bugs fall into the Table 4 sharing patterns "
                            f"(the data-race detector's thread-escape "
                            f"doors: spawn captures, Arc clones, channels)")


def _i8() -> Tuple[bool, str]:
    stats = tables.section6_nonblocking_stats()
    return stats["in_safe_code"] == 25, \
        (f"{stats['in_safe_code']}/41 non-blocking bugs manifest in safe "
         f"code even though sharing may be unsafe")


def _i9() -> Tuple[bool, str]:
    # Library-misuse bugs are captured by runtime checks (RefCell panics,
    # poisoning): the dataset marks 7 such bugs via the issue taxonomy.
    library_linked = sum(
        1 for b in dataset.NONBLOCKING_BUGS
        if b.sharing is DataSharing.MESSAGE or b.interior_mutability)
    return library_linked >= 7, \
        (f"{library_linked} non-blocking bugs involve Rust-unique "
         f"libraries/interior mutability (runtime checks catch misuse)")


def _i10() -> Tuple[bool, str]:
    stats = tables.section6_nonblocking_stats()
    return stats["interior_mutability"] == 13, \
        (f"{stats['interior_mutability']} bugs mutate through immutable "
         f"borrows — '&mut self' interfaces would let the compiler reject "
         f"them")


def _i11() -> Tuple[bool, str]:
    fixes = tables.section6_nonblocking_stats()["fixes"]
    traditional = fixes["enforce atomic accesses"] + \
        fixes["enforce access order"]
    return traditional == 30, \
        (f"{traditional}/38 non-blocking fixes use traditional "
         f"atomicity/ordering strategies (existing auto-fixers apply)")


INSIGHTS: List[Insight] = [
    Insight(1, "Most unsafe usages are for good or unavoidable reasons.",
            _i1),
    Insight(2, "Interior unsafe is a good way to encapsulate unsafe code.",
            _i2),
    Insight(3, "Some safety conditions of unsafe code are difficult to "
               "check; interior unsafe often relies on correct inputs and "
               "environments.", _i3),
    Insight(4, "Rust's safety mechanisms are very effective in preventing "
               "memory bugs: all memory-safety issues involve unsafe code.",
            _i4),
    Insight(5, "More than half of memory-safety bugs were fixed by "
               "changing or conditionally skipping unsafe code.", _i5),
    Insight(6, "Lacking good understanding in Rust's lifetime rules is a "
               "common cause for many blocking bugs.", _i6),
    Insight(7, "There are patterns of how data is (improperly) shared, "
               "useful for bug detection tools.", _i7),
    Insight(8, "How data is shared is not necessarily associated with how "
               "non-blocking bugs happen; sharing can be unsafe while the "
               "bug is in safe code.", _i8),
    Insight(9, "Misusing Rust's unique libraries is one major root cause "
               "of non-blocking bugs; Rust's runtime checks capture them.",
            _i9),
    Insight(10, "The design of APIs (mutable vs immutable borrow) heavily "
                "impacts the compiler's capability of identifying bugs.",
            _i10),
    Insight(11, "Fixing strategies of Rust concurrency bugs are similar "
                "to traditional languages; existing auto-fixers likely "
                "apply.", _i11),
]

SUGGESTIONS: List[str] = [
    "S1: export only the source of unsafety as the unsafe interface, "
    "minimising inspection surface.",
    "S2: encapsulate unsafe code in interior-unsafe functions before "
    "exposing unsafe interfaces.",
    "S3: if a function's safety depends on how it is used, mark it unsafe, "
    "not interior unsafe.",
    "S4: restrict interior mutability; audit interior-mutability functions "
    "that return references.",
    "S5: memory-bug detectors can ignore safe code unrelated to unsafe "
    "code (our UAF detector only checks raw-pointer uses).",
    "S6: IDEs should visualise lifetimes and implicit-unlock locations "
    "(implemented: repro.tools.annotate).",
    "S7: Rust should add an explicit unlock API on Mutex guards "
    "(implemented: MiniRust guards support `.unlock()`).",
    "S8: review internal mutual exclusion for interior-mutability "
    "functions of Sync structs (implemented: the sync-unsync-write "
    "detector).",
]


def verify_all_insights() -> Dict[int, Tuple[bool, str]]:
    """Run every insight's evidence function; all should hold."""
    return {i.number: i.evidence() for i in INSIGHTS}
