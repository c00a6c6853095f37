"""Figure series generators.

* Figure 1 — Rust's release history: feature changes and total LOC per
  release, 2012-2019.  The series is synthesised to match the paper's
  qualitative description ("Rust went through heavy changes in the first
  four years since its release, and it has been stable since Jan 2016")
  and the figure's visible envelope (feature churn peaking ~2500 around
  2014-2015 then collapsing; KLOC growing towards ~800K).
* Figure 2 — when the studied bugs were fixed: per-project counts per
  three-month bucket, derived from the reconstructed records' fix dates
  (which honour the paper's "145 of the 170 bugs were fixed after 2016").
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.study.dataset import ALL_BUGS, BugRecord


@dataclass(frozen=True)
class RustRelease:
    version: str
    date: datetime.date
    feature_changes: int
    kloc: int


def _d(year: int, month: int, day: int = 1) -> datetime.date:
    return datetime.date(year, month, day)


#: Synthesised release history following the paper's Figure 1 envelope.
RUST_RELEASES: List[RustRelease] = [
    RustRelease("0.1", _d(2012, 1), 900, 120),
    RustRelease("0.2", _d(2012, 3), 1100, 135),
    RustRelease("0.3", _d(2012, 7), 1400, 150),
    RustRelease("0.4", _d(2012, 10), 1300, 165),
    RustRelease("0.5", _d(2012, 12), 1200, 180),
    RustRelease("0.6", _d(2013, 4), 1700, 210),
    RustRelease("0.7", _d(2013, 7), 2000, 240),
    RustRelease("0.8", _d(2013, 9), 2200, 270),
    RustRelease("0.9", _d(2014, 1), 2400, 300),
    RustRelease("0.10", _d(2014, 4), 2500, 330),
    RustRelease("0.11", _d(2014, 7), 2300, 360),
    RustRelease("0.12", _d(2014, 10), 2200, 390),
    RustRelease("1.0-alpha", _d(2015, 1), 2100, 420),
    RustRelease("1.0", _d(2015, 5), 1800, 450),
    RustRelease("1.3", _d(2015, 9), 1100, 480),
    RustRelease("1.5", _d(2015, 12), 700, 500),
    RustRelease("1.6", _d(2016, 1), 260, 510),
    RustRelease("1.9", _d(2016, 5), 220, 530),
    RustRelease("1.13", _d(2016, 11), 200, 560),
    RustRelease("1.17", _d(2017, 4), 180, 590),
    RustRelease("1.21", _d(2017, 10), 170, 620),
    RustRelease("1.25", _d(2018, 3), 160, 660),
    RustRelease("1.30", _d(2018, 10), 170, 700),
    RustRelease("1.34", _d(2019, 4), 150, 750),
    RustRelease("1.39", _d(2019, 11), 140, 800),
]

#: Rust stabilised (per the paper) with 1.6.0.
STABLE_SINCE = _d(2016, 1)


def fig1_rust_history() -> List[RustRelease]:
    """Figure 1's two series, one row per release."""
    return list(RUST_RELEASES)


def quarter_of(date: datetime.date) -> str:
    return f"{date.year}Q{(date.month - 1) // 3 + 1}"


def fig2_bug_fix_timeline(bugs: Optional[List[BugRecord]] = None
                          ) -> Dict[str, Dict[str, int]]:
    """Figure 2: per project, the number of studied bugs fixed in each
    three-month period."""
    bugs = ALL_BUGS if bugs is None else bugs
    out: Dict[str, Dict[str, int]] = {}
    for bug in bugs:
        series = out.setdefault(bug.project.value, {})
        bucket = quarter_of(bug.fix_date)
        series[bucket] = series.get(bucket, 0) + 1
    return {project: dict(sorted(series.items()))
            for project, series in out.items()}


def fig2_fixed_after_2016(bugs: Optional[List[BugRecord]] = None) -> int:
    bugs = ALL_BUGS if bugs is None else bugs
    return sum(1 for b in bugs if b.fix_date >= datetime.date(2016, 1, 1))
