"""Static analyses over MIR.

These are the building blocks the paper's detectors are assembled from:

* :mod:`repro.analysis.dataflow` — the one forward gen/kill solver over
  int bitsets: masks built once per body, block-entry states from a
  union worklist, per-point states replayed on demand (init, storage
  liveness, and the use-after-free detector's freed state run on it);
  and the one may-reachability closure, :func:`reach`, behind value,
  guard and taint chains, unsafe births, call-graph closures, escape
  targets and the blocks after a spawn;
* :mod:`repro.analysis.init` — forward maybe-initialised / moved-out state
  per local (the "state of each variable (alive or dead)" tracking of §7.1),
  solved once per body with unwind lowering's landing pads patched in;
* :mod:`repro.analysis.points_to` — flow-insensitive points-to over locals
  ("for each pointer/reference, we conduct a points-to analysis", §7.1);
* :mod:`repro.analysis.lifetime` — storage live-ranges and lock-guard
  regions ("analyzing the lifetime of the return of lock()", §7.2);
* :mod:`repro.analysis.borrowck` — an approximate NLL borrow checker;
* :mod:`repro.analysis.callgraph` — call graph + inter-procedural summaries.
"""

from repro.analysis.dataflow import GenKill, Solution, reach, solve
from repro.analysis.init import InitStates, compute_init, init_of
from repro.analysis.points_to import PointsTo, compute_points_to
from repro.analysis.lifetime import GuardRegion, StorageRanges, compute_guard_regions, compute_storage_ranges
from repro.analysis.callgraph import CallGraph, build_call_graph

__all__ = [
    "GenKill", "Solution", "reach", "solve",
    "InitStates", "compute_init", "init_of",
    "PointsTo", "compute_points_to",
    "GuardRegion", "StorageRanges", "compute_guard_regions",
    "compute_storage_ranges",
    "CallGraph", "build_call_graph",
]
