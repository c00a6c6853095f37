"""repro — reproduction of the PLDI 2020 Rust safety study.

This package implements, from scratch in Python:

* a compiler front-end for **MiniRust**, a Rust subset rich enough to
  express every buggy pattern exhibited in the paper (ownership moves,
  borrows, raw pointers, ``unsafe`` blocks/functions/traits, ``Mutex`` /
  ``RwLock`` / ``Condvar`` / channels, interior mutability);
* a rustc-style **MIR** (control-flow graph of basic blocks with explicit
  ``StorageLive`` / ``StorageDead`` statements and ``Drop`` terminators)
  plus the static analyses the paper's detectors need (storage liveness,
  initialisation, points-to, lifetime regions, an approximate borrow
  checker, a call graph);
* the paper's two **static bug detectors** (use-after-free, double-lock)
  and twenty further detectors realising the paper's §7 suggestions (21
  run by default; ``interior-unsafe-audit`` runs only when named);
* a Miri-like **MIR interpreter** with an allocation-based memory model and
  a deterministic thread scheduler (dynamic UB and deadlock detection);
* the **empirical-study pipeline**: the paper's labelled bug / unsafe-usage
  datasets and the aggregation code regenerating every table and figure;
* a **synthetic corpus generator** standing in for the five studied
  applications, with controlled bug injection for detector evaluation.

Quickstart (the stable facade — one import, three lines)::

    from repro import api

    report = api.analyze('''
        fn main() {
            let v: Vec<i32> = Vec::new();
            let p: *const i32 = v.as_ptr();
            drop(v);
            unsafe { print(*p); }
        }
    ''')
    print(report.render())

``compile_source`` stays the front-end entry point; analyze a program
compiled that way with ``api.AnalysisSession().analyze_compiled(...)``.
See DESIGN.md ("Migrating to repro.api") for the mapping.
"""

from repro import obs
from repro.driver import CompiledProgram, compile_file, compile_source
from repro.detectors.report import Finding, Report

__version__ = "1.2.0"

__all__ = [
    "CompiledProgram",
    "api",
    "compile_file",
    "compile_source",
    "Finding",
    "Report",
    "obs",
    "__version__",
]


def __getattr__(name):
    # ``repro.api`` imports lazily so the base package keeps importing
    # fast (and without cycles) for front-end-only consumers.
    if name == "api":
        import repro.api as api
        return api
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
