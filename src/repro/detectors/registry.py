"""Detector registry: every built detector, discoverable by name."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.buffer_overflow import BufferOverflowDetector
from repro.detectors.concurrency_misc import (
    ChannelDetector, CondvarDetector, OnceRecursionDetector,
)
from repro.detectors.data_race import DataRaceDetector
from repro.detectors.deadlock import DeadlockDetector
from repro.detectors.double_lock import DoubleLockDetector
from repro.detectors.interior_mutability import (
    AtomicityViolationDetector, SyncUnsyncWriteDetector,
)
from repro.detectors.lock_order import LockOrderDetector
from repro.detectors.memory_misc import (
    DoubleFreeDetector, InvalidFreeDetector, NullDerefDetector,
    UninitReadDetector,
)
from repro.detectors.panic_safety import (
    BadDropDetector, PanicSafetyDetector, UninitExposureDetector,
)
from repro.detectors.report import Report
from repro.detectors.unsafe_prop import (
    InteriorUnsafeAuditDetector, UncheckedUnsafeInputDetector,
    UnsafeLeakDetector,
)
from repro.detectors.use_after_free import (
    DanglingReturnDetector, UseAfterFreeDetector,
)

#: All detector classes, in report order.  The first two are the paper's
#: own detectors (§7); the rest realise its §7.1/§7.2 suggestions.
ALL_DETECTORS: List[Type[Detector]] = [
    UseAfterFreeDetector,
    DanglingReturnDetector,
    DoubleLockDetector,
    DoubleFreeDetector,
    InvalidFreeDetector,
    NullDerefDetector,
    UninitReadDetector,
    PanicSafetyDetector,
    BadDropDetector,
    UninitExposureDetector,
    BufferOverflowDetector,
    LockOrderDetector,
    DeadlockDetector,
    CondvarDetector,
    ChannelDetector,
    OnceRecursionDetector,
    SyncUnsyncWriteDetector,
    AtomicityViolationDetector,
    DataRaceDetector,
    UnsafeLeakDetector,
    UncheckedUnsafeInputDetector,
    InteriorUnsafeAuditDetector,
]

#: The default run: every detector but the §4.3 census, whose NOTE rows
#: are a study of the program rather than bug findings.  Naming
#: ``interior-unsafe-audit`` in a selection runs it.
DEFAULT_DETECTORS: List[Type[Detector]] = [
    cls for cls in ALL_DETECTORS if cls is not InteriorUnsafeAuditDetector]

MEMORY_DETECTORS = [UseAfterFreeDetector, DanglingReturnDetector,
                    DoubleFreeDetector,
                    InvalidFreeDetector, NullDerefDetector,
                    UninitReadDetector, PanicSafetyDetector,
                    BadDropDetector, UninitExposureDetector,
                    BufferOverflowDetector,
                    UnsafeLeakDetector, UncheckedUnsafeInputDetector]
CONCURRENCY_DETECTORS = [DoubleLockDetector, LockOrderDetector,
                         DeadlockDetector,
                         CondvarDetector, ChannelDetector,
                         OnceRecursionDetector, SyncUnsyncWriteDetector,
                         AtomicityViolationDetector, DataRaceDetector]


def detector_by_name(name: str) -> Optional[Type[Detector]]:
    # Accept underscores for hyphens so `--detector data_race` works the
    # same as `--detector data-race`.
    normalised = name.replace("_", "-")
    for cls in ALL_DETECTORS:
        if cls.name == normalised:
            return cls
    return None


def detector_catalog() -> List[Dict[str, str]]:
    """Name, description and paper section of every registered detector,
    in report order — the data behind ``minirust detectors``."""
    return [{"name": cls.name, "description": cls.description,
             "paper_section": cls.paper_section}
            for cls in ALL_DETECTORS]


def resolve_detectors(names) -> List[Detector]:
    """Instantiate detectors from names, raising ``ValueError`` on an
    unknown name — the single validation point for
    ``AnalysisConfig.detectors`` and the CLI's ``--detector``."""
    detectors = []
    for name in names:
        cls = detector_by_name(name)
        if cls is None:
            known = ", ".join(c.name for c in ALL_DETECTORS)
            raise ValueError(f"unknown detector: {name!r} (known: {known})")
        detectors.append(cls())
    return detectors


def apply_subsumption(report: Report) -> Report:
    """Suppress weaker findings the deadlock engine strictly subsumes.

    A ``deadlock-cycle`` finding proves two *threads* can interleave the
    conflicting acquisitions; a ``lock-order`` ABBA finding over the same
    lock set only observes the conflicting orders exist somewhere.  When
    both fire on the same cycle (compared as an unordered lock set), the
    weaker one is dropped and the survivor records a ``subsumed_by``
    provenance fact naming it.  The blocking-wait kinds need no rule:
    one wait/wake query gives each wait one verdict
    (:mod:`repro.detectors.waits`), so ``recv-deadlock`` and
    ``recv-holding-lock`` never meet at one site.

    ``double-lock`` never overlaps: a lock-graph cycle has at least two
    *distinct* locks per its node-identity rule, while double-lock is
    one lock acquired twice by one thread.

    The panic-model detectors add two more rules.  A ``panic-safety``
    finding proves the double ownership *and* the panic edge that
    manifests it, so it subsumes the flow-insensitive ``double-free`` /
    ``use-after-free`` reports on the same function (matched on the
    duplicated ``source`` local when both record one).  Likewise
    ``uninit-exposure`` proves the escaping pointer targets memory that
    is still uninitialised, strictly stronger than ``unsafe-leak``'s
    escape-only report on the same function.
    """
    from repro import obs
    from repro.obs.provenance import fact

    by_cycle = {}
    panic_safety_by_fn = {}
    exposure_by_fn = {}
    for f in report.findings:
        if f.detector == "panic-safety":
            panic_safety_by_fn.setdefault(f.fn_key, f)
        elif f.detector == "uninit-exposure":
            exposure_by_fn.setdefault(f.fn_key, f)
        elif f.kind == "deadlock-cycle":
            by_cycle[frozenset(f.metadata.get("cycle", []))] = f
    if not by_cycle and not panic_safety_by_fn and not exposure_by_fn:
        return report
    kept = []
    for f in report.findings:
        winner = None
        if f.detector == "lock-order" and f.metadata.get("cycle"):
            winner = by_cycle.get(frozenset(f.metadata["cycle"]))
        elif f.detector in ("double-free", "use-after-free"):
            candidate = panic_safety_by_fn.get(f.fn_key)
            if candidate is not None and (
                    "source" not in f.metadata
                    or f.metadata["source"]
                    == candidate.metadata.get("source")):
                winner = candidate
        elif f.detector == "unsafe-leak":
            winner = exposure_by_fn.get(f.fn_key)
        if winner is not None:
            obs.count("detectors.subsumed")
            winner.provenance.append(fact(
                "subsumed_by",
                f"this finding subsumes a weaker `{f.detector}`/"
                f"`{f.kind}` finding on the same evidence "
                f"(was reported in `{f.fn_key}`)",
                detector=f.detector, finding_kind=f.kind,
                fn_key=f.fn_key))
            continue
        kept.append(f)
    report.findings[:] = kept
    return report


def run_detectors(program, detectors: Optional[List[Detector]] = None,
                  source=None, config=None) -> Report:
    """Run detectors over a MIR program and return a deduplicated report.

    ``detectors`` (instances) wins over ``config.detectors`` (names);
    with neither, :data:`DEFAULT_DETECTORS` run.  Each detector runs
    under its own ``detector.<name>`` span with a findings counter, so
    ``--profile`` breaks the check time down per-detector and per
    shared-analysis pass.
    """
    from repro import obs
    from repro.analysis.config import coerce_config
    config = coerce_config(config)
    if detectors is None:
        if config.detectors is not None:
            detectors = resolve_detectors(config.detectors)
        else:
            detectors = [cls() for cls in DEFAULT_DETECTORS]
    ctx = AnalysisContext(program, config)
    report = Report(source=source)
    with obs.span("detectors"):
        for detector in detectors:
            with obs.span(f"detector.{detector.name}"):
                found = detector.run(ctx)
            obs.count(f"detector.{detector.name}.findings", len(found))
            report.extend(found)
    deduped = apply_subsumption(report.dedup())
    obs.count("detectors.findings", len(deduped.findings))
    return deduped
