"""``repro.api`` — the stable public facade of the analysis pipeline.

Three lines analyze a program::

    from repro import api
    report = api.analyze("examples/figure7_uaf.rs")
    print(report.render())

:func:`analyze` accepts a path or source text, runs the configured
detectors, and returns an :class:`AnalysisReport` whose ``to_dict()``
payload is schema-versioned (see ``SCHEMA_VERSION`` and the "Report JSON
schema" section of DESIGN.md).

For anything beyond a one-shot call, use an :class:`AnalysisSession`: it
owns one validated :class:`~repro.analysis.config.AnalysisConfig`, one
worker-process pool (reused across every batch it analyzes), and the
connection to the on-disk caches — so a service analyzing a stream of
files pays pool start-up once and shares incremental state::

    with api.AnalysisSession(api.AnalysisConfig(jobs=4,
                                                cache_dir=".repro-cache")) as s:
        reports = s.analyze_files(paths)

``jobs`` fans *whole files* out across worker processes, one file per
task; that is the only fan-out.  Each program's summary solve runs
serially in one process, and :meth:`AnalysisSession.analyze` of a
single program never starts a pool.  Fanning SCC waves of one program
out to workers lost at every worker count on the evaluation corpus
(DESIGN.md §6, "One fan-out: whole files").

Everything the CLI's ``check`` / ``detectors`` / ``explain`` subcommands
do goes through this module; the CLI is a thin argument-parsing client.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.analysis.config import AnalysisConfig, coerce_config
from repro.detectors.report import Finding, Report, SCHEMA_VERSION, Severity
from repro.driver import CompiledProgram, compile_source
from repro.mir.nodes import Program

__all__ = [
    "AnalysisConfig", "AnalysisReport", "AnalysisSession", "SCHEMA_VERSION",
    "UnsafeAuditReport", "analyze", "audit_unsafe", "detector_catalog",
    "lock_graph",
]

SourceOrPath = Union[str, "os.PathLike[str]"]


def detector_catalog() -> List[Dict[str, str]]:
    """Name, description and paper section of every registered detector."""
    from repro.detectors.registry import detector_catalog as _catalog
    return _catalog()


@dataclass
class AnalysisReport:
    """The result of analyzing one program through the facade.

    Wraps the raw detector :class:`~repro.detectors.report.Report` with
    the input's name and the versioned JSON payload downstream consumers
    pin against.
    """

    name: str
    report: Report

    @property
    def findings(self):
        return self.report.findings

    @property
    def exit_code(self) -> int:
        """Uniform CLI contract: 1 when some finding is an error or a
        warning, else 0 (the audit's NOTE rows do not fail a run)."""
        return 1 if any(f.severity is not Severity.NOTE
                        for f in self.report.findings) else 0

    def render(self) -> str:
        return self.report.render()

    def explain(self) -> str:
        return self.report.explain()

    def to_dict(self) -> Dict[str, object]:
        """The schema-versioned JSON payload (see DESIGN.md)."""
        return self.report.to_dict()


def _looks_like_path(source_or_path: SourceOrPath) -> bool:
    if isinstance(source_or_path, os.PathLike):
        return True
    if "\n" in source_or_path:
        return False
    return os.path.exists(source_or_path) \
        or source_or_path.endswith((".rs", ".mrs"))


def _load(source_or_path: SourceOrPath,
          name: Optional[str]) -> Tuple[str, str]:
    """Resolve the facade's flexible input to ``(name, text)``."""
    if _looks_like_path(source_or_path):
        path = os.fspath(source_or_path)
        with open(path, "r", encoding="utf-8") as f:
            return name or path, f.read()
    return name or "<input>", str(source_or_path)


class _CollectorPause:
    """Keeps CPython's cyclic garbage collector off while an operation
    runs, and gives the caller back the state it had.

    Nothing an analysis builds forms a reference cycle (DESIGN.md,
    "Memory: an acyclic heap"), so reference counting frees all of it
    and a collection during an operation would only re-walk a large,
    live heap.  The collector's switch is process-wide, so there is one
    pause per process: entries nest (a session call inside a paused
    call) and only the outermost exit restores the state seen by the
    outermost entry.  A caller that had the collector off keeps it off.
    A child forked while a pause is open starts with no pause open and
    the collector state of the parent's caller, so pool workers are
    never left with it off for good.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        if self._depth and self._was_enabled:
            gc.enable()
        self._depth = 0


_collector_paused = _CollectorPause()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=_collector_paused._after_fork_in_child)


def _compile_and_detect(name: str, text: str,
                        config: AnalysisConfig) -> Report:
    """Compile and analyze one program in a frame of its own: when it
    returns, the program is already freed, so nothing of it is left for
    the collector to walk once a pause ends.  Only the program is kept,
    so the crate is freed before detection starts."""
    from repro.detectors.registry import run_detectors
    program = compile_source(text, name=name).program
    return run_detectors(program, source=program.source, config=config)


def _analyze_task(payload: bytes) -> bytes:
    """Worker-side whole-file analysis (compile + detect).

    The worker's obs payload — counters, gauges, and its span forest
    (compile/detector/solve timelines, pid/tid-tagged) — rides back with
    the report so the session can fold it into the installed collector.
    """
    name, text, config = pickle.loads(payload)
    with obs.collecting("api-worker") as collector, _collector_paused:
        report = _compile_and_detect(name, text, config)
    return pickle.dumps(
        (report, dict(collector.counters), dict(collector.gauges),
         list(collector.roots)),
        protocol=pickle.HIGHEST_PROTOCOL)


def _merge_worker_obs(counters: Dict[str, float], gauges: Dict[str, float],
                      spans) -> None:
    """Fold one worker task's full obs payload — counters, gauges, and
    the pid/tid-tagged span forest — into the installed collector, so
    ``--profile`` and ``--trace-out`` stay truthful under fan-out.

    The session calls this once per task in input order, so a gauge
    ends on the value of the last file that set it, as at ``jobs=1``.
    Spans are re-parented under the currently open span (the batch's
    ``analysis.fanout``), so a trace shows every worker's timeline side
    by side inside the batch that scheduled it.
    """
    for name, value in sorted(counters.items()):
        obs.count(name, value)
    for name, value in gauges.items():
        obs.gauge(name, value)
    collector = obs.get_collector()
    if collector is not None:
        collector.adopt_spans(spans)


def create_pool(jobs: int):
    """A ``ProcessPoolExecutor`` of ``jobs`` workers, or ``None`` when
    the platform cannot give us one (no fork support, locked-down
    semaphores, …) — callers then analyze in-process."""
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:           # platform without fork
            context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
        # Fail fast (and fall back) when process start is forbidden.
        pool.submit(int, 0).result()
        return pool
    except Exception as exc:
        warnings.warn(f"process pool unavailable ({exc!r}); "
                      f"running jobs=1 in-process", RuntimeWarning,
                      stacklevel=2)
        obs.count("analysis.executor.pool_unavailable")
        return None


class AnalysisSession:
    """One validated config + one reusable worker pool.

    The session owns the worker pool (created lazily on the first batch
    with more than one file to analyze, shut down by :meth:`close` / the
    context manager), so consecutive batches — a corpus sweep, a watch
    loop, a server — never pay pool start-up twice.  All entry points
    are deterministic: results come back in input order with findings
    byte-identical at any ``jobs`` value.
    """

    def __init__(self, config: Optional[AnalysisConfig] = None) -> None:
        self.config = coerce_config(config)
        if self.config.detectors is not None:
            # Fail on unknown names at session construction, not mid-run.
            from repro.detectors.registry import resolve_detectors
            resolve_detectors(self.config.detectors)
        self._pool = None
        self._pool_attempted = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("AnalysisSession is closed")
        if self._pool is None and not self._pool_attempted \
                and self.config.jobs > 1:
            self._pool_attempted = True
            self._pool = create_pool(self.config.jobs)
        return self._pool

    @staticmethod
    def _solve_config(config: AnalysisConfig) -> AnalysisConfig:
        """The config a report-tier batch compiles and solves its misses
        under: the batch's ``config`` with no cache directory, so the
        summary tier is off.

        One cache tier per request (DESIGN.md §6): an edited file misses
        the report tier because its text changed, and keying its
        summaries (body fingerprints, shard reads and writes, an index
        flush) costs more than the summarise it saves.  Report keys
        still come from the batch's ``config``.
        """
        return config.with_(cache_dir=None)

    # -- analysis entry points ----------------------------------------------

    def analyze(self, source_or_path: SourceOrPath, *,
                name: Optional[str] = None) -> AnalysisReport:
        """Compile and analyze one program (path or source text).

        Runs in-process at any ``config.jobs``: one program is one
        task.  The cyclic collector is paused for the call (see
        :class:`_CollectorPause`).
        """
        resolved_name, text = _load(source_or_path, name)
        with _collector_paused:
            # The program is a temporary, never a local of this frame:
            # it is freed as soon as the analysis returns, before the
            # pause ends.  Only the program is taken from the compiled
            # unit, so the crate is freed before detection starts.
            return AnalysisReport(name=resolved_name, report=self._detect(
                self.compile(text, name=resolved_name).program,
                self.config))

    def compile(self, text: str, name: str = "<input>") -> CompiledProgram:
        return compile_source(text, name=name)

    def analyze_compiled(self, compiled: CompiledProgram) -> AnalysisReport:
        return AnalysisReport(name=compiled.source.name, report=self._detect(
            compiled.program, self.config))

    def _detect(self, program: Program, config: AnalysisConfig) -> Report:
        from repro.detectors.registry import run_detectors
        if self._closed:
            raise RuntimeError("AnalysisSession is closed")
        return run_detectors(program, source=program.source, config=config)

    def analyze_sources(self, named_sources: Sequence[Tuple[str, str]]
                        ) -> List[AnalysisReport]:
        """Analyze many independent programs, fanning whole programs out
        across the worker pool (the corpus/service shape).

        With ``config.cache_dir`` set, the whole-file report tier is
        consulted first: an unchanged ``(name, text)`` pair under the
        same config serves its finished report without compiling at
        all.  Only the misses fan out, and they solve without the
        summary cache (one cache tier per request, DESIGN.md §6); with
        ``report_cache=False`` the summary cache serves instead, shared
        by every worker.  Each worker compiles and analyzes one program
        with a serial in-process solve.  Results arrive in input order;
        worker obs counters, gauges and spans fold into the installed
        collector.  The cyclic collector is paused for the call (see
        :class:`_CollectorPause`).
        """
        with _collector_paused:
            return self._analyze_sources(named_sources, self.config)

    def _analyze_sources(self, named_sources: Sequence[Tuple[str, str]],
                         config: AnalysisConfig) -> List[AnalysisReport]:
        """:meth:`analyze_sources` under ``config``, which differs from
        the session's only in its detector selection."""
        named_sources = list(named_sources)
        reports: List[Optional[Report]] = [None] * len(named_sources)
        rcache = None
        keys: List[Optional[str]] = [None] * len(named_sources)
        misses: List[int] = []
        if config.cache_dir is not None and config.report_cache:
            from repro.analysis.executor import ReportCache
            rcache = ReportCache(os.path.join(config.cache_dir, "reports"))
            for i, (name, text) in enumerate(named_sources):
                keys[i] = ReportCache.key(name, text, config)
                reports[i] = rcache.get(keys[i])
                if reports[i] is not None:
                    obs.count("analysis.report_cache.hit")
                else:
                    obs.count("analysis.report_cache.miss")
                    misses.append(i)
        else:
            misses = list(range(len(named_sources)))

        # One cache tier per request: the report tier's misses solve
        # without the summary tier below it.
        solve_config = config if rcache is None \
            else self._solve_config(config)
        pool = None
        if config.jobs > 1 and len(misses) > 1:
            pool = self._ensure_pool()

        if pool is None:
            for i in misses:
                name, text = named_sources[i]
                reports[i] = self._detect(
                    self.compile(text, name=name).program, solve_config)
        else:
            # Worker spans fold back under this one, so a trace shows
            # the files' timelines side by side inside the batch.
            with obs.span("analysis.fanout", files=len(misses),
                          jobs=config.jobs):
                futures = [
                    pool.submit(_analyze_task, pickle.dumps(
                        (named_sources[i][0], named_sources[i][1],
                         solve_config),
                        protocol=pickle.HIGHEST_PROTOCOL))
                    for i in misses]
                for i, future in zip(misses, futures):
                    reports[i], counters, gauges, spans = \
                        pickle.loads(future.result())
                    _merge_worker_obs(counters, gauges, spans)
        if rcache is not None:
            for i in misses:
                rcache.put(keys[i], reports[i])
            if misses:
                rcache.evict()
        return [AnalysisReport(name=name, report=report)
                for (name, _), report in zip(named_sources, reports)]

    def audit_unsafe(self, named_sources: Sequence[Tuple[str, str]]
                     ) -> "UnsafeAuditReport":
        """Interior-unsafe encapsulation audit (§4.3) over ``(name,
        text)`` pairs, reusing this session's pool and cache, with the
        audit detector in place of the session's detector selection."""
        audit_cfg = _audit_config(self.config)
        with _collector_paused:
            reports = self._analyze_sources(named_sources, audit_cfg)
        return UnsafeAuditReport.of((r.name, r.findings) for r in reports)

    def analyze_files(self, paths: Iterable[SourceOrPath]
                      ) -> List[AnalysisReport]:
        """Read and analyze many files (order-preserving, parallel)."""
        named = []
        for path in paths:
            resolved = os.fspath(path)
            with open(resolved, "r", encoding="utf-8") as f:
                named.append((resolved, f.read()))
        return self.analyze_sources(named)


def analyze(source_or_path: SourceOrPath, *,
            config: Optional[AnalysisConfig] = None,
            name: Optional[str] = None) -> AnalysisReport:
    """One-shot facade: compile + analyze, returning the report.

    Equivalent to a single-use :class:`AnalysisSession`; prefer a session
    when analyzing more than one program.
    """
    with AnalysisSession(config) as session:
        return session.analyze(source_or_path, name=name)


def lock_graph(source_or_path: SourceOrPath, *,
               config: Optional[AnalysisConfig] = None,
               name: Optional[str] = None):
    """Compile one program and return its cross-thread lock graph — the
    structure the ``deadlock`` detector searches (see
    :mod:`repro.analysis.lockgraph`).

    Nodes are global lock identities (statics and heap allocation
    sites, so Arc-cloned mutexes and captured locks meet on one node);
    edges are held→wanted acquisition orders attributed to the thread
    root (main, or a specific spawn site) that can execute them.
    ``graph.deadlock_cycles()`` enumerates the cycles whose edges can be
    assigned pairwise-distinct threads, each with witness hold/want
    chains.
    """
    config = coerce_config(config)
    resolved_name, text = _load(source_or_path, name)
    compiled = compile_source(text, name=resolved_name)
    from repro.analysis.engine import SummaryEngine
    return SummaryEngine(compiled.program, config).lock_graph()


# ---------------------------------------------------------------------------
# Interior-unsafe encapsulation audit (the §4.3 study as an entry point)
# ---------------------------------------------------------------------------

@dataclass
class UnsafeAuditReport:
    """The §4.3 interior-unsafe encapsulation audit over many programs.

    ``rows`` holds one entry per interior-unsafe function — its file,
    key, checked / unchecked / caller-delegated classification, and the
    provenance detail the audit detector recorded.  ``breakdown`` is the
    paper-style aggregate.  Row order is ``(file, fn)``-sorted, so the
    rendered table and JSON payload are byte-identical regardless of
    worker count or cache temperature.
    """

    rows: List[Dict[str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows = sorted(self.rows,
                           key=lambda r: (str(r["file"]), str(r["fn"])))

    @classmethod
    def of(cls, named_findings: Iterable[Tuple[str, Iterable[Finding]]]
           ) -> "UnsafeAuditReport":
        """The census over ``(file, findings)`` pairs: one row per
        ``interior-unsafe-audit`` finding, carrying its metadata."""
        rows: List[Dict[str, object]] = []
        for name, findings in named_findings:
            for finding in findings:
                if finding.detector != "interior-unsafe-audit":
                    continue
                row: Dict[str, object] = {"file": name, "fn": finding.fn_key}
                row.update(finding.metadata)
                rows.append(row)
        return cls(rows=rows)

    @property
    def breakdown(self) -> Dict[str, int]:
        out = {"checked": 0, "unchecked": 0, "caller-delegated": 0}
        for row in self.rows:
            out[row["classification"]] = out.get(row["classification"], 0) + 1
        return out

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def unchecked(self) -> List[str]:
        """Keys of the functions classified ``unchecked``, in row order."""
        return [str(row["fn"]) for row in self.rows
                if row["classification"] == "unchecked"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "total": self.total,
            "breakdown": self.breakdown,
            "functions": self.rows,
        }

    def render(self) -> str:
        lines = [f"interior-unsafe functions: {self.total}"]
        breakdown = self.breakdown
        for label in ("checked", "unchecked", "caller-delegated"):
            count = breakdown[label]
            pct = (100.0 * count / self.total) if self.total else 0.0
            lines.append(f"  {label:<18} {count:>5}  ({pct:5.1f}%)")
        if self.rows:
            width = max(len(str(row["fn"])) for row in self.rows)
            lines.append("")
            lines.append(f"{'function':<{width}}  {'class':<16} "
                         f"{'sites':>5}  file")
            for row in self.rows:
                lines.append(
                    f"{row['fn']:<{width}}  {row['classification']:<16} "
                    f"{row['unsafe_sites']:>5}  {row['file']}")
        return "\n".join(lines)


def _audit_config(config: Optional[AnalysisConfig]) -> AnalysisConfig:
    return (config or AnalysisConfig()).with_(
        detectors=("interior-unsafe-audit",))


def audit_unsafe(named_sources: Sequence[Tuple[str, str]], *,
                 config: Optional[AnalysisConfig] = None
                 ) -> UnsafeAuditReport:
    """Run the interior-unsafe encapsulation audit over ``(name, text)``
    pairs, regenerating the paper's §4.3 checked/unchecked breakdown.

    ``config`` carries the execution knobs (``jobs``, ``cache_dir``, …);
    its detector selection is overridden with the audit detector.
    Output is deterministic at any worker count.
    """
    with AnalysisSession(_audit_config(config)) as session:
        reports = session.analyze_sources(list(named_sources))
    return UnsafeAuditReport.of((r.name, r.findings) for r in reports)
