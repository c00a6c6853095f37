"""Incremental execution layer for the summary solve.

The :class:`~repro.analysis.engine.SummaryEngine` solves the condensed
call graph bottom-up; this module runs that schedule in-process and
keeps its results across runs:

* **Serial solve** — components are solved one after another in
  reverse-topological order.  There is no parallel solve: every SCC of
  the evaluation corpus is a singleton, and fanning SCC waves out to
  worker processes or threads lost at every worker count (DESIGN.md §6,
  "One fan-out: whole files").  The only
  fan-out left is whole-file, in
  :meth:`repro.api.AnalysisSession.analyze_sources`.
* **Incrementality** — a content-addressed on-disk cache
  (:class:`SummaryCache`).  A component's key hashes its members' MIR
  fingerprints plus the *summary* fingerprints of its external callees,
  which gives early cutoff for free: editing a function invalidates its
  own component, and its callers only when its summary actually changed.
  :func:`repro.analysis.callgraph.wave_partition` groups the components
  into levels that share no edges; the cache stores and serves one
  shard per level.  Corrupted or stale entries are dropped and
  recomputed, never trusted.
* **Whole-file reports** — :class:`ReportCache`, the tier above, keys a
  finished report on the source text and every config field that can
  change findings.

Obs surface: ``analysis.wave`` spans (one per cached wave),
``analysis.cache.{hit,miss,store,evict,corrupt,stale}`` counters,
``analysis.cache.key_seconds`` (time spent fingerprinting and keying,
once per cached solve), ``analysis.executor.{solved,cached}_functions``
totals and per-entry ``cache.{read_bytes,deserialize_seconds}`` costs —
the numbers the incremental-rerun benchmarks, the regression
observatory (``minirust bench-diff``), and the tests assert on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import fields
from time import perf_counter
from typing import Dict, List, Optional, Set

try:
    import fcntl
except ImportError:
    # No advisory locks: concurrent index merges may lose updates,
    # which costs only future misses.
    fcntl = None

from repro import obs
from repro.analysis.callgraph import (
    component_callees, scc_order, wave_partition,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.summaries import (
    FunctionSummary, canonical, summary_fingerprint,
)
from repro.mir.nodes import Body

#: On-disk *container* format.  Bump when the shard/index layout
#: changes: payloads from other formats are recognised as stale and
#: evicted rather than unpickled into the wrong shape.
#:
#: v3: per-wave shard files (``<hash>.shard.pkl``) holding every
#: component a wave stored, plus a content-addressed index mapping
#: component key → shard file.  Files of the older one-file-per-
#: component layout (``<key>.summary.pkl``) are never read.
CACHE_FORMAT = 3

#: Versions the *component key*, i.e. the summary solve semantics —
#: separate from the container format.  Bump when ``FunctionSummary``
#: fields or solve semantics change.
#:
#: v3: the IR value classes (``Span``, ``Ty``, ``Place``, ...) are
#: slotted, so summaries pickled with the old per-instance ``__dict__``
#: layout are never opened.
SUMMARY_KEY_VERSION = 3


def body_fingerprint(body: Body) -> str:
    """Content hash of one function's MIR (spans included — summaries
    carry spans, so a moved function must not serve stale locations).

    Memoised on the body under an underscore attribute: ``canonical()``
    walks only dataclass fields so the memo can never feed back into the
    hash, and ``Body.__getstate__`` strips it from pickles like every
    other piece of derived state.
    """
    fp = body.__dict__.get("_fingerprint")
    if fp is None:
        fp = hashlib.sha256(canonical(body).encode()).hexdigest()
        body.__dict__["_fingerprint"] = fp
    return fp


# ---------------------------------------------------------------------------
# On-disk caches (summary shards + whole-file reports)
# ---------------------------------------------------------------------------

_trash_seq = 0


def _safe_remove(path: str) -> None:
    """Rename first, then unlink.  A concurrent reader either opens the
    intact file before the rename or gets a clean ``FileNotFoundError``
    after it — never a torn entry — and an evictor racing a writer that
    just re-created ``path`` can no longer delete the *fresh* file: the
    rename moved exactly one inode out of the way."""
    global _trash_seq
    _trash_seq += 1
    trash = f"{path}.{os.getpid()}.{_trash_seq}.trash"
    try:
        os.rename(path, trash)
    except OSError:
        return
    try:
        os.remove(trash)
    except OSError:
        pass


def _atomic_write(root: str, path: str, payload: object) -> bool:
    try:
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        return False      # a full or read-only cache disables itself
    return True


def _lock_file(path: str):
    """Open ``path`` holding an exclusive advisory lock on it, released
    when the returned file is closed; ``None`` where the platform or the
    directory offers no lock."""
    if fcntl is None:
        return None
    try:
        handle = open(path, "ab")
    except OSError:
        return None
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
    except OSError:
        handle.close()
        return None
    return handle


def _evict_over_limit(root: str, suffix: str, limit: int) -> List[str]:
    """Oldest-first eviction of ``*suffix`` files beyond ``limit``;
    returns the removed file names."""
    try:
        entries = [e for e in os.scandir(root) if e.name.endswith(suffix)]
    except OSError:
        return []
    excess = len(entries) - limit
    if excess <= 0:
        return []
    try:
        entries.sort(key=lambda e: (e.stat().st_mtime, e.name))
    except OSError:          # entry vanished under a concurrent evict
        return []
    removed = []
    for entry in entries[:excess]:
        _safe_remove(entry.path)
        obs.count("analysis.cache.evict")
        removed.append(entry.name)
    return removed


class SummaryCache:
    """Content-addressed store of per-component summary dicts, packed
    into per-wave shard files.

    Layout (v3): each ``put_wave`` writes one ``<hash>.shard.pkl``
    holding every component the wave stored — summaries *plus* their
    precomputed summary fingerprints, so a warm run neither re-opens a
    file per component nor re-hashes every served summary.  A
    ``shards.index.pkl`` maps component key → shard file; a warm run
    therefore costs one index read plus one shard read per wave.  Stores
    and evictions change the index in memory only; :meth:`flush` writes
    it, once per solve.

    Writes are atomic (tempfile + rename) so concurrent workers and
    sessions sharing a cache directory only ever observe complete
    entries; removals rename-then-unlink (see :func:`_safe_remove`).
    Any failure to load — unreadable file, truncated pickle, wrong
    payload shape — counts as a miss: the entry is evicted and the
    component recomputed.
    """

    INDEX_NAME = "shards.index.pkl"
    LOCK_NAME = "shards.index.lock"

    def __init__(self, root: str, limit: int) -> None:
        self.root = root
        self.limit = limit
        os.makedirs(root, exist_ok=True)
        self._index: Optional[Dict[str, str]] = None
        #: Unflushed index changes: stored mappings, and the shard files
        #: evicted since the last :meth:`flush`.
        self._dirty = False
        self._evicted: Set[str] = set()

    # -- paths ---------------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.root, self.INDEX_NAME)

    def _shard_path(self, name: str) -> str:
        return os.path.join(self.root, name)

    # -- index ---------------------------------------------------------------

    def _load_index(self) -> Dict[str, str]:
        if self._index is not None:
            return self._index
        try:
            with open(self._index_path(), "rb") as f:
                payload = pickle.load(f)
            if isinstance(payload, dict) \
                    and payload.get("format") == CACHE_FORMAT \
                    and isinstance(payload.get("shards"), dict):
                self._index = dict(payload["shards"])
                return self._index
            _safe_remove(self._index_path())
        except FileNotFoundError:
            pass
        except Exception:
            obs.count("analysis.cache.corrupt")
            _safe_remove(self._index_path())
        # Missing or bad index: rebuild it from the shards themselves —
        # the index is an accelerator, never the source of truth.
        self._index = self._scan_shards()
        return self._index

    def _scan_shards(self) -> Dict[str, str]:
        index: Dict[str, str] = {}
        try:
            names = sorted(e.name for e in os.scandir(self.root)
                           if e.name.endswith(".shard.pkl"))
        except OSError:
            return index
        for name in names:
            entries = self._read_shard(name)
            if entries:
                for ckey in entries:
                    index[ckey] = name
        return index

    def flush(self) -> None:
        """Write the in-memory index if it changed since the last flush.

        :meth:`put_wave` only updates the index in memory; one flush per
        solve writes it.  The write merges with the on-disk index first:
        a concurrent session may have added mappings since we loaded
        ours.  The read-merge-write holds an advisory lock on
        :attr:`LOCK_NAME`, so two workers flushing at once cannot drop
        each other's mappings.  Shards stored by a process that died
        before its flush only cost a future miss, never a wrong hit.
        """
        if not self._dirty:
            return
        lock = _lock_file(os.path.join(self.root, self.LOCK_NAME))
        try:
            merged: Dict[str, str] = {}
            try:
                with open(self._index_path(), "rb") as f:
                    payload = pickle.load(f)
                if isinstance(payload, dict) \
                        and payload.get("format") == CACHE_FORMAT \
                        and isinstance(payload.get("shards"), dict):
                    merged.update(payload["shards"])
            except Exception:
                pass
            merged.update(self._index or {})
            if self._evicted:
                merged = {ckey: shard for ckey, shard in merged.items()
                          if shard not in self._evicted}
            self._index = merged
            _atomic_write(self.root, self._index_path(),
                          {"format": CACHE_FORMAT, "shards": merged})
        finally:
            if lock is not None:
                lock.close()
        self._dirty = False
        self._evicted.clear()

    # -- reads ---------------------------------------------------------------

    def _read_blob(self, path: str):
        """Read + unpickle one cache file, recording warm-serving cost;
        ``None`` on any failure (the file is evicted)."""
        try:
            started = perf_counter()
            with open(path, "rb") as f:
                blob = f.read()
            payload = pickle.loads(blob)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated, corrupted, or unreadable: recompute instead of
            # crashing, and drop the bad entry so it cannot recur.
            obs.count("analysis.cache.corrupt")
            _safe_remove(path)
            return None
        elapsed = perf_counter() - started
        obs.count("cache.read_bytes", len(blob))
        obs.count("cache.deserialize_seconds", elapsed)
        return payload

    def _read_shard(self, name: str):
        path = self._shard_path(name)
        payload = self._read_blob(path)
        if payload is None:
            return None
        obs.count("analysis.cache.shard_read")
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("entries"), dict):
            obs.count("analysis.cache.corrupt")
            _safe_remove(path)
            return None
        if payload.get("format") != CACHE_FORMAT:
            obs.count("analysis.cache.stale")
            _safe_remove(path)
            return None
        return payload["entries"]

    @staticmethod
    def _valid_summaries(summaries) -> bool:
        return isinstance(summaries, dict) and all(
            isinstance(k, str) and isinstance(v, FunctionSummary)
            for k, v in summaries.items())

    def get_wave(self, ckeys):
        """Serve every cached component of one wave in bulk.

        Returns ``(found, fps)``: ``found`` maps component key →
        ``{fn: summary}`` and ``fps`` maps component key →
        ``{fn: summary fingerprint}`` where the entry stored them.
        """
        index = self._load_index()
        found: Dict[str, Dict[str, FunctionSummary]] = {}
        fps: Dict[str, Dict[str, str]] = {}
        by_shard: Dict[str, List[str]] = {}
        for ckey in ckeys:
            shard = index.get(ckey)
            if shard is not None:
                by_shard.setdefault(shard, []).append(ckey)
        for shard, keys in sorted(by_shard.items()):
            entries = self._read_shard(shard)
            if entries is None:
                for ckey in keys:       # dead mapping: prune lazily
                    index.pop(ckey, None)
                continue
            for ckey in keys:
                entry = entries.get(ckey)
                if not isinstance(entry, dict) \
                        or not self._valid_summaries(
                            entry.get("summaries")):
                    obs.count("analysis.cache.corrupt")
                    continue
                found[ckey] = entry["summaries"]
                entry_fps = entry.get("summary_fps")
                if isinstance(entry_fps, dict):
                    fps[ckey] = entry_fps
        return found, fps

    # -- writes --------------------------------------------------------------

    def put_wave(self, entries) -> Optional[str]:
        """Store one wave's components as a single shard file.

        ``entries`` maps component key → ``(summaries, summary_fps)``.
        The shard name is content-addressed from the component keys it
        holds, so re-storing the same wave replaces (atomically) rather
        than duplicates.  Returns the shard file name (``None`` if
        nothing was written).
        """
        if not entries:
            return None
        h = hashlib.sha256("\x00".join(sorted(entries)).encode())
        name = h.hexdigest()[:40] + ".shard.pkl"
        payload = {
            "format": CACHE_FORMAT,
            "entries": {ckey: {"summaries": summaries,
                               "summary_fps": summary_fps}
                        for ckey, (summaries, summary_fps)
                        in sorted(entries.items())},
        }
        if not _atomic_write(self.root, self._shard_path(name), payload):
            return None
        obs.count("analysis.cache.store", len(entries))
        index = self._load_index()
        for ckey in entries:
            index[ckey] = name
        self._evicted.discard(name)
        self._dirty = True
        self._evict_over_limit()
        return name

    def _evict_over_limit(self) -> None:
        removed = _evict_over_limit(self.root, ".shard.pkl", self.limit)
        if not removed:
            return
        dead = set(removed)
        index = self._load_index()
        for ckey in [k for k, shard in index.items() if shard in dead]:
            index.pop(ckey, None)
        self._evicted |= dead
        self._dirty = True


#: Bump when the report payload or detector semantics the report tier
#: cannot observe through its key change shape.
#:
#: v2: the key covers every finding-relevant config field (v1 left out
#: ``unwind_edges``, ``deadlock_cycle_bound`` and ``seed``, so a report
#: cached under one setting was served under another).
#: v3: reports pickle slotted spans; v2 entries (spans with a
#: ``__dict__``) are never opened.
REPORT_CACHE_FORMAT = 3

#: :class:`AnalysisConfig` fields that only say how or where to run.
#: Every other field can change findings, so the report key covers it.
EXECUTION_FIELDS = frozenset({"jobs", "cache_dir", "report_cache"})

_REPORT_KEY_FIELDS = tuple(f.name for f in fields(AnalysisConfig)
                           if f.name not in EXECUTION_FIELDS)

#: Shard-file cap of the summary cache before oldest-first eviction.
DEFAULT_CACHE_LIMIT = 65536

#: Reports are small, so the report tier keeps a generous fixed
#: multiple of the shard cap.
_REPORT_LIMIT_FACTOR = 4


#: ``(config, REPORT_CACHE_FORMAT, prefix)`` of the last report key
#: prefix built.  One slot, matched by identity: a session keys every
#: file under one config object.
_report_prefix_memo: tuple = (None, None, b"")


def _report_key_prefix(config: AnalysisConfig) -> bytes:
    """The part of a report key shared by every file under ``config``:
    format and schema versions, then ``repr`` of the finding-relevant
    config fields, each part ``\\x00``-terminated."""
    global _report_prefix_memo
    memo_config, memo_format, prefix = _report_prefix_memo
    if memo_config is config and memo_format == REPORT_CACHE_FORMAT:
        return prefix
    from repro.detectors.report import SCHEMA_VERSION
    knobs = tuple((name, getattr(config, name))
                  for name in _REPORT_KEY_FIELDS)
    prefix = (f"repro-report-cache-v{REPORT_CACHE_FORMAT}"
              f":schema{SCHEMA_VERSION}\x00{knobs!r}\x00").encode()
    _report_prefix_memo = (config, REPORT_CACHE_FORMAT, prefix)
    return prefix


class ReportCache:
    """Whole-file report tier above the summary cache.

    The summary cache saves the *solve*; it cannot save the compile or
    the detector walks, which dominate a warm corpus audit.  This tier
    keys the finished detector :class:`~repro.detectors.report.Report`
    on the source text plus every config field outside
    :data:`EXECUTION_FIELDS`, so an unchanged file skips the front end
    entirely.  Same atomicity
    and corruption discipline as :class:`SummaryCache`.
    """

    def __init__(self, root: str,
                 limit: int = DEFAULT_CACHE_LIMIT * _REPORT_LIMIT_FACTOR
                 ) -> None:
        self.root = root
        self.limit = limit
        os.makedirs(root, exist_ok=True)

    @staticmethod
    def key(name: str, text: str, config: AnalysisConfig) -> str:
        h = hashlib.sha256(_report_key_prefix(config))
        h.update(name.encode())
        h.update(b"\x00")
        h.update(text.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".report.pkl")

    def get(self, key: str):
        from repro.detectors.report import Report
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            obs.count("analysis.report_cache.corrupt")
            _safe_remove(path)
            return None
        if not isinstance(payload, dict) \
                or payload.get("format") != REPORT_CACHE_FORMAT \
                or not isinstance(payload.get("report"), Report):
            obs.count("analysis.report_cache.corrupt")
            _safe_remove(path)
            return None
        return payload["report"]

    def put(self, key: str, report) -> None:
        """Store ``report``.  Nothing is evicted here: a batch calls
        :meth:`evict` once after its stores, so a directory scan is
        paid per batch, not per file."""
        payload = {"format": REPORT_CACHE_FORMAT, "report": report}
        if _atomic_write(self.root, self._path(key), payload):
            obs.count("analysis.report_cache.store")

    def evict(self) -> None:
        """Oldest-first eviction of the reports beyond ``limit``."""
        _evict_over_limit(self.root, ".report.pkl", self.limit)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

class AnalysisExecutor:
    """Runs one engine's summary solve, through the summary cache when
    the config enables it."""

    def __init__(self, engine, config: AnalysisConfig) -> None:
        self.engine = engine
        self.config = config

    # -- cache keying --------------------------------------------------------

    def _component_key(self, component: List[str], graph,
                       body_fps: Dict[str, str],
                       summary_fps: Dict[str, str]) -> str:
        program = self.engine.program
        h = hashlib.sha256()
        h.update(f"repro-summary-cache-v{SUMMARY_KEY_VERSION}"
                 f":proj{self.engine._MAX_PROJ}\x00".encode())
        for key in sorted(component):
            fp = body_fps.get(key)
            if fp is None:
                fp = body_fps[key] = body_fingerprint(
                    program.functions[key])
            h.update(key.encode())
            h.update(b"\x00")
            h.update(fp.encode())
            h.update(b"\x01")
        h.update(b"\x02callees\x02")
        for callee in sorted(component_callees(component, graph, program)):
            h.update(callee.encode())
            h.update(b"\x00")
            h.update(summary_fps[callee].encode())
            h.update(b"\x01")
        return h.hexdigest()

    # -- solve ---------------------------------------------------------------

    def solve(self) -> None:
        engine = self.engine
        graph = engine.call_graph
        components = scc_order(engine.program, graph)
        obs.gauge("analysis.summaries.sccs", len(components))
        if self.config.cache_dir is not None:
            iterations, solved, cached = self._solve_cached(components, graph)
        else:
            # Uncached: the classic bottom-up solve.
            iterations = solved = cached = 0
            for component in components:
                iterations += engine.solve_component(component)
                solved += len(component)
        obs.count("analysis.summaries.iterations", iterations)
        obs.count("analysis.executor.solved_functions", solved)
        obs.count("analysis.executor.cached_functions", cached)

    def _solve_cached(self, components: List[List[str]], graph):
        """Bottom-up solve through the summary cache, one wave at a
        time: waves share no edges, so each is one bulk cache read and
        one shard write.  The shard index is written once, at the end.
        Returns ``(iterations, solved functions, cached functions)``."""
        engine = self.engine
        cache = SummaryCache(self.config.cache_dir, DEFAULT_CACHE_LIMIT)
        waves = wave_partition(components, graph, engine.program)
        obs.gauge("analysis.executor.waves", len(waves))
        body_fps: Dict[str, str] = {}
        summary_fps: Dict[str, str] = {}
        iterations = solved = cached = 0
        key_seconds = 0.0
        for wave_index, wave in enumerate(waves):
            with obs.span("analysis.wave", index=wave_index,
                          sccs=len(wave)):
                started = perf_counter()
                ckeys = {scc_id: self._component_key(
                             components[scc_id], graph, body_fps,
                             summary_fps)
                         for scc_id in wave}
                key_seconds += perf_counter() - started
                # One bulk lookup per wave: typically a single index
                # consult + one shard read.
                found, fps_map = cache.get_wave(sorted(set(ckeys.values())))
                wave_entries: Dict[str, tuple] = {}
                for scc_id in wave:
                    component = components[scc_id]
                    ckey = ckeys[scc_id]
                    hit = found.get(ckey)
                    if hit is not None and set(hit) == set(component):
                        obs.count("analysis.cache.hit")
                        cached += len(component)
                        engine.adopt_summaries(hit)
                        entry_fps = fps_map.get(ckey)
                        if entry_fps is None or \
                                set(entry_fps) != set(component):
                            started = perf_counter()
                            entry_fps = {key: summary_fingerprint(hit[key])
                                         for key in component}
                            key_seconds += perf_counter() - started
                        summary_fps.update(entry_fps)
                        continue
                    obs.count("analysis.cache.miss")
                    iterations += engine.solve_component(component)
                    solved += len(component)
                    summaries = {key: engine._summaries[key]
                                 for key in component}
                    started = perf_counter()
                    entry_fps = {key: summary_fingerprint(summaries[key])
                                 for key in component}
                    key_seconds += perf_counter() - started
                    summary_fps.update(entry_fps)
                    wave_entries[ckey] = (summaries, entry_fps)
                if wave_entries:
                    cache.put_wave(wave_entries)
        cache.flush()
        obs.count("analysis.cache.key_seconds", key_seconds)
        return iterations, solved, cached
