"""Tests for the incremental executor and whole-file fan-out: wave
partitioning, jobs-count determinism, and the content-addressed summary
cache."""

import enum
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from typing import NamedTuple

import pytest

from conftest import compile_

from repro import obs
from repro.analysis import executor
from repro.analysis.callgraph import (
    build_call_graph, component_callees, scc_order, wave_partition,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import SummaryEngine
from repro.analysis.executor import SummaryCache, body_fingerprint
from repro.analysis.summaries import canonical, summary_fingerprint
from repro.api import AnalysisSession, analyze
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.generator import generate_corpus
from repro.corpus.inject import BUG_TEMPLATES
from repro.lang.source import Span
from repro.mir.nodes import Body, Local


CHAIN_SRC = """
fn leaf(p: *const i32) -> *const i32 { p }
fn mid(p: *const i32) -> *const i32 { leaf(p) }
fn top(p: *const i32) -> *const i32 { mid(p) }
fn main() { let x = 0; let p = top(&x as *const i32); unsafe { print(*p); } }
"""


def graph_of(src: str):
    program = compile_(src).program
    return program, build_call_graph(program)


class TestWavePartition:
    def test_chain_gets_one_wave_per_level(self):
        program, graph = graph_of(CHAIN_SRC)
        components = scc_order(program, graph)
        waves = wave_partition(components, graph, program)
        # leaf < mid < top < main must land in strictly increasing waves.
        level = {}
        for wave_index, wave in enumerate(waves):
            for scc_id in wave:
                for key in components[scc_id]:
                    level[key] = wave_index
        assert level["leaf"] < level["mid"] < level["top"] < level["main"]

    def test_waves_have_no_internal_edges(self):
        corpus_src = "\n".join(
            BUG_TEMPLATES[name].render(f"w{i}")
            for i, name in enumerate(sorted(BUG_TEMPLATES)))
        program, graph = graph_of(corpus_src)
        components = scc_order(program, graph)
        waves = wave_partition(components, graph, program)
        scc_of = {key: i for i, comp in enumerate(components)
                  for key in comp}
        for wave in waves:
            wave_sccs = set(wave)
            for scc_id in wave:
                for key in components[scc_id]:
                    for callee in graph.edges.get(key, ()):
                        callee_scc = scc_of.get(callee)
                        if callee_scc is not None and callee_scc != scc_id:
                            assert callee_scc not in wave_sccs, \
                                f"{key} -> {callee} within one wave"

    def test_waves_cover_every_component_once(self):
        program, graph = graph_of(CHAIN_SRC)
        components = scc_order(program, graph)
        waves = wave_partition(components, graph, program)
        flat = [scc_id for wave in waves for scc_id in wave]
        assert sorted(flat) == list(range(len(components)))


# The determinism corpus: every race and UAF template in one program.
_JOB_TEMPLATES = sorted(
    name for name in BUG_TEMPLATES
    if name.startswith(("race_", "uaf_")))
JOBS_SRC = "\n".join(BUG_TEMPLATES[name].render(f"j{i}")
                     for i, name in enumerate(_JOB_TEMPLATES))


class TestJobsDeterminism:
    def test_findings_identical_across_jobs(self):
        payloads = []
        for jobs in (1, 2, 4):
            report = analyze(JOBS_SRC, name="jobs.rs",
                             config=AnalysisConfig(jobs=jobs))
            payloads.append(json.dumps(report.to_dict(), sort_keys=False))
        assert payloads[0] == payloads[1] == payloads[2]
        assert "race" in payloads[0] and "use-after-free" in payloads[0]

    def test_session_fanout_preserves_input_order(self):
        sources = [(f"m{i}.rs", BUG_TEMPLATES[name].render(f"s{i}"))
                   for i, name in enumerate(_JOB_TEMPLATES)]
        with AnalysisSession(AnalysisConfig(jobs=4)) as session:
            parallel = session.analyze_sources(sources)
        with AnalysisSession(AnalysisConfig(jobs=1)) as session:
            serial = session.analyze_sources(sources)
        assert [r.name for r in parallel] == [name for name, _ in sources]
        assert [json.dumps(r.to_dict()) for r in parallel] == \
               [json.dumps(r.to_dict()) for r in serial]


class TestFingerprints:
    def test_canonical_is_order_insensitive(self):
        assert canonical(frozenset({"b", "a"})) == \
            canonical(frozenset({"a", "b"}))
        assert canonical({"y": 1, "x": 2}) == canonical({"x": 2, "y": 1})

    def test_equal_summaries_fingerprint_identically(self):
        program = compile_(CHAIN_SRC).program
        one = SummaryEngine(program)
        two = SummaryEngine(program)
        for key in program.functions:
            assert summary_fingerprint(one.summary(key)) == \
                summary_fingerprint(two.summary(key))

    def test_body_fingerprint_sees_span_moves(self):
        src = "fn f(p: *const i32) -> *const i32 { p }"
        a = compile_(src).program.functions["f"]
        b = compile_("\n\n" + src).program.functions["f"]
        assert body_fingerprint(a) != body_fingerprint(b)


def _reference_canonical(obj) -> str:
    """The generic walk ``canonical`` replaced: one ``isinstance`` chain
    and one ``fields()`` call per object.  Every cache key ever written
    hashes this form, so ``canonical`` must match it byte for byte."""
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(_reference_canonical(x)
                                     for x in obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ",".join(sorted(
            _reference_canonical(k) + ":" + _reference_canonical(v)
            for k, v in obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_canonical(x) for x in obj) + "]"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_reference_canonical(getattr(obj, f.name))}"
            for f in fields(obj))
        return f"{type(obj).__name__}({inner})"
    return repr(obj)


class _Pair(NamedTuple):
    left: object
    right: object


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _bodies_and_summaries(source: str):
    program = compile_(source).program
    # Building the engine lowers every body's unwind edges first.
    engine = SummaryEngine(program)
    bodies = list(program.functions.values())
    return bodies, [engine.summary(key) for key in program.functions]


class TestCanonicalMatchesTheReference:
    def _assert_same(self, values):
        assert values
        for value in values:
            assert canonical(value) == _reference_canonical(value)

    def test_combined_corpus_bodies_and_summaries(self):
        bodies, summaries = _bodies_and_summaries(
            generate_corpus(0, 1).combined_source())
        assert any(block.cleanup for body in bodies for block in body.blocks)
        self._assert_same(bodies)
        self._assert_same(summaries)

    def test_every_bug_and_benign_template(self):
        source = "\n".join(
            [BUG_TEMPLATES[name].render(f"b{i}")
             for i, name in enumerate(sorted(BUG_TEMPLATES))]
            + [BENIGN_TEMPLATES[name](f"g{i}")
               for i, name in enumerate(sorted(BENIGN_TEMPLATES))])
        bodies, summaries = _bodies_and_summaries(source)
        self._assert_same(bodies)
        self._assert_same(summaries)

    def test_edge_values(self):
        span = Span(3, 9, "a.rs")
        self._assert_same([
            frozenset({frozenset({(1, "a"), (2, "b")}),
                       frozenset({("c", None)})}),
            {(1, "x"): [span], ("y", 2): {frozenset(): ()}},
            _Pair(span, _Level.HIGH), [_Pair(1, 2)], _Level.LOW,
            True, False, 0, -7, 1.5, float("inf"), None, "", "q'\"",
            frozenset(), set(), {}, [], (),
            Body(key="f", locals=[Local(index=0, name="_0")], span=span),
        ])
        assert canonical(_Pair(1, 2)) == "[1,2]"
        assert canonical(_Level.HIGH) == "_Level.HIGH"


EDIT_BASE = """
fn shared(p: *const i32) -> *const i32 { p }
fn user_a(p: *const i32) -> *const i32 { shared(p) }
fn user_b(p: *const i32) -> *const i32 { shared(p) }
fn main() {
    let x = 0;
    let p = user_a(&x as *const i32);
    let q = user_b(&x as *const i32);
    unsafe { print(*p + *q); }
}
fn tail() -> i32 { 1 }
"""
# Editing ``tail`` (the last function: earlier spans don't shift) must
# invalidate only its own component; with early cutoff, callers of an
# edited function whose *summary* didn't change also stay cached.
EDIT_TAIL = EDIT_BASE.replace("fn tail() -> i32 { 1 }",
                              "fn tail() -> i32 { 2 }")


def _shards(tmp_path):
    return sorted(tmp_path.glob("*.shard.pkl"))


class TestSummaryCache:
    def test_cold_then_warm(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with obs.collecting() as cold:
            first = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert cold.counters.get("analysis.cache.miss", 0) > 0
        assert cold.counters.get("analysis.cache.store", 0) == \
            cold.counters["analysis.cache.miss"]
        assert cold.counters.get("analysis.cache.hit", 0) == 0

        with obs.collecting() as warm:
            second = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert warm.counters.get("analysis.cache.miss", 0) == 0
        assert warm.counters["analysis.cache.hit"] == \
            cold.counters["analysis.cache.miss"]
        assert warm.counters.get("analysis.executor.solved_functions",
                                 0) == 0
        assert warm.counters["analysis.executor.cached_functions"] > 0
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_single_function_edit_resolves_only_its_scc(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        analyze(EDIT_BASE, name="edit.rs", config=config)
        with obs.collecting() as warm:
            analyze(EDIT_TAIL, name="edit.rs", config=config)
        # Only ``tail`` was edited; its summary is unchanged, so early
        # cutoff keeps every other component (including main, which
        # calls nothing edited) a cache hit.
        assert warm.counters["analysis.cache.miss"] == 1
        assert warm.counters["analysis.executor.solved_functions"] == 1
        assert warm.counters["analysis.cache.hit"] >= 4

    def test_edit_propagates_when_summary_changes(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        base = """
fn gives(p: *const i32) -> *const i32 { ptr::null() }
fn wraps(p: *const i32) -> *const i32 { gives(p) }
"""
        edited = base.replace("{ ptr::null() }", "{ p }")
        analyze(base, name="prop.rs", config=config)
        with obs.collecting() as warm:
            analyze(edited, name="prop.rs", config=config)
        # ``gives`` now returns its argument: its summary changed, so
        # ``wraps`` (keyed on callee summary fingerprints) must re-solve.
        assert warm.counters["analysis.cache.miss"] >= 2

    def test_cold_writes_one_shard_per_wave(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with obs.collecting() as cold:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        shards = _shards(tmp_path)
        # EDIT_BASE condenses to three wave levels (leaves, users,
        # main): one shard each, not one file per component.
        assert len(shards) == 3
        assert len(shards) < cold.counters["analysis.cache.store"]
        assert (tmp_path / SummaryCache.INDEX_NAME).exists()
        # Warm serving costs one shard read per wave.
        with obs.collecting() as warm:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        assert warm.counters["analysis.cache.shard_read"] == len(shards)

    def test_corrupted_shard_recomputes(self, tmp_path):
        # A shard truncated mid-read (or mid-write by a dying process)
        # must be dropped and recomputed, then heal for the next run.
        config = AnalysisConfig(cache_dir=str(tmp_path))
        first = analyze(EDIT_BASE, name="edit.rs", config=config)
        shards = _shards(tmp_path)
        assert shards
        original = shards[0].read_bytes()
        for shard in shards:
            shard.write_bytes(shard.read_bytes()[:25])   # torn entry
        with obs.collecting() as col:
            second = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert col.counters["analysis.cache.corrupt"] == len(shards)
        assert col.counters.get("analysis.cache.hit", 0) == 0
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        # The recomputed shards serve warm again — the corruption left
        # no scar tissue.
        with obs.collecting() as healed:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        assert healed.counters.get("analysis.cache.corrupt", 0) == 0
        assert healed.counters["analysis.cache.hit"] > 0
        assert len(_shards(tmp_path)[0].read_bytes()) >= len(original) // 2

    def test_wrong_payload_shape_recomputes(self, tmp_path):
        import pickle
        cache = SummaryCache(str(tmp_path), limit=64)
        path = cache._shard_path("deadbeef.shard.pkl")
        with open(path, "wb") as f:
            pickle.dump(["not", "a", "shard", "payload"], f)
        with obs.collecting() as col:
            assert cache.get_wave(["deadbeef"]) == ({}, {})
        assert col.counters["analysis.cache.corrupt"] == 1
        assert not os.path.exists(path)

    def test_eviction_respects_limit(self, tmp_path):
        cache = SummaryCache(str(tmp_path), limit=2)
        program = compile_(CHAIN_SRC).program
        engine = SummaryEngine(program)
        entry = ({"leaf": engine.summary("leaf")},
                 {"leaf": summary_fingerprint(engine.summary("leaf"))})
        with obs.collecting() as col:
            for i in range(5):
                name = cache.put_wave({f"key{i}": entry})
                os.utime(cache._shard_path(name), (i, i))
        assert len(_shards(tmp_path)) == 2
        assert col.counters["analysis.cache.evict"] == 3
        # Evicted mappings are pruned: the survivors still hit, the
        # evicted keys miss cleanly.
        found, _fps = cache.get_wave(["key0", "key4"])
        assert list(found) == ["key4"]

    def test_other_format_shard_is_stale(self, tmp_path):
        import pickle
        cache = SummaryCache(str(tmp_path), limit=64)
        path = cache._shard_path("cafe.shard.pkl")
        with open(path, "wb") as f:
            pickle.dump({"format": 999, "entries": {}}, f)
        with obs.collecting() as col:
            assert cache.get_wave(["cafe"]) == ({}, {})
        assert col.counters["analysis.cache.stale"] == 1
        assert not os.path.exists(path)

    def test_v2_entry_files_are_never_read(self, tmp_path):
        # The one-file-per-component layout that preceded the shards:
        # a directory holding only such files solves cold, leaves them
        # untouched, and finds exactly what an empty cache finds.
        import pickle
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with obs.collecting() as cold:
            first = analyze(EDIT_BASE, name="edit.rs", config=config)
        total = cold.counters["analysis.cache.miss"]
        entries = {}
        for shard in _shards(tmp_path):
            entries.update(pickle.loads(shard.read_bytes())["entries"])
            shard.unlink()
        (tmp_path / SummaryCache.INDEX_NAME).unlink()
        v2_files = {}
        for ckey, entry in entries.items():
            path = tmp_path / f"{ckey}.summary.pkl"
            path.write_bytes(pickle.dumps(
                {"format": 2, "summaries": entry["summaries"]}))
            v2_files[path] = path.read_bytes()
        assert len(v2_files) == total
        with obs.collecting() as col:
            second = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert col.counters.get("analysis.cache.hit", 0) == 0
        assert col.counters["analysis.cache.miss"] == total
        assert "cache.read_bytes" not in col.counters
        assert all(path.read_bytes() == blob
                   for path, blob in v2_files.items())
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def _index_writes(monkeypatch):
    """Patch the cache's atomic writer to record every index write."""
    writes = []
    atomic_write = executor._atomic_write

    def recording(root, path, payload):
        if os.path.basename(path) == SummaryCache.INDEX_NAME:
            writes.append(path)
        return atomic_write(root, path, payload)
    monkeypatch.setattr(executor, "_atomic_write", recording)
    return writes


class TestIndexWrites:
    def test_one_index_write_per_cold_solve_none_warm(
            self, tmp_path, monkeypatch):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        writes = _index_writes(monkeypatch)
        with obs.collecting() as cold:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        # Three waves, three shards, one index write.
        assert len(_shards(tmp_path)) == 3
        assert len(writes) == 1
        assert cold.counters["analysis.cache.key_seconds"] > 0
        del writes[:]
        with obs.collecting() as warm:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        assert warm.counters["analysis.cache.hit"] > 0
        assert writes == []

    def test_unflushed_index_costs_no_findings(self, tmp_path, monkeypatch):
        # A process that dies between its shard writes and the flush
        # leaves shards the index does not name: the next run finds the
        # same, counts nothing corrupt, and the shards still serve.
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with monkeypatch.context() as crashed:
            crashed.setattr(SummaryCache, "flush", lambda self: None)
            first = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert _shards(tmp_path)
        assert not (tmp_path / SummaryCache.INDEX_NAME).exists()
        with obs.collecting() as col:
            second = analyze(EDIT_BASE, name="edit.rs", config=config)
        assert col.counters.get("analysis.cache.corrupt", 0) == 0
        assert col.counters.get("analysis.executor.solved_functions", 0) == 0
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_concurrent_flushes_keep_every_mapping(self, tmp_path):
        # Each worker flushes once per file, under the index lock: a
        # warm rerun after a two-worker cold fill re-solves nothing.
        if not _pool_available():
            pytest.skip("no process pool on this host")
        files = [(f.name, f.text) for f in generate_corpus(0, 1).files]
        config = AnalysisConfig(jobs=2, cache_dir=str(tmp_path),
                                report_cache=False)
        with AnalysisSession(config) as session:
            cold = [r.to_dict() for r in session.analyze_sources(files)]
        with obs.collecting() as col, AnalysisSession(config) as session:
            warm = [r.to_dict() for r in session.analyze_sources(files)]
        assert col.counters["analysis.executor.cached_functions"] > 0
        assert col.counters.get("analysis.executor.solved_functions", 0) == 0
        assert warm == cold

    def test_uncached_solve_counts_no_key_time(self):
        with obs.collecting() as col:
            analyze(EDIT_BASE, name="edit.rs")
        assert "analysis.cache.key_seconds" not in col.counters


def _counting_fingerprints(monkeypatch):
    """Count ``body_fingerprint`` calls as an obs counter, so the calls
    of pool workers (forked with the patch in place) fold back too."""
    original = executor.body_fingerprint

    def counting(body):
        obs.count("test.body_fingerprint")
        return original(body)
    monkeypatch.setattr(executor, "body_fingerprint", counting)


class TestOneTierPerRequest:
    """A report-tier batch solves the files it misses without the summary
    cache; single programs and ``report_cache=False`` batches keep it."""

    @pytest.fixture(scope="class")
    def files(self):
        return [(f.name, f.text) for f in generate_corpus(0, 1).files[:6]]

    @staticmethod
    def _edited(files):
        name, text = files[0]
        extra = BENIGN_TEMPLATES["safe_counter"]("xe")
        return [(name, text + "\n" + extra)] + files[1:]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_tier_batch_keys_no_summary(
            self, files, tmp_path, monkeypatch, jobs):
        if jobs > 1 and not _pool_available():
            pytest.skip("no process pool on this host")
        _counting_fingerprints(monkeypatch)
        writes = _index_writes(monkeypatch)
        config = AnalysisConfig(jobs=jobs, cache_dir=str(tmp_path))
        runs = (files, files, self._edited(files))
        with obs.collecting() as col, AnalysisSession(config) as session:
            got = [[r.to_dict() for r in session.analyze_sources(run)]
                   for run in runs]
        counters = col.counters
        assert counters["analysis.report_cache.miss"] == len(files) + 1
        assert counters["analysis.report_cache.hit"] == 2 * len(files) - 1
        assert counters["analysis.executor.solved_functions"] > 0
        assert counters.get("test.body_fingerprint", 0) == 0
        for name in ("hit", "miss", "store", "shard_read", "key_seconds"):
            assert f"analysis.cache.{name}" not in counters
        assert writes == []
        assert [p.name for p in tmp_path.iterdir()] == ["reports"]
        with AnalysisSession(AnalysisConfig(jobs=jobs)) as session:
            expected = [[r.to_dict() for r in session.analyze_sources(run)]
                        for run in runs]
        assert got == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_without_report_tier_keeps_the_summary_cache(
            self, files, tmp_path, monkeypatch, jobs):
        if jobs > 1 and not _pool_available():
            pytest.skip("no process pool on this host")
        _counting_fingerprints(monkeypatch)
        config = AnalysisConfig(jobs=jobs, cache_dir=str(tmp_path),
                                report_cache=False)
        with AnalysisSession(config) as session:
            session.analyze_sources(files)
        assert _shards(tmp_path)
        with obs.collecting() as warm, AnalysisSession(config) as session:
            session.analyze_sources(self._edited(files))
        assert warm.counters["analysis.cache.hit"] > 0
        assert warm.counters["test.body_fingerprint"] > 0

    def test_single_program_keeps_the_summary_cache(
            self, tmp_path, monkeypatch):
        _counting_fingerprints(monkeypatch)
        config = AnalysisConfig(cache_dir=str(tmp_path))
        analyze(EDIT_BASE, name="edit.rs", config=config)
        with obs.collecting() as warm:
            analyze(EDIT_TAIL, name="edit.rs", config=config)
        assert warm.counters["analysis.cache.hit"] > 0
        assert warm.counters["test.body_fingerprint"] > 0


_FILL_SCRIPT = """
import json, sys
from repro import api, obs
from repro.analysis.config import AnalysisConfig
from repro.corpus.generator import generate_corpus
corpus = generate_corpus(0, 1)
config = AnalysisConfig(cache_dir=sys.argv[1], report_cache=False)
with obs.collecting() as col, api.AnalysisSession(config) as session:
    reports = session.analyze_sources(
        [(f.name, f.text) for f in corpus.files])
counters = {name: col.counters.get("analysis." + name, 0)
            for name in ("executor.solved_functions", "cache.corrupt",
                         "cache.stale")}
print(json.dumps({"counters": counters,
                  "reports": [r.to_dict() for r in reports]}))
"""


class TestKeyStability:
    def test_cache_filled_at_one_hash_seed_serves_another(self, tmp_path):
        """Summary and body fingerprints sort every unordered container,
        so a cache filled by a process with one string-hash seed serves
        every component to a process with another."""
        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        runs = []
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", _FILL_SCRIPT, str(tmp_path)],
                stdout=subprocess.PIPE, timeout=600,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
            assert done.returncode == 0
            runs.append(json.loads(done.stdout))
        cold, warm = runs
        assert cold["counters"]["executor.solved_functions"] > 0
        assert warm["counters"] == {"executor.solved_functions": 0,
                                    "cache.corrupt": 0, "cache.stale": 0}
        assert any(report["findings"] for report in cold["reports"])
        assert json.dumps(warm["reports"]) == json.dumps(cold["reports"])


def _pool_available() -> bool:
    import warnings

    from repro.api import create_pool
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pool = create_pool(2)
    if pool is None:
        return False
    pool.shutdown(wait=True)
    return True


TWO_FILES = [(f"f{i}.rs", BUG_TEMPLATES[name].render(f"f{i}"))
             for i, name in enumerate(_JOB_TEMPLATES[:2])]


class TestObsFoldBack:
    """Cross-process observability: worker counters, gauges, and
    spans must fold back into the main collector — and degrade cleanly
    when the platform has no process pool at all."""

    def test_pool_unavailable_falls_back_in_process(self, monkeypatch):
        import repro.api as api_mod
        monkeypatch.setattr(api_mod, "create_pool", lambda jobs: None)
        with obs.collecting() as par:
            with AnalysisSession(AnalysisConfig(jobs=4)) as session:
                degraded = session.analyze_sources(TWO_FILES)
                assert session._pool is None
        with obs.collecting() as ser:
            with AnalysisSession(AnalysisConfig(jobs=1)) as session:
                serial = session.analyze_sources(TWO_FILES)
        assert [json.dumps(r.to_dict()) for r in degraded] == \
            [json.dumps(r.to_dict()) for r in serial]
        for key in ("analysis.summaries.iterations",
                    "analysis.executor.solved_functions"):
            assert par.counters[key] == ser.counters[key]

    def test_single_program_never_starts_a_pool(self):
        with AnalysisSession(AnalysisConfig(jobs=4)) as session:
            session.analyze(JOBS_SRC, name="jobs.rs")
            assert session._pool is None

    def test_counter_totals_identical_across_jobs(self):
        totals = []
        keys = ("analysis.summaries.iterations",
                "analysis.executor.solved_functions",
                "analysis.executor.cached_functions")
        for jobs in (1, 4):
            with obs.collecting() as col:
                analyze(JOBS_SRC, name="jobs.rs",
                        config=AnalysisConfig(jobs=jobs))
            totals.append({k: col.counters.get(k, 0) for k in keys})
        assert totals[0] == totals[1]
        assert totals[0]["analysis.executor.solved_functions"] > 0

    def test_worker_spans_fold_back_with_parents(self):
        if not _pool_available():
            pytest.skip("no process pool on this host")
        with obs.collecting() as col:
            with AnalysisSession(AnalysisConfig(jobs=2)) as session:
                session.analyze_sources(TWO_FILES)
        by_id = {s.id: s for s in col.iter_spans()}
        workers = [s for s in col.iter_spans()
                   if s.pid != os.getpid()]
        assert workers, "no worker spans folded back"
        assert {s.name for s in workers} >= {"compile", "analysis.scc"}
        for span in workers:
            node = span
            while node.pid != os.getpid():
                assert node.parent_id in by_id
                node = by_id[node.parent_id]
            assert node.name == "analysis.fanout"

    def test_cache_read_cost_counters(self, tmp_path, monkeypatch):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        analyze(EDIT_BASE, name="edit.rs", config=config)
        read_blob = SummaryCache._read_blob
        reads = []

        def counted(self, path):
            reads.append(path)
            return read_blob(self, path)
        monkeypatch.setattr(SummaryCache, "_read_blob", counted)
        with obs.collecting() as warm:
            analyze(EDIT_BASE, name="edit.rs", config=config)
        assert warm.counters["cache.read_bytes"] > 0
        assert warm.counters["cache.deserialize_seconds"] >= 0.0
        # One deserialize per *shard*, not per component: that is the
        # point of the wave-sharded layout.
        assert len(reads) == warm.counters["analysis.cache.shard_read"]
        assert len(reads) <= warm.counters["analysis.cache.hit"]


class TestComponentCallees:
    def test_external_callees_only(self):
        program, graph = graph_of(CHAIN_SRC)
        callees = component_callees(["mid"], graph, program)
        assert callees == {"leaf"}
        assert component_callees(["leaf"], graph, program) == set()
