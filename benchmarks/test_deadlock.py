"""Cross-thread deadlock engine benchmarks → ``BENCH_deadlock.json``.

Three claims about the lock-graph deadlock engine, measured on the
evaluation corpus:

* **Graph cost** — building the cross-thread lock graph over the whole
  corpus as one compilation unit (summaries already solved; the graph
  pass itself is the marginal cost) and searching it for bounded
  elementary cycles are both cheap relative to the summary fixpoint.
* **Determinism** — deadlock findings over the corpus are byte-identical
  at ``jobs`` 1/2/4: the graph is built from converged summaries, so the
  whole-file fan-out cannot leak into it.
* **Recall floor** — the corpus carries one injection of each deadlock
  template (ABBA across threads, condvar-hold, channel-recv); the run
  must report at least those, with zero findings on benign files.
"""

import json
import os
import time

import pytest

from conftest import bench_path, emit

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import SummaryEngine
from repro.api import AnalysisSession
from repro.corpus import generate_corpus
from repro.driver import compile_source

BENCH_DEADLOCK_PATH = bench_path("BENCH_deadlock.json")

SEED = 0
SCALE = 1
JOBS_SWEEP = (1, 2, 4)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=SEED, scale=SCALE)


def _deadlock_payload(corpus, config):
    """Corpus-wide deadlock findings as one canonical JSON string."""
    with AnalysisSession(config) as session:
        reports = session.analyze_sources(
            [(f.name, f.text) for f in corpus.files])
    return json.dumps([r.to_dict() for r in reports], sort_keys=False)


def test_deadlock_bench(benchmark, corpus):
    # -- lock-graph build + cycle search on the whole-corpus program ----
    compiled = compile_source(corpus.combined_source(), name="corpus")
    engine = SummaryEngine(compiled.program, AnalysisConfig())
    engine.summaries_map()          # solve outside the timed region

    start = time.perf_counter()
    graph = engine.lock_graph()
    build_seconds = round(time.perf_counter() - start, 4)

    def search():
        return graph.deadlock_cycles(4)

    cycles = benchmark(search)
    start = time.perf_counter()
    graph.deadlock_cycles(4)
    search_seconds = round(time.perf_counter() - start, 4)
    # The corpus injects exactly one cross-thread ABBA; the same-thread
    # lock_order_pair cycle must NOT appear (its edges share one root).
    assert len(cycles) == 1, [c for c, _w in cycles]

    # -- determinism sweep: jobs ----------------------------------------
    detector_config = AnalysisConfig(detectors=("deadlock",))
    timings = {}
    payloads = {}
    for jobs in JOBS_SWEEP:
        config = detector_config.with_(jobs=jobs)
        start = time.perf_counter()
        payloads[jobs] = _deadlock_payload(corpus, config)
        timings[jobs] = round(time.perf_counter() - start, 4)
    reference = payloads[1]
    for jobs, payload in payloads.items():
        assert payload == reference, \
            f"deadlock findings differ at jobs={jobs}"

    # -- recall floor / zero-FP over the labelled corpus -----------------
    reports = json.loads(reference)
    found = []
    for file, report in zip(corpus.files, reports):
        findings = [f for f in report["findings"]
                    if f["detector"] == "deadlock"]
        if file.injected:
            found.extend(findings)
        else:
            assert not findings, (file.name, findings)
    injected = [b for b in corpus.injected
                if b.template.detector == "deadlock"]
    kinds = sorted(f["kind"] for f in found)
    assert len(found) == len(injected) == 3, (kinds, len(injected))
    assert kinds == ["condvar-hold-lock", "deadlock-cycle",
                     "recv-deadlock"]

    payload = {
        "schema_version": "1.0",
        "host": {"cpu_count": os.cpu_count() or 1},
        "corpus": {
            "seed": SEED, "scale": SCALE,
            "files": len(corpus.files), "loc": corpus.total_loc,
        },
        "lock_graph": {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "thread_roots": len(graph.roots),
            "build_seconds": build_seconds,
            "cycle_search_seconds": search_seconds,
            "deadlock_cycles": len(cycles),
        },
        "detector": {
            "findings": len(found),
            "injected": len(injected),
            "recall": 1.0,
            "false_positives": 0,
            "seconds_by_jobs": {str(j): timings[j] for j in JOBS_SWEEP},
            "identical_across_jobs": True,
        },
    }
    BENCH_DEADLOCK_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    round_trip = json.loads(BENCH_DEADLOCK_PATH.read_text())
    assert round_trip["detector"]["recall"] == 1.0
    assert round_trip["detector"]["false_positives"] == 0

    emit("cross-thread deadlock engine",
         f"lock graph: {len(graph.nodes)} nodes, {len(graph.edges)} "
         f"edges, {len(graph.roots)} thread roots "
         f"(build {build_seconds}s, cycle search {search_seconds}s)\n"
         f"findings: {len(found)}/{len(injected)} injected recalled, "
         f"0 false positives; byte-identical across jobs "
         f"{list(JOBS_SWEEP)}")
