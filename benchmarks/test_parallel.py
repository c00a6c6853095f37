"""Whole-file fan-out + incremental executor benchmarks →
``BENCH_parallel.json``.

Three claims, measured on the evaluation corpus (the synthetic stand-in
for the paper's five applications):

* **Determinism** — findings are byte-identical at every worker count.
* **Cold scaling** — wall-clock for ``jobs=1`` vs ``jobs=N`` whole-file
  fan-out.  The speedup assertion (>= 1.5x at ``jobs=4``) is gated on
  ``os.cpu_count()``: a single-core CI runner records the timings but
  cannot physically show a parallel win (the artifact says so
  explicitly via ``host.cpu_count`` and ``speedup_asserted``).
* **Warm incrementality** — with a summary cache, an unchanged re-run
  re-solves nothing, and a *single-function edit* re-solves <10% of
  function summaries (the edited component plus summary-changed
  dependents only).
"""

import json
import os
import time

import pytest

from conftest import bench_path, emit

from repro import obs
from repro.analysis.config import AnalysisConfig
from repro.api import AnalysisSession, analyze
from repro.corpus import generate_corpus

BENCH_PARALLEL_PATH = bench_path("BENCH_parallel.json")

SEED = 0
SCALE = 1
JOBS_SWEEP = (1, 2, 4)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=SEED, scale=SCALE)


def _timed_sweep(corpus):
    """Cold-analyze the corpus at each worker count; returns
    ``(timings, reports_by_jobs)``."""
    sources = [(f.name, f.text) for f in corpus.files]
    timings = {}
    payloads = {}
    for jobs in JOBS_SWEEP:
        with AnalysisSession(AnalysisConfig(jobs=jobs)) as session:
            start = time.perf_counter()
            reports = session.analyze_sources(sources)
            timings[jobs] = round(time.perf_counter() - start, 4)
        payloads[jobs] = [json.dumps(r.to_dict(), sort_keys=False)
                          for r in reports]
    return timings, payloads


def _incremental_run(corpus, tmp_path):
    """Cold + warm + single-edit runs over the corpus as one combined
    program (one call graph, one summary cache)."""
    config = AnalysisConfig(cache_dir=str(tmp_path))
    # ``bench_tail`` sits at the very end so editing it shifts no other
    # function's spans — the honest single-function-edit scenario.
    base = corpus.combined_source() + "\nfn bench_tail() -> i32 { 1 }\n"
    edited = base.replace("fn bench_tail() -> i32 { 1 }",
                          "fn bench_tail() -> i32 { 2 }")

    def run(src):
        with obs.collecting() as collector:
            report = analyze(src, name="combined.rs", config=config)
        return report, dict(collector.counters)

    cold_report, cold = run(base)
    warm_report, warm = run(base)
    edit_report, edit = run(edited)
    return {
        "cold": cold, "warm": warm, "edit": edit,
        "reports": (cold_report, warm_report, edit_report),
    }


def test_parallel_bench(corpus, tmp_path):
    timings, payloads = _timed_sweep(corpus)
    for jobs in JOBS_SWEEP[1:]:
        assert payloads[jobs] == payloads[1], \
            f"findings differ between jobs=1 and jobs={jobs}"

    inc = _incremental_run(corpus, tmp_path)
    cold, warm, edit = inc["cold"], inc["warm"], inc["edit"]
    cold_report, warm_report, edit_report = inc["reports"]

    total_components = cold["analysis.cache.miss"]
    total_functions = cold["analysis.executor.solved_functions"]
    assert cold.get("analysis.cache.hit", 0) == 0

    # Unchanged warm re-run: everything served from cache.
    assert warm.get("analysis.executor.solved_functions", 0) == 0
    assert warm["analysis.cache.hit"] == total_components
    assert json.dumps(warm_report.to_dict()) == \
        json.dumps(cold_report.to_dict())

    # Single-function edit: the <10% acceptance criterion.
    resolved = edit.get("analysis.executor.solved_functions", 0)
    resolve_fraction = resolved / total_functions
    assert 0 < resolved, "edited function must re-solve"
    assert resolve_fraction < 0.10, \
        f"re-solved {resolved}/{total_functions} summaries after a " \
        f"single-function edit"
    # The edit is behaviour-neutral, so findings match the base run.
    assert json.dumps(edit_report.to_dict()) == \
        json.dumps(cold_report.to_dict())

    cpu_count = os.cpu_count() or 1
    best_jobs = max(JOBS_SWEEP)
    speedup = round(timings[1] / timings[best_jobs], 3) \
        if timings[best_jobs] else None
    # A real assertion where the host can honour it: with >= 4 cores,
    # jobs=4 must beat jobs=1 by at least 1.5x on the whole-file
    # fan-out.  Single-core runners record the ratio but cannot
    # physically parallelise, so the artifact marks it unasserted.
    speedup_asserted = cpu_count >= best_jobs
    if speedup_asserted:
        assert speedup >= 1.5, \
            f"jobs={best_jobs} only {speedup}x faster on " \
            f"{cpu_count} cores"

    payload = {
        "schema_version": "1.0",
        "host": {"cpu_count": cpu_count},
        "corpus": {
            "seed": SEED, "scale": SCALE,
            "files": len(corpus.files), "loc": corpus.total_loc,
        },
        "cold_file_fanout": {
            "seconds_by_jobs": {str(j): timings[j] for j in JOBS_SWEEP},
            "speedup_at_max_jobs": speedup,
            "speedup_asserted": speedup_asserted,
            "speedup_floor": 1.5,
            "findings_identical_across_jobs": True,
        },
        "warm_incremental": {
            "combined_functions": total_functions,
            "combined_components": total_components,
            "cold": {
                "cache_miss": cold.get("analysis.cache.miss", 0),
                "cache_store": cold.get("analysis.cache.store", 0),
            },
            "warm_unchanged": {
                "cache_hit": warm.get("analysis.cache.hit", 0),
                "solved_functions":
                    warm.get("analysis.executor.solved_functions", 0),
            },
            "warm_single_edit": {
                "cache_miss": edit.get("analysis.cache.miss", 0),
                "cache_hit": edit.get("analysis.cache.hit", 0),
                "solved_functions": resolved,
                "resolve_fraction": round(resolve_fraction, 5),
            },
        },
    }
    BENCH_PARALLEL_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    round_trip = json.loads(BENCH_PARALLEL_PATH.read_text())
    assert round_trip["warm_incremental"]["warm_single_edit"][
        "resolve_fraction"] < 0.10

    emit("parallel + incremental executor",
         f"cold seconds by jobs: {payload['cold_file_fanout']['seconds_by_jobs']}"
         f" (cpus: {cpu_count})\n"
         f"warm unchanged: {warm.get('analysis.cache.hit', 0)} hits, "
         f"0 re-solved\n"
         f"single edit: {resolved}/{total_functions} summaries re-solved "
         f"({resolve_fraction:.2%}, target <10%)")
