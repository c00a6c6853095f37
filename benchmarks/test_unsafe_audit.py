"""Interior-unsafe audit benchmarks → ``BENCH_unsafe.json``.

Three claims from the §5 unsafe-provenance design, measured on the
evaluation corpus:

* **Determinism** — the audit report is byte-identical at every worker
  count (the provenance fixpoint and report ordering are
  schedule-independent).
* **Audit cost** — wall-clock for a cold whole-corpus audit, plus the
  number of function summaries solved to produce it (the audit rides
  the same interprocedural engine as the detectors, so its cost is the
  summary fixpoint, not a second pass).
* **Warm delta** — with a cache directory, a repeat audit re-solves no
  summaries and is served entirely from cache, and still renders the
  identical report.  Two warm tiers are measured separately: the
  summary tier alone (``report_cache=False`` — summaries served from
  the wave shards a ``report_cache=False`` cold audit stored, files
  still recompiled) and the report tier (no compile, no solve; its
  cold audit solves without the summary cache).  The full warm audit
  must be at least 2× faster than cold; ``bench-diff`` enforces the
  recorded ``warm_speedup`` even under ``--warn``.
"""

import json
import os
import time

import pytest

from conftest import bench_path, emit

from repro import obs
from repro.analysis.config import AnalysisConfig
from repro.api import audit_unsafe
from repro.corpus import generate_corpus

BENCH_UNSAFE_PATH = bench_path("BENCH_unsafe.json")

SEED = 0
SCALE = 1
JOBS_SWEEP = (1, 2, 4)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=SEED, scale=SCALE)


def _audit(sources, config):
    with obs.collecting() as collector:
        start = time.perf_counter()
        report = audit_unsafe(sources, config=config)
        seconds = round(time.perf_counter() - start, 4)
    return report, seconds, dict(collector.counters)


def test_unsafe_audit_bench(corpus, tmp_path):
    sources = [(f.name, f.text) for f in corpus.files]

    # Cold sweep over worker counts: identical bytes everywhere.
    timings = {}
    payloads = {}
    for jobs in JOBS_SWEEP:
        report, seconds, _ = _audit(sources, AnalysisConfig(jobs=jobs))
        timings[jobs] = seconds
        payloads[jobs] = json.dumps(report.to_dict(), sort_keys=False)
    for jobs in JOBS_SWEEP[1:]:
        assert payloads[jobs] == payloads[1], \
            f"audit differs between jobs=1 and jobs={jobs}"

    # Cold vs warm against a cache directory.  Each request uses one
    # cache tier: a report-tier audit solves its misses without the
    # summary cache, so the summary tier is filled and measured by
    # audits with the report tier off.
    config = AnalysisConfig(cache_dir=str(tmp_path))
    summaries_only = config.with_(report_cache=False)
    cold_report, cold_seconds, cold = _audit(sources, config)
    _, _, summary_cold = _audit(sources, summaries_only)
    summary_report, summary_seconds, summary_warm = _audit(
        sources, summaries_only)
    warm_report, warm_seconds, warm = _audit(sources, config)

    solved_cold = cold.get("analysis.executor.solved_functions", 0)
    assert solved_cold > 0
    assert "analysis.cache.store" not in cold
    # Summary tier: every component served from wave shards, zero
    # re-solves, one shard read per wave rather than one per entry.
    assert summary_warm.get("analysis.executor.solved_functions", 0) == 0
    assert summary_warm["analysis.cache.hit"] == \
        summary_cold["analysis.cache.miss"]
    assert 0 < summary_warm["analysis.cache.shard_read"] < \
        summary_warm["analysis.cache.hit"]
    # Report tier: one hit per file, neither compile nor solve runs.
    assert warm["analysis.report_cache.hit"] == len(sources)
    assert warm.get("analysis.report_cache.miss", 0) == 0
    assert warm.get("analysis.executor.solved_functions", 0) == 0
    assert "analysis.cache.hit" not in warm
    for other in (summary_report, warm_report):
        assert json.dumps(other.to_dict()) == \
            json.dumps(cold_report.to_dict())
    assert json.dumps(cold_report.to_dict(), sort_keys=False) == payloads[1]

    # The ISSUE contract: a warm audit is at least 2× faster than cold.
    warm_speedup = round(cold_seconds / max(warm_seconds, 1e-9), 2)
    assert warm_speedup >= 2.0, \
        f"warm audit only {warm_speedup}x faster than cold"

    breakdown = cold_report.breakdown
    assert cold_report.total == sum(breakdown.values())
    assert cold_report.total > 0

    cpu_count = os.cpu_count() or 1
    payload = {
        "schema_version": "1.0",
        "host": {"cpu_count": cpu_count},
        "corpus": {
            "seed": SEED, "scale": SCALE,
            "files": len(corpus.files), "loc": corpus.total_loc,
        },
        "audit": {
            "seconds_by_jobs": {str(j): timings[j] for j in JOBS_SWEEP},
            "report_identical_across_jobs": True,
            "interior_unsafe_functions": cold_report.total,
            "breakdown": breakdown,
        },
        "summaries": {
            "solved_functions_cold": solved_cold,
            "solved_functions_warm": 0,
            "cache": {
                "cold_miss": summary_cold.get("analysis.cache.miss", 0),
                "cold_store": summary_cold.get("analysis.cache.store", 0),
                "warm_hit": summary_warm.get("analysis.cache.hit", 0),
                "warm_shard_reads": summary_warm.get(
                    "analysis.cache.shard_read", 0),
                "warm_report_hits": warm.get(
                    "analysis.report_cache.hit", 0),
            },
            "seconds_cold": cold_seconds,
            "seconds_warm_summary_tier": summary_seconds,
            "seconds_warm": warm_seconds,
            # warm_speedup (cold/warm, higher is better) replaces the
            # old warm_delta_seconds, whose "seconds" suffix made
            # bench-diff read a *bigger* saving as a regression.
            # Enforced by bench-diff even under --warn.
            "warm_speedup": warm_speedup,
        },
    }
    BENCH_UNSAFE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    round_trip = json.loads(BENCH_UNSAFE_PATH.read_text())
    assert round_trip["summaries"]["solved_functions_warm"] == 0
    assert round_trip["summaries"]["warm_speedup"] >= 2.0

    emit("interior-unsafe audit",
         f"audit seconds by jobs: {payload['audit']['seconds_by_jobs']}"
         f" (cpus: {cpu_count})\n"
         f"interior-unsafe fns: {cold_report.total} — "
         + ", ".join(f"{k}: {v}" for k, v in sorted(breakdown.items()))
         + f"\ncold: {solved_cold} summaries solved in {cold_seconds}s; "
           f"warm (summary tier): {summary_seconds}s; "
           f"warm (report tier): {warm_seconds}s "
           f"({warm_speedup}x vs cold)")
