"""The golden findings ledger (``tests/golden/findings.jsonl``) is what
the analyzer reports today: recomputed serially and across two worker
processes, without a cache and over a cold and a warm one, the findings
(provenance included) must match the committed file byte for byte.

Regenerate with ``python tests/golden_ledger.py --write`` only when a
change is meant to move findings, and say which ones moved and why.
"""

import json

import pytest

from repro import obs
from repro.analysis.config import AnalysisConfig

import golden_ledger


@pytest.fixture(scope="module")
def inputs():
    return golden_ledger.ledger_inputs()


@pytest.fixture(scope="module")
def golden():
    return golden_ledger.read_ledger()


def _assert_matches(golden, lines):
    diff = golden_ledger.ledger_diff(golden, lines)
    assert not diff, "findings moved from the golden ledger:\n" + diff


def test_ledger_is_sorted_and_covers_every_input(inputs, golden):
    ids = [json.loads(line)["id"] for line in golden]
    assert ids == sorted(ids)
    assert ids == [ident for ident, _, _ in inputs]


@pytest.mark.parametrize("jobs", [1, 2])
def test_uncached(inputs, golden, jobs):
    _assert_matches(golden, golden_ledger.compute_ledger(
        AnalysisConfig(jobs=jobs), inputs))


@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_then_warm_cache(inputs, golden, jobs, tmp_path):
    config = AnalysisConfig(jobs=jobs, cache_dir=str(tmp_path))
    _assert_matches(golden, golden_ledger.compute_ledger(config, inputs))
    # Warm: every report is served from the report tier.
    _assert_matches(golden, golden_ledger.compute_ledger(config, inputs))
    # Summaries only: the report-tier runs stored no summaries, so with
    # the report tier off every file compiles and fills the summary
    # cache cold, then is served from it warm.
    summaries = config.with_(report_cache=False)
    _assert_matches(golden, golden_ledger.compute_ledger(summaries, inputs))
    with obs.collecting() as warm:
        _assert_matches(golden,
                        golden_ledger.compute_ledger(summaries, inputs))
    assert warm.counters["analysis.cache.hit"] > 0
    assert warm.counters.get("analysis.executor.solved_functions", 0) == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_split_and_merged_corpus_agree(seed):
    """Metamorphic: the corpus analyzed file by file and as one crate
    reports the same ``(detector, kind, fn)`` triples."""
    from repro.api import AnalysisSession
    from repro.corpus import generate_corpus

    corpus = generate_corpus(seed, 1)
    with AnalysisSession() as session:
        split = session.analyze_sources(
            [(f.name, f.text) for f in corpus.files])
        merged = session.analyze_sources(
            [("crate.rs", corpus.combined_source())])

    def triples(reports):
        return {(f.detector, f.kind, f.fn_key)
                for report in reports for f in report.findings}

    assert triples(split) == triples(merged)
