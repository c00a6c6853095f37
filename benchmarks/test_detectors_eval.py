"""§7 detector evaluation benchmark.

The paper: "our [use-after-free] detector found four previously unknown
bugs [with] three false positives" and "our [double-lock] detector has
identified six previously unknown double-lock bugs [with] no false
positives".  Here the ground truth is the injected-bug corpus, so we can
report exact recall and false-positive counts per detector — the *shape*
to preserve is both paper detectors finding real bugs, and the double-lock
detector staying FP-free.
"""

import pytest

from conftest import emit

from repro.analysis.config import AnalysisConfig
from repro.corpus import evaluate_detectors, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=0, scale=1)


def test_full_detector_suite(benchmark, corpus):
    result = benchmark(evaluate_detectors, corpus)
    rows = ["detector                  injected found FP  recall"]
    for name, injected, found, fps, recall in result.summary_rows():
        rows.append(f"{name:25} {injected:>8} {found:>5} {fps:>3} "
                    f"{recall:>6}")
    emit("§7 detector evaluation on the injected-bug corpus "
         f"({result.files} files, {result.loc} LOC)", "\n".join(rows))
    for name, score in result.scores.items():
        assert score.found == score.injected, f"{name}: {score.missed}"
        assert score.false_positives == 0, name


def test_uaf_detector_alone(benchmark, corpus):
    result = benchmark(evaluate_detectors, corpus,
                       AnalysisConfig(detectors=("use-after-free",)))
    score = result.scores["use-after-free"]
    emit("§7.1 use-after-free detector (paper: 4 new bugs, 3 FPs)",
         f"injected {score.injected}, found {score.found}, "
         f"false positives {score.false_positives}")
    assert score.found == score.injected


def test_double_lock_detector_alone(benchmark, corpus):
    result = benchmark(evaluate_detectors, corpus,
                       AnalysisConfig(detectors=("double-lock",)))
    score = result.scores["double-lock"]
    emit("§7.2 double-lock detector (paper: 6 new bugs, 0 FPs)",
         f"injected {score.injected}, found {score.found}, "
         f"false positives {score.false_positives}")
    assert score.found == score.injected
    assert score.false_positives == 0
