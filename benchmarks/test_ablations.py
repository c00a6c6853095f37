"""Ablation benchmarks for the design choices DESIGN.md calls out.

* double-lock intra-procedural only vs inter-procedural (recall);
* use-after-free with vs without the interprocedural return summaries
  (the Figure 7 case needs them);
* schedule exploration: how many seeds manifest an injected deadlock
  dynamically (the Miri-style "needs a triggering input" limitation the
  paper describes for dynamic tools).
"""

import pytest

from conftest import emit

from repro.analysis.config import AnalysisConfig
from repro.corpus import evaluate_detectors, generate_corpus
from repro.detectors.base import AnalysisContext
from repro.detectors.double_lock import DoubleLockDetector
from repro.detectors.use_after_free import UseAfterFreeDetector
from repro.driver import compile_source
from repro.mir.interp import ScheduleConfig, explore_schedules, run_program


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=0, scale=1)


@pytest.mark.benchmark(group="double-lock-ablation")
def test_double_lock_interprocedural(benchmark, corpus):
    result = benchmark(evaluate_detectors, corpus,
                       AnalysisConfig(detectors=("double-lock",)))
    score = result.scores["double-lock"]
    emit("double-lock, inter-procedural",
         f"found {score.found}/{score.injected}")
    assert score.found == score.injected


@pytest.mark.benchmark(group="double-lock-ablation")
def test_double_lock_intraprocedural_only(benchmark, corpus):
    result = benchmark(evaluate_detectors, corpus,
                       AnalysisConfig(detectors=("double-lock",),
                                      interprocedural=False))
    score = result.scores["double-lock"]
    emit("double-lock, intra-procedural only",
         f"found {score.found}/{score.injected} "
         f"(misses the callee-locks cases: {score.missed})")
    # The inter-procedural cases are missed without summaries.
    assert score.found < score.injected


FIG7 = """
struct BioSlice { v: i32 }
impl BioSlice {
    fn new(data: i32) -> BioSlice { BioSlice { v: data } }
    fn as_ptr(&self) -> *const BioSlice {
        &self.v as *const i32 as *const BioSlice
    }
}
fn sign(data: Option<i32>) {
    let p = match data {
        Some(d) => BioSlice::new(d).as_ptr(),
        None => ptr::null_mut(),
    };
    unsafe { let cms = CMS_sign(p); }
}
"""


@pytest.mark.benchmark(group="uaf-ablation")
def test_uaf_with_return_summaries(benchmark):
    def run():
        compiled = compile_source(FIG7)
        ctx = AnalysisContext(compiled.program)
        return UseAfterFreeDetector().run(ctx)
    findings = benchmark(run)
    emit("use-after-free with interprocedural return summaries (Figure 7)",
         f"findings: {len(findings)}")
    assert findings


@pytest.mark.benchmark(group="uaf-ablation")
def test_uaf_without_return_summaries(benchmark):
    def run():
        compiled = compile_source(FIG7)
        ctx = AnalysisContext(compiled.program,
                              AnalysisConfig(interprocedural=False))
        return UseAfterFreeDetector().run(ctx)
    findings = benchmark(run)
    emit("use-after-free without return summaries",
         f"findings: {len(findings)} (Figure 7 needs the summary to see "
         f"that as_ptr() aliases its receiver)")
    assert not findings


RACE_PRONE = """
struct Inner { m: i32 }
fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
fn main() {
    let client = RwLock::new(Inner { m: 5 });
    match connect(client.read().unwrap().m) {
        Ok(x) => {
            let mut inner = client.write().unwrap();
            inner.m = x;
        }
        Err(e) => {}
    };
}
"""


def test_schedule_exploration_manifests_deadlock(benchmark):
    """Dynamic checking à la Miri: the bug manifests only when executed.
    Here the self-deadlock manifests under *every* schedule (it is not
    interleaving-dependent), illustrating the static detector's advantage
    of not needing an input at all."""
    program = compile_source(RACE_PRONE).program
    results = benchmark(explore_schedules, program, "main", list(range(4)),
                        3)
    outcomes = [r.outcome for r in results]
    emit("schedule exploration over Figure 8",
         f"outcomes across seeds: {outcomes}")
    assert all(o == "deadlock" for o in outcomes)


def test_static_vs_dynamic_cost(benchmark):
    """The paper's pitch for static checking: one pass over MIR versus one
    execution per (input, schedule) pair."""
    compiled = compile_source(RACE_PRONE)

    def static_pass():
        ctx = AnalysisContext(compiled.program)
        return DoubleLockDetector().run(ctx)

    findings = benchmark(static_pass)
    assert findings
