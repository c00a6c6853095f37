"""Unsafe-provenance analysis, its detectors, and the §5 audit.

Covers the PR-5 tentpole (interprocedural unsafe-provenance summaries)
and its satellites: the three new detectors, the summary-carried lock
orders (ABBA split across a helper), hypothesis properties (fixpoint
termination on recursive templates, monotone composition), and
byte-identity of the audit output across worker counts and cache
temperature.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import compile_

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import SummaryEngine
from repro.analysis.unsafe_prop import (
    CALLER_DELEGATED, CHECKED, UNCHECKED, UnsafeProvenance, arg_taint,
    classify_interior_unsafe, compute_unsafe_provenance, taint_seeds,
    unsafe_born_locals,
)
from repro.api import AnalysisSession, analyze, audit_unsafe
from repro.cli import main as cli_main
from repro.detectors.base import AnalysisContext
from repro.detectors.registry import detector_by_name


def summary_of(src: str, key: str):
    program = compile_(src).program
    return SummaryEngine(program).summary(key)


TABLE_SRC = """
struct Table { data: *mut u8, len: usize }
impl Table {
    fn get_raw(&self, index: usize) -> u8 {
        unsafe { *self.data.add(index) }
    }
    pub fn get(&self, index: usize) -> u8 {
        self.get_raw(index)
    }
    pub fn get_checked(&self, index: usize) -> u8 {
        if index >= self.len { return 0; }
        unsafe { *self.data.add(index) }
    }
}
"""

LEAK_SRC = """
fn make() -> *mut u8 {
    unsafe { alloc(16) }
}
pub fn expose() -> *mut u8 {
    make()
}
fn keep_private() -> *mut u8 {
    make()
}
"""


class TestProvenanceComponent:
    def test_taint_seeds_only_raw_and_int_args(self):
        src = """
        fn f(p: *const i32, n: usize, v: &Vec<i32>, o: Option<i32>) {
            print(n);
        }
        """
        body = compile_(src).program.functions["f"]
        positions = {pos for s in taint_seeds(body).values() for pos in s}
        assert positions == {0, 1}

    def test_taint_flows_through_arithmetic(self):
        src = """
        fn f(n: usize) -> usize {
            let doubled = n * 2;
            let shifted = doubled + 1;
            shifted
        }
        """
        body = compile_(src).program.functions["f"]
        taint = arg_taint(body)
        assert frozenset({0}) in taint.values()

    def test_direct_unguarded_sink(self):
        prov = summary_of(TABLE_SRC, "Table::get_raw").unsafe_provenance
        assert 1 in prov.arg_sinks
        kind, hop, _span = prov.arg_sinks[1]
        assert kind == "offset"
        assert hop is None

    def test_sink_composes_through_wrapper(self):
        prov = summary_of(TABLE_SRC, "Table::get").unsafe_provenance
        assert 1 in prov.arg_sinks
        _kind, hop, _span = prov.arg_sinks[1]
        assert hop == ("Table::get_raw", 1)

    def test_dominating_guard_suppresses_sink(self):
        prov = summary_of(TABLE_SRC, "Table::get_checked").unsafe_provenance
        assert not prov.arg_sinks
        assert 1 in prov.guarded_args

    def test_returns_unsafe_ptr_propagates(self):
        assert summary_of(LEAK_SRC, "make") \
            .unsafe_provenance.returns_unsafe_ptr
        assert summary_of(LEAK_SRC, "expose") \
            .unsafe_provenance.returns_unsafe_ptr

    def test_unsafe_born_requires_unsafe_region(self):
        src = """
        fn f(v: &Vec<i32>) -> *const i32 {
            let p = v.as_ptr();
            p
        }
        """
        body = compile_(src).program.functions["f"]
        assert not unsafe_born_locals(body)

    def test_delegation_to_unsafe_fn(self):
        src = """
        unsafe fn raw_write(p: *mut i32) { *p = 1; }
        fn forward(p: *mut i32) {
            unsafe { raw_write(p); }
        }
        """
        prov = summary_of(src, "forward").unsafe_provenance
        assert 0 in prov.delegated_args
        # The callee's own summary also carries the deref sink, so the
        # wrapper composes it through the hop — both facts coexist.
        assert prov.arg_sinks.get(0, (None, None, None))[1] == \
            ("raw_write", 0)

    def test_classification_order(self):
        assert classify_interior_unsafe(UnsafeProvenance()) == CHECKED
        assert classify_interior_unsafe(UnsafeProvenance(
            delegated_args=frozenset({0}))) == CALLER_DELEGATED
        assert classify_interior_unsafe(UnsafeProvenance(
            arg_sinks={0: ("deref", None, None)})) == UNCHECKED


class TestUnsafeDetectors:
    def test_leak_requires_pub(self):
        report = analyze(LEAK_SRC)
        leaks = report.report.by_detector("unsafe-leak")
        assert [f.fn_key for f in leaks] == ["expose"]

    def test_static_escape(self):
        src = """
        static GLOBAL_PTR: *mut u8 = ptr::null_mut();
        fn stash() {
            let p = unsafe { alloc(8) };
            GLOBAL_PTR = p;
        }
        """
        report = analyze(src)
        leaks = report.report.by_detector("unsafe-leak")
        assert len(leaks) == 1
        assert leaks[0].kind == "raw-ptr-static-escape"

    def test_safe_ptr_return_not_a_leak(self):
        src = """
        pub fn null_handle() -> *mut i32 {
            ptr::null_mut()
        }
        """
        assert not analyze(src).findings

    def test_unchecked_input_reported_with_chain(self):
        report = analyze(TABLE_SRC)
        hits = report.report.by_detector("unchecked-unsafe-input")
        assert {f.fn_key for f in hits} == {"Table::get_raw", "Table::get"}
        wrapper = [f for f in hits if f.fn_key == "Table::get"][0]
        chains = [fact for fact in wrapper.provenance
                  if fact.get("kind") == "summary-chain"]
        assert chains and chains[0]["chain"] == \
            ["Table::get", "Table::get_raw"]

    def test_unsafe_fn_bodies_skipped(self):
        src = """
        unsafe fn deref(p: *const i32) -> i32 { *p }
        """
        report = analyze(src)
        assert not report.report.by_detector("unchecked-unsafe-input")

    def test_audit_detector_silent_without_flag(self):
        report = analyze(TABLE_SRC)
        assert not report.report.by_detector("interior-unsafe-audit")

    def test_audit_classifies_under_flag(self):
        # Naming the census in the selection is all it takes to run it.
        config = AnalysisConfig(detectors=("interior-unsafe-audit",))
        report = analyze(TABLE_SRC, config=config)
        rows = {f.fn_key: f.metadata["classification"]
                for f in report.findings}
        assert rows == {"Table::get_raw": UNCHECKED,
                        "Table::get_checked": CHECKED}

    def test_check_runs_the_audit_when_named(self, tmp_path, capsys):
        path = tmp_path / "table.rs"
        path.write_text(TABLE_SRC)
        code = cli_main(["check", "--detector", "interior-unsafe-audit",
                         str(path)])
        out = capsys.readouterr().out
        assert code == 0            # audit rows are notes, not bugs
        assert "[interior-unsafe-audit] note: interior-unsafe fn " \
            "`Table::get_raw`: unchecked" in out


class TestLockOrderViaSummaries:
    ABBA_SPLIT = """
    static LOCK_A: Mutex<i32> = Mutex::new(0);
    static LOCK_B: Mutex<i32> = Mutex::new(0);
    fn both(first: &Mutex<i32>, second: &Mutex<i32>) {
        let f = first.lock().unwrap();
        let s = second.lock().unwrap();
        print(*f + *s);
    }
    fn forward() { both(&LOCK_A, &LOCK_B); }
    fn backward() { both(&LOCK_B, &LOCK_A); }
    """

    def test_abba_split_across_helper_detected(self):
        # Regression: the helper's own lock-order pairs are
        # argument-relative, and lock-order keeps only static / heap
        # pairs; the callers' summaries must surface the cycle once they
        # resolve both ids to statics.
        report = analyze(self.ABBA_SPLIT)
        hits = report.report.by_detector("lock-order")
        assert len(hits) == 1
        cycle = set(hits[0].metadata["cycle"])
        assert any("LOCK_A" in c for c in cycle)
        assert any("LOCK_B" in c for c in cycle)

    def test_consistent_order_through_helper_is_silent(self):
        src = self.ABBA_SPLIT.replace("both(&LOCK_B, &LOCK_A)",
                                      "both(&LOCK_A, &LOCK_B)")
        report = analyze(src)
        assert not report.report.by_detector("lock-order")

    def test_summary_records_arg_relative_order(self):
        program = compile_(self.ABBA_SPLIT).program
        summary = SummaryEngine(program).summary("both")
        kinds = {(a[0], b[0]) for a, b in summary.lock_orders}
        assert ("arg", "arg") in kinds


# ---------------------------------------------------------------------------
# Hypothesis properties: termination and monotone composition
# ---------------------------------------------------------------------------

@st.composite
def recursive_chain_program(draw):
    """A chain of helpers ending in an unsafe sink, with optional direct
    or mutual recursion and optional guards mixed in."""
    depth = draw(st.integers(min_value=1, max_value=4))
    recursion = draw(st.sampled_from(["none", "self", "mutual"]))
    guarded_at = draw(st.integers(min_value=-1, max_value=depth - 1))
    lines = ["fn sink(p: *mut i32, n: usize) -> i32 {",
             "    unsafe { *p.add(n) }",
             "}"]
    prev = "sink"
    for level in range(depth):
        name = f"hop{level}"
        guard = f"if n >= {level + 3} {{ return 0; }}" \
            if guarded_at == level else ""
        # The recursion condition branches on `p`, not `n`: a branch on
        # tainted `n` would (correctly) register as a guard on position 1
        # and mask the arg_sinks assertions below.
        recurse = ""
        if recursion == "self" and level == depth - 1:
            recurse = f"if p.is_null() {{ return {name}(p, n); }}"
        lines.append(
            f"fn {name}(p: *mut i32, n: usize) -> i32 {{ {guard} "
            f"{recurse} {prev}(p, n) }}")
        prev = name
    if recursion == "mutual":
        lines.append(f"fn ping(p: *mut i32, n: usize) -> i32 {{ "
                     f"pong(p, n) }}")
        lines.append(f"fn pong(p: *mut i32, n: usize) -> i32 {{ "
                     f"if p.is_null() {{ return ping(p, n); }} {prev}(p, n) }}")
    return "\n".join(lines), depth, guarded_at, recursion


@given(recursive_chain_program())
@settings(max_examples=30, deadline=None)
def test_fixpoint_terminates_and_tracks_chain(case):
    src, depth, guarded_at, recursion = case
    program = compile_(src).program
    engine = SummaryEngine(program)         # diverging fixpoint = hang
    top = engine.summary(f"hop{depth - 1}")
    prov = top.unsafe_provenance
    if guarded_at == depth - 1:
        # The topmost hop guards n before forwarding: n is sanitised.
        assert 1 not in prov.arg_sinks
    elif guarded_at == -1:
        # Nothing guards the chain: both args flow to the sink.
        assert 1 in prov.arg_sinks
    if recursion == "mutual":
        ping = engine.summary("ping").unsafe_provenance
        pong = engine.summary("pong").unsafe_provenance
        if guarded_at == -1:
            assert 1 in ping.arg_sinks and 1 in pong.arg_sinks


@given(st.integers(min_value=0, max_value=999))
@settings(max_examples=20, deadline=None)
def test_wrapper_provenance_contains_helper_provenance(salt):
    """Monotone composition: an unguarded pass-through wrapper reports at
    least the argument sinks of its helper (positions shifted through the
    call's argument sources)."""
    src = f"""
    fn helper_{salt}(p: *mut i32, n: usize) -> i32 {{
        unsafe {{ *p.add(n) }}
    }}
    fn wrap_{salt}(p: *mut i32, n: usize) -> i32 {{
        helper_{salt}(p, n)
    }}
    """
    program = compile_(src).program
    engine = SummaryEngine(program)
    helper = engine.summary(f"helper_{salt}").unsafe_provenance
    wrapper = engine.summary(f"wrap_{salt}").unsafe_provenance
    assert set(helper.arg_sinks) <= set(wrapper.arg_sinks)


# ---------------------------------------------------------------------------
# Determinism: jobs sweep and cache temperature
# ---------------------------------------------------------------------------

class TestAuditDeterminism:
    @pytest.fixture(scope="class")
    def corpus_sources(self):
        from repro.corpus import generate_corpus
        corpus = generate_corpus(seed=3)
        return [(f.name, f.text) for f in corpus.files]

    def test_audit_identical_across_jobs(self, corpus_sources):
        payloads = []
        for jobs in (1, 2, 4):
            result = audit_unsafe(corpus_sources,
                                  config=AnalysisConfig(jobs=jobs))
            payloads.append(json.dumps(result.to_dict(), sort_keys=True))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_audit_identical_cold_vs_warm(self, corpus_sources, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        cold = audit_unsafe(corpus_sources, config=config)
        warm = audit_unsafe(corpus_sources, config=config)
        assert json.dumps(cold.to_dict()) == json.dumps(warm.to_dict())

    def test_findings_identical_across_jobs(self, corpus_sources):
        names = ("unsafe-leak", "unchecked-unsafe-input")
        rendered = []
        for jobs in (1, 2):
            with AnalysisSession(AnalysisConfig(jobs=jobs,
                                                detectors=names)) as s:
                reports = s.analyze_sources(corpus_sources)
            rendered.append(json.dumps(
                [r.to_dict() for r in reports], sort_keys=True))
        assert rendered[0] == rendered[1]

    def test_audit_report_shape(self, corpus_sources):
        result = audit_unsafe(corpus_sources[:4])
        payload = result.to_dict()
        assert set(payload) == {"schema_version", "total", "breakdown",
                                "functions"}
        assert payload["total"] == len(payload["functions"])
        assert sum(payload["breakdown"].values()) == payload["total"]
        assert result.render()


class TestDetectorRegistration:
    def test_new_detectors_registered(self):
        for name in ("unsafe-leak", "unchecked-unsafe-input",
                     "interior-unsafe-audit"):
            assert detector_by_name(name) is not None

    def test_summary_component_in_context(self):
        program = compile_(TABLE_SRC).program
        ctx = AnalysisContext(program)
        prov = ctx.summary("Table::get").unsafe_provenance
        assert 1 in prov.arg_sinks
