"""Tests for the summary engine: SCC fixpoints, effect chains, and the
cross-function provenance the detectors attach from them."""

from conftest import check, compile_, detectors_named

from repro.analysis.engine import SummaryEngine
from repro.detectors.base import AnalysisContext


def engine_of(src: str) -> SummaryEngine:
    return SummaryEngine(compile_(src).program)


# Callers are defined before callees on purpose: a bounded round loop
# that walks functions in definition order propagates return facts one
# level per round, so a 3-round schedule would lose this 4-deep chain.
CHAIN_SRC = """
fn chain1(p: *const i32) -> *const i32 { chain2(p) }
fn chain2(p: *const i32) -> *const i32 { chain3(p) }
fn chain3(p: *const i32) -> *const i32 { chain4(p) }
fn chain4(p: *const i32) -> *const i32 { p }
"""


class TestReturnChainFixpoint:
    def test_engine_summaries_reach_four_deep(self):
        engine = engine_of(CHAIN_SRC)
        for fn in ("chain1", "chain2", "chain3", "chain4"):
            assert 0 in engine.summary(fn).returns, fn

    def test_chain_feeds_null_deref_end_to_end(self):
        report = check(CHAIN_SRC + """
fn main() {
    let p = chain1(ptr::null());
    unsafe { let x = *p; print(x); }
}
""")
        assert detectors_named(report, "null-deref")


class TestRecursiveFixpoint:
    def test_self_recursive_drop_converges(self):
        engine = engine_of("""
fn consume(v: Vec<i32>, n: i32) {
    if n > 0 {
        consume(v, n - 1);
    }
}
""")
        summary = engine.summary("consume")
        assert summary.drops_arg(0)
        assert not summary.drops_arg(1)

    def test_mutual_recursion_returns_converge(self):
        engine = engine_of("""
fn ping(p: *const i32, n: i32) -> *const i32 {
    if n > 0 { pong(p, n - 1) } else { p }
}
fn pong(p: *const i32, n: i32) -> *const i32 {
    ping(p, n)
}
""")
        assert 0 in engine.summary("ping").returns
        assert 0 in engine.summary("pong").returns


class TestDropChains:
    TWO_DEEP_UAF = """
fn sink_inner(v: Vec<i32>) {
    print(1);
}
fn sink(v: Vec<i32>) {
    sink_inner(v);
}
fn main() {
    let buffer = vec![1, 2, 3];
    let p = buffer.as_ptr();
    sink(buffer);
    unsafe {
        let x = *p;
        print(x);
    }
}
"""

    def test_uaf_free_two_calls_deep(self):
        report = check(self.TWO_DEEP_UAF)
        findings = detectors_named(report, "use-after-free")
        assert findings
        assert findings[0].fn_key == "main"

    def test_drop_chain_hops(self):
        engine = engine_of(self.TWO_DEEP_UAF)
        assert engine.summary("sink").may_drop_args[0] == ("sink_inner", 0)
        assert engine.summary("sink_inner").may_drop_args[0] == \
            ("sink_inner", 0)
        assert engine.drop_chain("sink", 0) == ["sink", "sink_inner"]

    def test_provenance_chain_end_to_end(self):
        report = check(self.TWO_DEEP_UAF)
        finding = detectors_named(report, "use-after-free")[0]
        chain_facts = [f for f in finding.provenance
                       if f["kind"] == "summary-chain"]
        assert chain_facts, [f["kind"] for f in finding.provenance]
        fact = chain_facts[0]
        assert fact["chain"] == ["main", "sink", "sink_inner"]
        assert fact["callee"] == "sink"
        assert fact["position"] == 0
        # Summary-chain facts extend the intra-procedural trail, they do
        # not replace it.
        kinds = [f["kind"] for f in finding.provenance]
        assert kinds.index("points-to") < kinds.index("summary-chain")

    def test_forwarding_without_drop_is_clean(self):
        report = check("""
fn keep(v: Vec<i32>) -> Vec<i32> {
    v
}
fn main() {
    let buffer = vec![1, 2, 3];
    let p = buffer.as_ptr();
    let kept = keep(buffer);
    unsafe {
        let x = *p;
        print(x);
    }
    print(kept.len() as i32);
}
""")
        assert not detectors_named(report, "use-after-free")


class TestLockChains:
    def test_double_lock_through_helper(self):
        report = check("""
fn helper_inner(m: &Mutex<i32>) -> i32 {
    let g = m.lock().unwrap();
    *g
}
fn helper(m: &Mutex<i32>) -> i32 {
    helper_inner(m)
}
fn outer(m: &Mutex<i32>) {
    let g = m.lock().unwrap();
    let v = helper(m);
    print(v + *g);
}
""")
        findings = detectors_named(report, "double-lock")
        assert findings
        finding = findings[0]
        assert finding.fn_key == "outer"
        assert finding.metadata.get("interprocedural")
        chain_facts = [f for f in finding.provenance
                       if f["kind"] == "summary-chain"]
        assert chain_facts
        assert chain_facts[0]["chain"] == ["outer", "helper", "helper_inner"]

    def test_lock_chain_api(self):
        ctx = AnalysisContext(compile_("""
fn helper_inner(m: &Mutex<i32>) -> i32 {
    let g = m.lock().unwrap();
    *g
}
fn helper(m: &Mutex<i32>) -> i32 {
    helper_inner(m)
}
""").program)
        summary = ctx.summary("helper")
        assert summary.acquires_any_lock
        (lock,) = summary.locks
        assert lock[0] == "arg" and lock[1] == 0
        assert ctx.lock_chain("helper", lock) == ["helper", "helper_inner"]

    def test_guard_returned_by_helper(self):
        report = check("""
fn acquire(m: &Mutex<i32>) -> MutexGuard<i32> {
    m.lock().unwrap()
}
fn outer(m: &Mutex<i32>) {
    let g = acquire(m);
    let g2 = m.lock().unwrap();
    print(*g + *g2);
}
""")
        findings = detectors_named(report, "double-lock")
        assert findings
        finding = findings[0]
        assert finding.fn_key == "outer"
        chain_facts = [f for f in finding.provenance
                       if f["kind"] == "summary-chain"]
        assert chain_facts
        assert "acquire" in chain_facts[0]["chain"]


class TestCallsUnknown:
    def test_ffi_poisons_transitively(self):
        engine = engine_of("""
fn leaf(x: i32) -> i32 {
    unsafe { ffi_do(x) }
}
fn mid(x: i32) -> i32 {
    leaf(x)
}
fn top(x: i32) -> i32 {
    mid(x)
}
""")
        assert engine.summary("leaf").calls_unknown
        assert engine.summary("mid").calls_unknown
        assert engine.summary("top").calls_unknown

    def test_pure_chain_is_clean(self):
        engine = engine_of("""
fn leaf(x: i32) -> i32 { x + 1 }
fn top(x: i32) -> i32 { leaf(x) }
""")
        assert not engine.summary("top").calls_unknown
