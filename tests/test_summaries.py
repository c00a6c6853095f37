"""Tests for the summary engine: SCC fixpoints, effect chains, and the
cross-function provenance the detectors attach from them."""

import ast
import os

import pytest
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

    def test_extern_block_function_is_foreign_code(self):
        # A function declared in an ``extern`` block has no body: a call
        # to it is an FFI call, so the argument handed over escapes.
        from repro.hir.builtins import BuiltinOp, FuncKind
        from repro.mir.interp import run_program
        program = compile_("""
extern "C" { fn c_sink(v: Vec<i32>); }
fn shape(v: Vec<i32>) { unsafe { c_sink(v); } }
fn main() { let v = vec![1, 2]; shape(v); }
""").program
        call, = [term for _bb, term in program.body("shape").iter_terminators()
                 if term.func is not None]
        assert call.func.kind is FuncKind.BUILTIN
        assert call.func.builtin_op is BuiltinOp.FFI
        summary = SummaryEngine(program).summary("shape")
        assert 0 in summary.arg_escapes
        assert summary.calls_unknown
        assert run_program(program).outcome == "ok"

    def test_pure_chain_is_clean(self):
        engine = engine_of("""
fn leaf(x: i32) -> i32 { x + 1 }
fn top(x: i32) -> i32 { leaf(x) }
""")
        assert not engine.summary("top").calls_unknown


# ---------------------------------------------------------------------------
# The ownership-fate query
# ---------------------------------------------------------------------------

#: The one owned argument ``v`` of ``shape`` in each shape →
#: ``(may_drop_args, arg_escapes)``; ``"self"`` is the self-hop.
_FATE_HELPERS = """
fn sink(v: Vec<i32>) { drop(v); }
fn keep(v: Vec<i32>) { mem::forget(v); }
"""

_FATE_TABLE = [
    ("drop(v);", {0: "self"}, {}),
    ("mem::forget(v);", {}, {}),
    ("sink(v);", {0: ("sink", 0)}, {}),
    # Self-hop from `w`'s scope-exit DROP, not the hop into `sink`.
    ("let w = v; sink(w);", {0: "self"}, {}),
    ("mystery_ffi(v);", {0: "self"}, {0: "self"}),
    ("return v;", {}, {}),
    pytest.param(
        "keep(v);", {}, {},
        marks=pytest.mark.xfail(strict=True, reason=(
            "an owned argument moved into a callee that keeps it still "
            "gets the self-hop: ownership is assumed to die with the "
            "frame (ROADMAP 'One drop semantics')"))),
]


class TestOwnershipFate:
    @pytest.mark.parametrize("body, may_drop, escapes", _FATE_TABLE)
    def test_rule_table(self, body, may_drop, escapes):
        ret = " -> Vec<i32>" if body.startswith("return") else ""
        engine = engine_of(_FATE_HELPERS
                           + f"fn shape(v: Vec<i32>){ret} {{ {body} }}")
        summary = engine.summary("shape")

        def hops(table):
            return {position: ("shape", position) if hop == "self" else hop
                    for position, hop in table.items()}

        assert summary.may_drop_args == hops(may_drop)
        assert summary.arg_escapes == hops(escapes)


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _parsed_modules():
    """``(module, syntax tree)`` of every module under ``src/repro``."""
    for root, _dirs, files in sorted(os.walk(_SRC)):
        package = os.path.relpath(root, _SRC).replace(os.sep, ".")
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            module = "repro" + ("" if package == "." else "." + package) \
                + "." + fname[:-3]
            with open(os.path.join(root, fname), encoding="utf-8") as f:
                yield module, ast.parse(f.read())


#: Functions outside the query's module that may name
#: ``BuiltinOp.MEM_DROP``, with the reason each may.
_MEM_DROP_ALLOWED = {
    ("repro.analysis.lifetime", "_propagate_region"):
        "the guard walk is flow-sensitive: `mem::drop` of the last "
        "guard-chain local is a release point, not an ownership fact",
}


def _ownership_rule_uses():
    """``(module, qualified function, what)`` of every use of the
    ownership rule's vocabulary under ``src/repro/analysis`` and
    ``src/repro/detectors``, outside ``repro.analysis.summaries``."""
    found = []
    for module, tree in _parsed_modules():
        if not module.startswith(("repro.analysis.", "repro.detectors.")) \
                or module == "repro.analysis.summaries":
            continue

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                what = None
                if isinstance(child, ast.Attribute) \
                        and child.attr in ("MEM_DROP", "MEM_FORGET") \
                        and getattr(child.value, "id", None) \
                        == "BuiltinOp":
                    what = child.attr
                elif isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and child.func.attr == "drops_arg":
                    what = "drops_arg"
                if what is not None:
                    found.append((module, ".".join(scope), what))
                visit(child, scope)

        visit(tree, [])
    return found


def test_only_the_query_reads_the_ownership_rule():
    uses = _ownership_rule_uses()
    assert ("repro.analysis.lifetime", "_propagate_region", "MEM_DROP") \
        in uses, "the scan no longer finds the guard walk's release rule"
    unexpected = [use for use in uses
                  if use[2] != "MEM_DROP"
                  or use[:2] not in _MEM_DROP_ALLOWED]
    assert not unexpected, unexpected


#: The shared-access walk's parts, which only
#: :func:`~repro.analysis.summaries.shared_access_sites` may call.
_WALK_PARTS = ("deref_access_sites", "translate_access_loc")

#: Caller-frame lock naming, which the data-race detector takes from the
#: walk instead of re-deriving it.
_LOCK_NAMING = ("caller_lock_ids", "lock_identity")


def _names(tree):
    """Every name a syntax tree calls, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _called(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", None) or getattr(func, "attr", None)


def test_one_walk_derives_shared_accesses():
    modules = dict(_parsed_modules())
    callers = sorted((module, name) for module, tree in modules.items()
                     if module != "repro.analysis.summaries"
                     for name in _called(tree) if name in _WALK_PARTS)
    assert not callers, callers
    named = set(_names(modules["repro.detectors.data_race"]))
    assert not named & set(_LOCK_NAMING), named & set(_LOCK_NAMING)
    assert "shared_access_sites" in named
    walk = [node for node in ast.walk(modules["repro.analysis.summaries"])
            if isinstance(node, ast.FunctionDef)
            and node.name == "shared_access_sites"]
    assert walk and set(_WALK_PARTS) <= set(_called(walk[0])), \
        "the scan no longer finds the walk's own calls"


#: The deleted second call-site translation and try-lock knob.
_GONE = ("translate_lock", "_caller_order_ids", "include_try")

#: The try-acquisition ops, which on the static side only the op
#: table in `repro.analysis.scan` names.
_TRY_OPS = ("MUTEX_TRY_LOCK", "RWLOCK_TRY_READ", "RWLOCK_TRY_WRITE")

#: The static side: the analyses, the detectors and the tools.
_STATIC = ("repro.analysis.", "repro.detectors.", "repro.tools.")


def _identifiers(tree):
    """Every name a syntax tree uses, defines, takes as a parameter or
    passes as a keyword."""
    yield from _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


def _module_assigned(tree):
    """The names a module's top level assigns."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_one_lock_identity():
    modules = dict(_parsed_modules())
    gone = sorted((module, name) for module, tree in modules.items()
                  for name in set(_identifiers(tree)) if name in _GONE)
    assert not gone, gone
    tables = sorted((module, name) for module, tree in modules.items()
                    for name in _module_assigned(tree)
                    if name.endswith("ACQUIRE_OPS"))
    assert tables == [("repro.analysis.scan", "LOCK_ACQUIRE_OPS"),
                      ("repro.analysis.scan", "TRY_ACQUIRE_OPS")], tables
    try_ops = sorted(module for module, tree in modules.items()
                     if module != "repro.analysis.scan"
                     and module.startswith(_STATIC)
                     and set(_names(tree)) & set(_TRY_OPS))
    assert not try_ops, try_ops
    defs = [module for module, tree in modules.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "caller_lock_ids"]
    assert defs == ["repro.analysis.lifetime"], defs
