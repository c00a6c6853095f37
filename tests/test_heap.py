"""The analysis heap is acyclic, and ``repro.api`` pauses the cyclic
collector for each operation without changing the caller's setting.

Reference counting frees everything an analysis builds only while no
part of it points back at its owner (DESIGN.md, "Memory: an acyclic
heap").  The guard tests below fail on the first back-reference that
puts a body, an engine or a closure in a cycle, naming the types along
it, so such a change cannot leak quietly through the pause.
"""

import gc
import json

import pytest

from repro import api
from repro.analysis.config import AnalysisConfig
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.generator import generate_corpus
from repro.corpus.inject import BUG_TEMPLATES
from repro.detectors.base import Detector
from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import CompileError
from repro.lang.tokens import Token

SMALL_SRC = """
fn main() {
    let m = Mutex::new(1);
    let g = m.lock().unwrap();
    print(*g);
}
"""

UNSAFE_TEMPLATES = ("good_interior_unsafe", "checked_interior_unsafe",
                    "checked_ffi")


def _one_cycle(objects):
    """Some reference cycle among ``objects``, as a list, or ``[]``."""
    members = {id(obj): obj for obj in objects}
    state = {}                       # id -> 1 on the DFS path, 2 finished
    for root in objects:
        if id(root) in state:
            continue
        path = [root]
        state[id(root)] = 1
        stack = [iter(gc.get_referents(root))]
        while stack:
            for ref in stack[-1]:
                if id(ref) not in members:
                    continue
                if state.get(id(ref)) == 1:
                    return path[[id(o) for o in path].index(id(ref)):]
                if id(ref) not in state:
                    state[id(ref)] = 1
                    path.append(ref)
                    stack.append(iter(gc.get_referents(ref)))
                    break
            else:
                state[id(path.pop())] = 2
                stack.pop()
    return []


def _describe(obj) -> str:
    name = getattr(obj, "__qualname__", None)
    if callable(obj) and name:
        return f"{type(obj).__name__} {name}"
    return type(obj).__qualname__


def assert_no_cyclic_garbage(operation):
    """Run ``operation`` once; it must leave nothing that only the
    cyclic collector can free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        operation()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    if garbage:
        cycle = _one_cycle(garbage)
        pytest.fail(
            f"{len(garbage)} objects were freed only by the cyclic "
            f"collector; one cycle: "
            + " -> ".join(_describe(obj) for obj in cycle))


@pytest.fixture
def collector_on():
    """Each test starts with the collector on and leaves it on."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestAcyclicHeap:
    def test_combined_corpus(self):
        source = generate_corpus(0, 1).combined_source()
        assert_no_cyclic_garbage(lambda: api.analyze(source, name="crate"))

    @pytest.mark.parametrize("name", sorted(BUG_TEMPLATES))
    def test_bug_template(self, name):
        source = BUG_TEMPLATES[name].render("heap")
        assert_no_cyclic_garbage(lambda: api.analyze(source, name=name))

    @pytest.mark.parametrize("name", sorted(BENIGN_TEMPLATES))
    def test_benign_template(self, name):
        source = BENIGN_TEMPLATES[name]("heap")
        assert_no_cyclic_garbage(lambda: api.analyze(source, name=name))

    def test_unsafe_audit(self):
        sources = [(name, BENIGN_TEMPLATES[name]("heap"))
                   for name in UNSAFE_TEMPLATES]
        assert_no_cyclic_garbage(lambda: api.audit_unsafe(sources))

    def test_guard_names_the_cycle(self):
        class Node:
            pass

        def leak():
            node = Node()
            node.self_ref = node

        with pytest.raises(pytest.fail.Exception, match="Node"):
            assert_no_cyclic_garbage(leak)


def _syntax_census():
    """Live tokens, function definitions and blocks, by type name."""
    counts = {"Token": 0, "FnDef": 0, "Block": 0}
    for obj in gc.get_objects():
        if type(obj) is Token:
            counts["Token"] += 1
        elif type(obj) is ast.FnDef:
            counts["FnDef"] += 1
        elif type(obj) is ast.Block:
            counts["Block"] += 1
    return counts


@pytest.fixture
def syntax_at_detection(monkeypatch):
    """Records the syntax census at the entry of every
    ``registry.run_detectors`` call."""
    from repro.detectors import registry
    seen = []
    run_detectors = registry.run_detectors

    def counted(*args, **kwargs):
        seen.append(_syntax_census())
        return run_detectors(*args, **kwargs)
    monkeypatch.setattr(registry, "run_detectors", counted)
    return seen


class TestSyntaxLifetime:
    """Detection reads only MIR: no token, function definition or block
    of the analyzed program is alive when the detectors start (DESIGN.md
    §9, "each front-end result dies with its last reader").  Counts are
    taken against the census before the call, so syntax other tests
    hold does not matter."""

    def test_session_analyze_of_the_combined_crate(self,
                                                   syntax_at_detection):
        source = generate_corpus(0, 1).combined_source()
        before = _syntax_census()
        api.AnalysisSession().analyze(source, name="crate")
        assert syntax_at_detection == [before]

    def test_serial_batch(self, syntax_at_detection):
        sources = [(f"{name}.rs", BUG_TEMPLATES[name].render(name))
                   for name in ("lock_order_pair", "uaf_drop_deref")]
        before = _syntax_census()
        api.AnalysisSession().analyze_sources(sources)
        assert syntax_at_detection == [before, before]


class _RecordCollector(Detector):
    """Records ``gc.isenabled()`` while detectors run, and optionally
    runs a nested session call (default detectors, so not this one)
    from inside the outer one.  The registry builds a fresh instance
    per run, so the record lives on the class."""

    name = "record-collector"
    nested = False
    seen: list = []

    def check_program(self, ctx):
        cls = type(self)
        cls.seen.append(gc.isenabled())
        if cls.nested:
            api.AnalysisSession().analyze_sources([("inner.rs", SMALL_SRC)])
            cls.seen.append(gc.isenabled())
        return []


#: Runs only the probe, once it is registered.
_PROBE_ONLY = AnalysisConfig(detectors=(_RecordCollector.name,))


@pytest.fixture
def probe(monkeypatch):
    """``_RecordCollector`` registered by name, with a fresh record."""
    from repro.detectors import registry
    monkeypatch.setattr(registry, "ALL_DETECTORS",
                        registry.ALL_DETECTORS + [_RecordCollector])
    monkeypatch.setattr(_RecordCollector, "seen", [])
    monkeypatch.setattr(_RecordCollector, "nested", False)
    return _RecordCollector


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    def test_off_during_the_call_and_restored_after(self, probe):
        api.analyze(SMALL_SRC, config=_PROBE_ONLY)
        assert probe.seen == [False]
        assert gc.isenabled()

    def test_restored_after_compile_error(self):
        with pytest.raises(CompileError):
            api.analyze("fn main( {")
        assert gc.isenabled()
        with pytest.raises(CompileError):
            api.AnalysisSession().analyze_sources([("bad.rs", "fn (")])
        assert gc.isenabled()

    def test_nested_calls_restore_only_at_the_outermost_exit(self, probe):
        probe.nested = True
        api.analyze(SMALL_SRC, config=_PROBE_ONLY)
        assert probe.seen == [False, False]
        assert gc.isenabled()

    def test_caller_that_disabled_the_collector_keeps_it_off(self, probe):
        gc.disable()
        probe.nested = True
        api.analyze(SMALL_SRC, config=_PROBE_ONLY)
        api.audit_unsafe([("a.rs", BENIGN_TEMPLATES["checked_ffi"]("a"))])
        assert probe.seen == [False, False]
        assert not gc.isenabled()

    def test_jobs_2_matches_jobs_1_and_restores(self):
        sources = [(f"{name}.rs", BUG_TEMPLATES[name].render(name))
                   for name in ("lock_order_pair", "uaf_drop_deref",
                                "double_lock_match")]
        with api.AnalysisSession() as session:
            expected = [json.dumps(r.to_dict())
                        for r in session.analyze_sources(sources)]
        with api.AnalysisSession(AnalysisConfig(jobs=2)) as session:
            got = [json.dumps(r.to_dict())
                   for r in session.analyze_sources(sources)]
            assert gc.isenabled()
            pool = session._pool
            if pool is not None:
                # Workers forked inside the pause start with the
                # caller's collector state, not the paused one.
                assert all(pool.submit(gc.isenabled).result()
                           for _ in range(4))
        assert got == expected
