"""The detector layer stays linear in program size.

Every whole-program fact a detector needs is built once per analysis and
then looked up (DESIGN.md §9, "Program-level facts are built once").
These tests count calls rather than time them, so they are deterministic:
the number of whole-program walks (``Program.bodies()`` calls) per
``api.analyze`` must not depend on how big the program is, and no
detector's ``check_body`` may walk the program itself.
"""

import sys

import pytest

from repro import api
from repro.corpus import generate_corpus
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.concurrency_misc import _NOTIFY_OPS
from repro.driver import compile_source
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Program, TerminatorKind


def _walks_during_analyze(monkeypatch, source):
    """One record per ``Program.bodies()`` call made by ``api.analyze``:
    ``(name of the calling function, whether the caller is an
    AnalysisContext method, whether a detector's check_body is on the
    stack)``."""
    calls = []
    original = Program.bodies

    def counting(self):
        caller = sys._getframe(1)
        in_check_body = False
        frame = caller
        while frame is not None:
            if frame.f_code.co_name == "check_body" \
                    and isinstance(frame.f_locals.get("self"), Detector):
                in_check_body = True
                break
            frame = frame.f_back
        calls.append((caller.f_code.co_name,
                      isinstance(caller.f_locals.get("self"),
                                 AnalysisContext),
                      in_check_body))
        return original(self)

    with monkeypatch.context() as patch:
        patch.setattr(Program, "bodies", counting)
        api.analyze(source)
    return calls


def test_program_walks_do_not_grow_with_the_program(monkeypatch):
    small = _walks_during_analyze(
        monkeypatch, generate_corpus(0, 1).combined_source())
    large = _walks_during_analyze(
        monkeypatch, generate_corpus(0, 2).combined_source())
    assert len(small) == len(large)
    for calls in (small, large):
        # A check_body hook may look a per-program fact up, which builds
        # it on first use, but never walks the program itself.
        in_hooks = [(name, from_context)
                    for name, from_context, hooked in calls if hooked]
        assert all(from_context for _name, from_context in in_hooks), \
            in_hooks
        names = [name for name, _ in in_hooks]
        assert len(names) == len(set(names)), names


def _reference_sites(program, ops):
    """The whole-program terminator walk the site index replaced."""
    return [(body, bb, term)
            for body in program.bodies()
            for bb, term in body.iter_terminators()
            if term.kind is TerminatorKind.CALL and term.func is not None
            and term.func.builtin_op in ops]


def _ids(sites):
    return [(body.key, bb, id(term)) for body, bb, term in sites]


@pytest.fixture(scope="module")
def corpus_ctx():
    program = compile_source(
        generate_corpus(0, 1).combined_source()).program
    return AnalysisContext(program)


def test_builtin_site_index_keeps_the_walk_order(corpus_ctx):
    program = corpus_ctx.program
    seen = 0
    for op in BuiltinOp:
        expected = _reference_sites(program, {op})
        assert _ids(corpus_ctx.builtin_sites(op)) == _ids(expected), op
        seen += len(expected)
    assert seen


def test_builtin_sites_of_several_ops_interleave_in_walk_order():
    program = compile_source("""
        fn a(cv: &Condvar) { cv.notify_all(); cv.notify_one(); }
        fn b(cv: &Condvar) { cv.notify_one(); }
        fn c(cv: &Condvar) { cv.notify_all(); }
        fn d(cv: &Condvar) { cv.notify_one(); cv.notify_all(); }
        """).program
    expected = _reference_sites(program, _NOTIFY_OPS)
    assert [term.func.builtin_op.name for _b, _bb, term in expected] == [
        "CONDVAR_NOTIFY_ALL", "CONDVAR_NOTIFY_ONE", "CONDVAR_NOTIFY_ONE",
        "CONDVAR_NOTIFY_ALL", "CONDVAR_NOTIFY_ONE", "CONDVAR_NOTIFY_ALL"]
    ctx = AnalysisContext(program)
    assert _ids(ctx.builtin_sites(*_NOTIFY_OPS)) == _ids(expected)


def test_spawn_and_call_site_indexes_keep_list_order(corpus_ctx):
    te = corpus_ctx.thread_escape()
    graph = corpus_ctx.call_graph
    assert te.spawn_sites and graph.call_sites
    for key in corpus_ctx.program.functions:
        assert te.sites_spawning(key) == [
            s for s in te.spawn_sites if s.closure == key]
        assert graph.sites_calling(key) == [
            s for s in graph.call_sites if s.callee == key]


# ---------------------------------------------------------------------------
# Per-body facts on demand (DESIGN.md §9, "Per-body facts on demand, on
# bitsets")
# ---------------------------------------------------------------------------

def _has_raw_ptr(body):
    return any(local.ty.is_raw_ptr for local in body.locals)


def _calls_get_unchecked(body):
    return any(term.func is not None
               and term.func.builtin_op in (BuiltinOp.VEC_GET_UNCHECKED,
                                            BuiltinOp.VEC_GET_UNCHECKED_MUT)
               for _bb, term in body.iter_terminators())


@pytest.fixture(scope="module")
def demand_run():
    """One analysis of ``generate_corpus(0, 1)`` recording the obs
    counters, every init solve, and the bodies each demand-gated
    per-body pass ran on (keys in call order)."""
    from repro import obs
    from repro.analysis import init as init_module
    from repro.detectors import base
    from repro.detectors.buffer_overflow import BufferOverflowDetector

    compiled = compile_source(generate_corpus(0, 1).combined_source())
    calls = {"solve": [], "storage": [], "init": [], "overflow": []}

    def recording(name, original, method=False):
        if method:
            def wrapper(self, body):
                calls[name].append(body.key)
                return original(self, body)
        else:
            def wrapper(body):
                calls[name].append(body.key)
                return original(body)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(init_module, "compute_init",
                      recording("solve", init_module.compute_init))
        patch.setattr(base, "compute_storage_ranges",
                      recording("storage", base.compute_storage_ranges))
        patch.setattr(base, "init_of", recording("init", base.init_of))
        patch.setattr(BufferOverflowDetector, "_known_lengths", recording(
            "overflow", BufferOverflowDetector._known_lengths, True))
        with obs.collecting("demand") as collector:
            api.AnalysisSession().analyze_compiled(compiled)
    return compiled.program, collector.counters, calls


def test_use_after_free_facts_only_for_raw_pointer_bodies(demand_run):
    program, counters, calls = demand_run
    raw = {body.key for body in program.bodies() if _has_raw_ptr(body)}
    assert 0 < len(raw) < len(program.bodies())
    assert counters["analysis.storage_ranges.miss"] == len(raw)
    assert counters["analysis.init_states.miss"] == len(raw)
    assert sorted(calls["storage"]) == sorted(calls["init"]) == sorted(raw)


def test_init_is_solved_at_most_once_per_body(demand_run):
    program, _counters, calls = demand_run
    solves = calls["solve"]
    assert solves
    assert len(solves) == len(set(solves))
    assert len(solves) <= len(program.bodies())


def test_a_body_without_the_subject_triggers_neither_pass(demand_run):
    program, _counters, calls = demand_run
    unchecked = {body.key for body in program.bodies()
                 if _calls_get_unchecked(body)}
    assert unchecked
    assert sorted(calls["overflow"]) == sorted(unchecked)
    plain = [body.key for body in program.bodies()
             if not _has_raw_ptr(body) and not _calls_get_unchecked(body)]
    assert plain
    touched = set(calls["storage"]) | set(calls["init"]) \
        | set(calls["overflow"])
    assert not touched & set(plain)
