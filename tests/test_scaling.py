"""The detector layer stays linear in program size.

Every whole-program fact a detector needs is built once per analysis and
then looked up (DESIGN.md §9, "Program-level facts are built once").
These tests count calls rather than time them, so they are deterministic:
the number of whole-program walks (``Program.bodies()`` calls) per
``api.analyze`` must not depend on how big the program is, and no
detector's ``check_body`` may walk the program itself.  The same rule
holds one level down (§9, "One walk per body"): each body is indexed
once, and neither a detector hook nor a summarise step walks a body.
"""

import sys

import pytest

from repro import api
from repro.analysis.engine import SummaryEngine
from repro.corpus import generate_corpus
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.waits import NOTIFY_OPS
from repro.detectors.memory_misc import _RAW_ALLOC_OPS
from repro.driver import compile_source
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Body, Program, TerminatorKind


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
    expected = _reference_sites(program, NOTIFY_OPS)
    assert [term.func.builtin_op.name for _b, _bb, term in expected] == [
        "CONDVAR_NOTIFY_ALL", "CONDVAR_NOTIFY_ONE", "CONDVAR_NOTIFY_ONE",
        "CONDVAR_NOTIFY_ALL", "CONDVAR_NOTIFY_ONE", "CONDVAR_NOTIFY_ALL"]
    ctx = AnalysisContext(program)
    assert _ids(ctx.builtin_sites(*NOTIFY_OPS)) == _ids(expected)


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


def _unfed_recv_bodies(program, calls):
    """The bodies whose recv the wait/wake query asked about: each once,
    and each holds a ``recv``."""
    waited = calls["sender"]
    assert len(waited) == len(set(waited))
    for key in waited:
        assert any(term.func is not None
                   and term.func.builtin_op is BuiltinOp.CHANNEL_RECV
                   for _bb, term in program.functions[key]
                   .iter_terminators())
    return set(waited)


@pytest.fixture(scope="module")
def demand_run():
    """One analysis of ``generate_corpus(0, 1)`` recording the obs
    counters, every init solve, and the bodies each demand-gated
    per-body pass ran on (keys in call order).  ``sender`` holds the
    recvs whose ``Sender`` liveness the wait/wake query asked the init
    solution about (the recvs no live ``send`` feeds)."""
    from repro import obs
    from repro.analysis import init as init_module
    from repro.detectors import base, waits
    from repro.detectors.buffer_overflow import BufferOverflowDetector

    compiled = compile_source(generate_corpus(0, 1).combined_source())
    calls = {"solve": [], "storage": [], "init": [], "overflow": [],
             "sender": []}

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
        sender_alive = waits._sender_alive

        def recording_sender(ctx, wait):
            calls["sender"].append(wait.body.key)
            return sender_alive(ctx, wait)

        patch.setattr(waits, "_sender_alive", recording_sender)
        with obs.collecting("demand") as collector:
            api.AnalysisSession().analyze_compiled(compiled)
    return compiled.program, collector.counters, calls


def test_use_after_free_facts_only_for_raw_pointer_bodies(demand_run):
    program, counters, calls = demand_run
    raw = {body.key for body in program.bodies() if _has_raw_ptr(body)}
    assert 0 < len(raw) < len(program.bodies())
    waited = _unfed_recv_bodies(program, calls)
    assert counters["analysis.storage_ranges.miss"] == len(raw)
    assert counters["analysis.init_states.miss"] == len(raw | waited)
    assert sorted(calls["storage"]) == sorted(raw)
    assert sorted(calls["init"]) == sorted(raw | waited)


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
    waited = _unfed_recv_bodies(program, calls)
    plain = [body.key for body in program.bodies()
             if not _has_raw_ptr(body) and not _calls_get_unchecked(body)
             and body.key not in waited]
    assert plain
    touched = set(calls["storage"]) | set(calls["init"]) \
        | set(calls["overflow"])
    assert not touched & set(plain)


# ---------------------------------------------------------------------------
# One walk per body (DESIGN.md §9, "One walk per body")
# ---------------------------------------------------------------------------

#: Functions allowed to walk a body (``Body.iter_statements`` /
#: ``iter_terminators``) while a detector hook or a summarise step is on
#: the stack, with the reason each may.  None of them makes such a call
#: under a hook today; the list names who may, so a new walk has to
#: argue its case here.
_WALK_ALLOWED = {
    ("repro.analysis.panic", "ensure_unwind_edges"):
        "unwind lowering rewrites the CFG before anything is indexed",
    ("repro.analysis.init", "compute_init"):
        "init's per-block gen/kill masks are built from the blocks, "
        "cleanup pads included, which the index skips",
    ("repro.analysis.borrowck", "_collect_borrows"):
        "the borrow checker is a front-end pass with its own walks",
    ("repro.analysis.borrowck", "_check_conflicting_borrows"):
        "the borrow checker is a front-end pass with its own walks",
    ("repro.mir.interp", "_unwind_frame_drops"):
        "the interpreter executes blocks; it does not analyse them",
}


def _is_hook(frame) -> bool:
    name = frame.f_code.co_name
    owner = frame.f_locals.get("self")
    if name in ("check_body", "check_program"):
        return isinstance(owner, Detector)
    return name == "_summarize" and isinstance(owner, SummaryEngine)


@pytest.fixture(scope="module", params=[1, 2], ids=["scale1", "scale2"])
def walk_run(request):
    """One ``api.analyze`` of the seed-0 combined crate at the given
    scale, recording every index build, every guard-region compute the
    context makes, and every body walk made under a hook."""
    from repro.analysis import scan as scan_module
    from repro.detectors import base

    source = generate_corpus(0, request.param).combined_source()
    keys = list(compile_source(source).program.functions)
    record = {"index": [], "ctx_regions": [], "ctx_empty": [], "walks": [],
              "ctx": []}
    index = scan_module.BodyScan.index
    regions = base.compute_guard_regions
    init = AnalysisContext.__init__

    def counting_index(self, body):
        record["index"].append(body.key)
        return index(self, body)

    def counting_regions(body, *args, **kwargs):
        record["ctx_regions"].append(body.key)
        found = regions(body, *args, **kwargs)
        if not found:
            record["ctx_empty"].append(body.key)
        return found

    def keeping_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record["ctx"].append(self)

    def walking(original):
        def walk(self, *args, **kwargs):
            caller = sys._getframe(1)
            frame = caller
            while frame is not None:
                if _is_hook(frame):
                    record["walks"].append(
                        (caller.f_globals.get("__name__"),
                         caller.f_code.co_name))
                    break
                frame = frame.f_back
            return original(self, *args, **kwargs)
        return walk

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan_module.BodyScan, "index", counting_index)
        patch.setattr(base, "compute_guard_regions", counting_regions)
        patch.setattr(AnalysisContext, "__init__", keeping_init)
        for name in ("iter_statements", "iter_terminators"):
            patch.setattr(Body, name, walking(getattr(Body, name)))
        report = api.analyze(source)
    assert report.findings
    record["source"] = source
    record["findings"] = report.to_dict()["findings"]
    return keys, record


def test_each_body_is_indexed_exactly_once(walk_run):
    keys, record = walk_run
    assert sorted(record["index"]) == sorted(keys)


def test_context_reuses_the_guard_regions_the_solve_computed(walk_run):
    _keys, record = walk_run
    (ctx,) = record["ctx"]
    covered = set(ctx.engine._guard_regions)
    assert covered
    assert not covered & set(record["ctx_regions"])
    # The detectors did ask for those bodies' regions: they were served.
    served = {key for key, _include_try in ctx._guard_regions}
    assert covered & served


def test_uncovered_bodies_without_a_lock_compute_no_regions(walk_run):
    # Bodies the solve did not cover are answered from their index when
    # no lock is in reach: no guard-region compute comes back empty.
    _keys, record = walk_run
    assert record["ctx_empty"] == []


def test_region_gate_keeps_findings(walk_run, monkeypatch):
    from repro.detectors import base
    _keys, record = walk_run
    monkeypatch.setattr(base, "may_have_guard_regions",
                        lambda *args, **kwargs: True)
    ungated = api.analyze(record["source"])
    assert ungated.to_dict()["findings"] == record["findings"]


def test_hooks_never_walk_a_body(walk_run):
    _keys, record = walk_run
    unexpected = [walk for walk in record["walks"]
                  if walk not in _WALK_ALLOWED]
    assert not unexpected, unexpected


def _ops_called(body):
    """The builtin ops a reference walk of ``body`` finds."""
    return {term.func.builtin_op for _bb, term in body.iter_terminators()
            if term.kind is TerminatorKind.CALL and term.func is not None}


def _points_to_null(ctx, body):
    from repro.analysis.points_to import NULL_TARGET
    return any(NULL_TARGET in targets
               for targets in ctx.points_to(body).points_to.values())


#: Gated detector → does the body hold its subject (by a reference
#: walk, independent of the index)?
_SUBJECTS = {
    "null-deref": _points_to_null,
    "double-free": lambda ctx, body: BuiltinOp.PTR_READ in _ops_called(body),
    "invalid-free": lambda ctx, body: bool(
        _ops_called(body) & _RAW_ALLOC_OPS),
    "uninit-read": lambda ctx, body: bool(
        _ops_called(body) & _RAW_ALLOC_OPS),
    "atomicity-violation": lambda ctx, body: {
        BuiltinOp.ATOMIC_LOAD, BuiltinOp.ATOMIC_STORE} <= _ops_called(body),
    "use-after-free": lambda ctx, body: _has_raw_ptr(body),
    "buffer-overflow": lambda ctx, body: _calls_get_unchecked(body),
}


@pytest.mark.parametrize("name", sorted(_SUBJECTS))
def test_gated_detector_makes_no_request_without_its_subject(name):
    from repro.analysis import init as init_module
    from repro.analysis import lifetime as lifetime_module
    from repro.detectors import (
        buffer_overflow, interior_mutability, memory_misc, use_after_free,
    )
    from repro.detectors.registry import resolve_detectors

    program = compile_source(
        generate_corpus(0, 1).combined_source()).program
    ctx = AnalysisContext(program)
    (detector,) = resolve_detectors([name])
    subject = _SUBJECTS[name]
    plain = [body for body in program.bodies() if not subject(ctx, body)]
    assert plain and len(plain) < len(program.bodies())

    requests = []

    def refuse(what):
        def request(*args, **kwargs):
            requests.append(what)
            raise AssertionError(f"{name} requested {what}")
        return request

    with pytest.MonkeyPatch.context() as patch:
        for what in ("points_to", "storage_ranges", "init_states",
                     "guard_regions"):
            patch.setattr(ctx, what, refuse(what))
        for module in (buffer_overflow, interior_mutability, memory_misc,
                       use_after_free):
            patch.setattr(module, "cfg_of", refuse("cfg"))
        for module in (init_module, lifetime_module, use_after_free):
            patch.setattr(module, "solve", refuse("dataflow"))
        patch.setattr(use_after_free, "value_chain", refuse("value chain"))
        for body in plain:
            assert detector.check_body(ctx, body) == []
    assert not requests
