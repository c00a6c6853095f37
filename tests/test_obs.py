"""Tests for the ``repro.obs`` tracing/metrics/provenance subsystem."""

import json
import os
import threading

import pytest

from conftest import check, compile_, detectors_named

from repro import obs
from repro.obs.core import Collector, NOOP_SPAN
from repro.obs.export import phase_timings, render_text


UAF_SRC = """
fn main() {
    let v: Vec<i32> = Vec::new();
    let p: *const i32 = v.as_ptr();
    drop(v);
    unsafe { print(*p); }
}
"""

DOUBLE_LOCK_SRC = """
static M: Mutex<i32> = Mutex::new(0);

fn main() {
    let a = M.lock().unwrap();
    let b = M.lock().unwrap();
    print(*a + *b);
}
"""

RACE_SRC = """
use std::sync::Arc;
use std::thread;

struct Counter { value: i32 }
unsafe impl Sync for Counter {}

fn touch(c: &Counter, i: i32) {
    let p = &c.value as *const i32 as *mut i32;
    unsafe { *p = *p + i; }
}

fn main() {
    let c = Arc::new(Counter { value: 0 });
    let c2 = Arc::clone(&c);
    let h = thread::spawn(move || {
        touch(&c2, 1);
    });
    touch(&c, 2);
    h.join();
}
"""


class TestSpans:
    def test_nesting(self):
        col = Collector("t")
        with col.span("outer"):
            with col.span("inner"):
                pass
            with col.span("inner2"):
                pass
        assert len(col.roots) == 1
        outer = col.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert outer.children[0].children == []

    def test_timing_monotonicity(self):
        """A parent's wall time bounds the sum of its children's."""
        col = Collector("t")
        with col.span("outer"):
            with col.span("a"):
                sum(range(2000))
            with col.span("b"):
                sum(range(2000))
        outer = col.roots[0]
        assert outer.duration > 0.0
        child_total = sum(c.duration for c in outer.children)
        assert all(c.duration >= 0.0 for c in outer.children)
        assert outer.duration >= child_total
        assert outer.self_time == pytest.approx(
            outer.duration - child_total)
        # Siblings were opened in order, so starts are monotone.
        assert outer.children[0].start <= outer.children[1].start

    def test_attrs_and_find(self):
        col = Collector("t")
        with col.span("compile", file="x.rs"):
            with col.span("parse"):
                pass
        assert col.find_span("parse") is not None
        assert col.find_span("compile").attrs == {"file": "x.rs"}
        assert col.find_span("nope") is None

    def test_exception_unwinds_stack(self):
        col = Collector("t")
        with pytest.raises(ValueError):
            with col.span("outer"):
                with col.span("inner"):
                    raise ValueError("boom")
        assert col.current_span is None
        assert col.roots[0].end is not None
        assert col.roots[0].children[0].end is not None

    def test_raising_span_is_recorded_and_error_tagged(self):
        """A span whose body raises still records its end time, and the
        record is tagged ``error=True`` with the exception type — the
        trace shows where the pipeline died, not a hole."""
        col = Collector("t")
        with pytest.raises(ValueError):
            with col.span("outer"):
                with col.span("inner"):
                    raise ValueError("boom")
        inner = col.roots[0].children[0]
        for span in (col.roots[0], inner):
            assert span.attrs["error"] is True
            assert span.attrs["error_type"] == "ValueError"
            assert span.duration >= 0.0
        # The tag survives into the exporter payload.
        assert col.to_dict()["spans"][0]["attrs"]["error"] is True

    def test_error_tag_preserves_caller_attrs(self):
        col = Collector("t")
        with pytest.raises(RuntimeError):
            with col.span("s", error="mine") as handle:
                handle.set(error_type="custom")
                raise RuntimeError("x")
        assert col.roots[0].attrs == {"error": "mine",
                                      "error_type": "custom"}


class TestSpanIdentity:
    def test_ids_unique_and_parent_links_consistent(self):
        col = Collector("t")
        with col.span("outer"):
            with col.span("inner"):
                pass
            with col.span("inner2"):
                pass
        spans = list(col.iter_spans())
        ids = [s.id for s in spans]
        assert len(ids) == len(set(ids)) == 3
        outer = col.roots[0]
        assert outer.parent_id is None
        assert all(c.parent_id == outer.id for c in outer.children)
        assert all(s.pid == os.getpid() for s in spans)
        assert all(s.tid == threading.get_ident() for s in spans)
        d = outer.to_dict()
        assert d["id"] == outer.id and d["parent"] is None
        assert d["pid"] == os.getpid()

    def test_adopt_spans_reids_and_reparents(self):
        """Grafting a worker collector's roots re-assigns ids from the
        adopting collector's sequence (worker ids collide across
        processes), re-parents under the open span, and preserves the
        worker's pid/tid tags."""
        worker = Collector("w")
        worker._last_id = 100            # force an id collision
        with worker.span("analysis.scc", head="f"):
            with worker.span("sub"):
                pass
        worker.roots[0].pid = 99999      # pretend another process
        main = Collector("m")
        with main.span("analysis.wave"):
            with main.span("decoy"):
                pass
            main.adopt_spans(list(worker.roots))
        wave = main.roots[0]
        assert [c.name for c in wave.children] == ["decoy", "analysis.scc"]
        adopted = wave.children[1]
        assert adopted.parent_id == wave.id
        assert adopted.children[0].parent_id == adopted.id
        assert adopted.pid == 99999
        ids = [s.id for s in main.iter_spans()]
        assert len(ids) == len(set(ids))

    def test_adopt_spans_without_open_span_appends_roots(self):
        worker = Collector("w")
        with worker.span("task"):
            pass
        main = Collector("m")
        main.adopt_spans(list(worker.roots))
        assert [r.name for r in main.roots] == ["task"]
        assert main.roots[0].parent_id is None


class TestMetrics:
    def test_counter_aggregation(self):
        col = Collector("t")
        col.count("hits")
        col.count("hits")
        col.count("hits", 3)
        col.count("other", 2)
        assert col.counters == {"hits": 5, "other": 2}

    def test_gauge_last_write_wins(self):
        col = Collector("t")
        col.gauge("seed", 1)
        col.gauge("seed", 7)
        assert col.gauges["seed"] == 7


class TestNoopPath:
    def test_disabled_helpers_record_nothing(self):
        assert obs.get_collector() is None
        assert obs.span("x") is NOOP_SPAN
        with obs.span("x") as s:
            assert s is NOOP_SPAN
            s.set(k=1)
        obs.count("c")
        obs.gauge("g", 1)
        assert obs.get_collector() is None

    def test_noop_span_is_reentrant(self):
        with obs.span("a"):
            with obs.span("a"):
                pass

    def test_pipeline_runs_clean_without_collector(self):
        """Instrumented code paths must work with collection disabled —
        and leave no collector behind."""
        report = check(UAF_SRC)
        assert report.findings
        assert obs.get_collector() is None

    def test_collecting_restores_previous(self):
        with obs.collecting("outer-col") as outer:
            with obs.collecting("inner-col") as inner:
                assert obs.get_collector() is inner
            assert obs.get_collector() is outer
        assert obs.get_collector() is None

    def test_install_uninstall(self):
        col = obs.install("explicit")
        try:
            assert obs.get_collector() is col
            obs.count("x")
            assert col.counters == {"x": 1}
        finally:
            assert obs.uninstall() is col
        assert obs.get_collector() is None

    def test_install_over_active_collector_raises(self):
        """Silently replacing an active collector would drop its spans
        and counters — install() refuses instead.  Re-installing the
        same object stays an idempotent no-op."""
        col = obs.install("first")
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                obs.install("second")
            assert obs.get_collector() is col
            assert obs.install(col) is col     # same object: fine
        finally:
            obs.uninstall()
        assert obs.get_collector() is None


class TestPipelineInstrumentation:
    def test_compile_and_detect_spans(self):
        with obs.collecting() as col:
            check(UAF_SRC)
        phases = phase_timings(col)
        for name in ("compile", "compile.lex", "compile.parse",
                     "compile.hir-table", "compile.mir-lower", "detectors"):
            assert name in phases
        assert col.counters["analysis.points_to.miss"] >= 1
        assert col.counters["detector.use-after-free.findings"] >= 1
        # Repeated lookups of the same body's points-to must hit.  The
        # detectors ask for ``main``'s once (a body with no lock in
        # reach gets its empty guard regions without it), so ask twice.
        from repro.detectors.base import AnalysisContext
        program = compile_(UAF_SRC).program
        ctx = AnalysisContext(program)
        with obs.collecting() as repeat:
            first = ctx.points_to(program.body("main"))
            assert ctx.points_to(program.body("main")) is first
        assert repeat.counters["analysis.points_to.miss"] == 1
        assert repeat.counters["analysis.points_to.hit"] == 1

    def test_shared_facts_get_their_own_spans(self, monkeypatch):
        # The body index, the liveness closure and the wait/wake query
        # are charged to spans of their own, not to whichever detector
        # asks first.
        from repro import api
        from repro.analysis.scan import BodyScan
        from repro.corpus.inject import BUG_TEMPLATES
        indexed = []
        real = BodyScan.index

        def counting(scan, body):
            indexed.append(body.key)
            return real(scan, body)

        monkeypatch.setattr(BodyScan, "index", counting)
        src = (BUG_TEMPLATES["deadlock_condvar_hold"].render("c")
               + BUG_TEMPLATES["channel_no_sender"].render("s") + UAF_SRC)
        with obs.collecting() as col:
            api.analyze(src)
        names = []

        def walk(record):
            names.append(record.name)
            for child in record.children:
                walk(child)

        for root in col.roots:
            walk(root)
        assert indexed
        assert names.count("analysis.scan_index") == len(indexed)
        assert names.count("analysis.live_functions") == 1
        assert names.count("analysis.waits") == 1

    def test_interpreter_counters(self):
        from repro.driver import compile_source
        from repro.mir.interp import ScheduleConfig, run_program
        src = "fn main() { let x = 1 + 2; print(x); }"
        with obs.collecting() as col:
            compiled = compile_source(src)
            result = run_program(compiled.program,
                                 schedule=ScheduleConfig(seed=3))
        assert result.ok
        assert col.counters["interp.steps"] == result.steps
        assert col.counters["interp.outcome.ok"] == 1
        assert col.gauges["interp.schedule_seed"] == 3
        assert col.find_span("interp.run") is not None


class TestProvenance:
    def test_uaf_finding_has_provenance(self):
        report = check(UAF_SRC)
        uaf = detectors_named(report, "use-after-free")
        assert uaf
        trail = uaf[0].provenance
        assert trail, "UAF finding must carry provenance"
        kinds = [f["kind"] for f in trail]
        assert "points-to" in kinds
        assert "freed-state" in kinds or "storage-dead" in kinds
        assert "pointer-use" in kinds
        # JSON-able end to end.
        json.dumps(trail)

    def test_double_lock_finding_has_provenance(self):
        report = check(DOUBLE_LOCK_SRC)
        dl = detectors_named(report, "double-lock")
        assert dl
        trail = dl[0].provenance
        kinds = [f["kind"] for f in trail]
        assert kinds[0] == "guard-region"
        assert "lock-identity" in kinds
        assert "reacquire" in kinds
        json.dumps(trail)

    def test_explain_renders_trail(self):
        report = check(UAF_SRC)
        text = report.explain()
        assert "because:" in text
        assert "[points-to]" in text

    def test_fact_collision_safe(self):
        from repro.obs.provenance import fact
        f = fact("tag", "a note", kind="detail-kind", note="detail-note",
                 extra=frozenset({("a", 1)}))
        assert f["kind"] == "tag"        # the tag wins
        assert f["note"] == "a note"
        assert f["extra"] == [["a", 1]]

    def test_render_facts_never_drops_unrecognised_shapes(self):
        """Every fact renders something: unknown kinds keep their tag,
        a kind-less dict falls back to the generic label, and non-dict
        facts (pre-``fact()`` detectors) render via repr instead of
        crashing ``minirust explain``."""
        from repro.obs.provenance import render_facts
        lines = render_facts([
            {"kind": "brand-new-kind", "note": "novel", "x": 1},
            {"note": "no kind at all"},
            "a bare string fact",
            ("a", "tuple"),
        ])
        assert len(lines) == 4
        assert "[brand-new-kind] novel" in lines[0]
        assert "x=1" in lines[0]
        assert "[fact] no kind at all" in lines[1]
        assert "'a bare string fact'" in lines[2]
        assert "tuple" in lines[3]

    def test_data_race_explain_renders_all_facts(self):
        """The race detector's four provenance kinds all survive the
        explain rendering — none silently dropped."""
        report = check(RACE_SRC)
        races = detectors_named(report, "data-race")
        assert races
        text = report.explain()
        for kind in ("thread-escape", "shared-location", "lockset",
                     "summary-chain"):
            assert f"[{kind}]" in text, f"{kind} missing from explain"


class TestExporters:
    def test_json_round_trip(self):
        with obs.collecting("rt") as col:
            with obs.span("phase", file="x"):
                obs.count("n", 2)
            obs.gauge("g", 9)
        data = json.loads(json.dumps(col.to_dict()))
        assert set(data) == {"collector", "spans", "counters", "gauges"}
        assert data["collector"] == "rt"
        assert data["counters"] == {"n": 2}
        assert data["gauges"] == {"g": 9}
        assert data["spans"][0]["name"] == "phase"
        assert data["spans"][0]["attrs"] == {"file": "x"}
        assert data["spans"][0]["duration_s"] >= 0.0
        # The collector dict round-trips through dumps/loads intact.
        assert data == col.to_dict()

    def test_report_json_round_trip(self):
        report = check(UAF_SRC)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["counts"]["use-after-free"] >= 1
        finding = data["findings"][0]
        assert {"detector", "kind", "severity", "message", "fn",
                "metadata", "provenance"} <= set(finding)
        assert finding["location"]["line"] >= 1

    def test_render_text_shape(self):
        with obs.collecting() as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            obs.count("c", 1)
        text = render_text(col)
        assert "== trace" in text
        assert "outer" in text and "inner" in text
        assert "└─" in text
        assert "== counters ==" in text

    def test_phase_timings_accumulate(self):
        col = Collector("t")
        for _ in range(3):
            with col.span("a"):
                with col.span("b"):
                    pass
        flat = phase_timings(col)
        assert set(flat) == {"a", "a.b"}
        assert flat["a"] >= flat["a.b"] >= 0.0
