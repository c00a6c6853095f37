"""Tests for the timeline exporters (Chrome-trace / Perfetto JSON and
folded flamegraph stacks) and the ``--trace-out`` CLI acceptance path:
a ``--jobs 2`` run over two files must produce a valid trace whose
worker spans are re-parented into the main process's span tree."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.corpus.inject import BUG_TEMPLATES
from repro.obs.core import Collector
from repro.obs.flame import folded_stacks, write_folded
from repro.obs.trace import to_chrome_trace, trace_events, write_chrome_trace


def _pool_available() -> bool:
    """Whether this host can actually give us worker processes."""
    import warnings

    from repro.api import create_pool
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pool = create_pool(2)
    if pool is None:
        return False
    pool.shutdown(wait=True)
    return True


class TestChromeTrace:
    def test_event_shape_and_timestamp_normalisation(self):
        col = Collector("t")
        with col.span("outer", file="x"):
            with col.span("inner"):
                sum(range(1000))
        events = trace_events(col)
        ms = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in ms} == {"process_name", "thread_name"}
        process_lane = next(e for e in ms if e["name"] == "process_name")
        assert process_lane["pid"] == os.getpid()
        assert process_lane["args"]["name"] == "main"
        assert [e["name"] for e in xs] == ["outer", "inner"]
        outer, inner = xs
        # Timestamps are µs relative to the earliest span.
        assert outer["ts"] == 0.0
        assert inner["ts"] >= 0.0
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert outer["args"]["parent"] is None
        assert inner["args"]["parent"] == outer["args"]["id"]
        assert outer["args"]["file"] == "x"
        assert all(e["pid"] == os.getpid() and e["tid"] for e in xs)

    def test_empty_collector_exports_no_events(self):
        assert trace_events(Collector("t")) == []

    def test_open_span_exports_zero_duration(self):
        col = Collector("t")
        handle = col.span("never-closed")
        handle.__enter__()
        (event,) = [e for e in trace_events(col) if e["ph"] == "X"]
        assert event["dur"] == 0.0

    def test_payload_is_json_serialisable(self, tmp_path):
        col = Collector("rt")
        with col.span("phase", detail=frozenset({"a"})):
            col.count("n", 2)
        payload = to_chrome_trace(col)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["collector"] == "rt"
        assert payload["otherData"]["counters"] == {"n": 2}
        json.dumps(payload)        # non-JSON attrs went through jsonable()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(col, str(path))
        assert json.loads(path.read_text()) == \
            json.loads(json.dumps(written))


class TestFoldedStacks:
    def test_paths_aggregate_with_self_time_weights(self):
        col = Collector("t")
        for _ in range(3):
            with col.span("a"):
                with col.span("b"):
                    sum(range(1000))
        lines = folded_stacks(col)
        by_stack = dict(line.rsplit(" ", 1) for line in lines)
        # Three identical a;b paths fold into one line each.
        assert set(by_stack) == {"a", "a;b"}
        assert int(by_stack["a;b"]) >= 0
        assert int(by_stack["a"]) >= 0

    def test_frame_names_sanitised(self):
        col = Collector("t")
        with col.span("semi;colon name"):
            pass
        (line,) = folded_stacks(col)
        assert line.startswith("semi:colon_name ")

    def test_adopted_worker_subtree_gets_lane_frame(self):
        worker = Collector("w")
        with worker.span("analysis.scc"):
            pass
        for span in worker.iter_spans():
            span.pid = 99999
        col = Collector("m")
        with col.span("analysis.wave"):
            col.adopt_spans(list(worker.roots))
        lines = folded_stacks(col)
        assert any(
            line.startswith("analysis.wave;worker-99999;analysis.scc ")
            for line in lines)

    def test_write_folded(self, tmp_path):
        col = Collector("t")
        with col.span("p"):
            pass
        path = tmp_path / "out.folded"
        lines = write_folded(col, str(path))
        assert path.read_text().splitlines() == lines


# Two race programs, one per file: a --jobs 2 run fans the files out to
# worker processes.
RACE_TEMPLATES = sorted(name for name in BUG_TEMPLATES
                        if name.startswith("race_"))[:2]


class TestTraceOutCli:
    """``minirust check --trace-out --jobs 2`` over two files emits
    valid Chrome-trace JSON whose worker spans are re-parented into the
    main process's tree."""

    def test_check_jobs2_trace_reparents_worker_spans(self, tmp_path):
        if not _pool_available():
            pytest.skip("no process pool on this host")
        files = []
        for i, name in enumerate(RACE_TEMPLATES):
            src = tmp_path / f"race{i}.mr"
            src.write_text(BUG_TEMPLATES[name].render(f"t{i}"))
            files.append(str(src))
        out = tmp_path / "trace.json"
        code = main(["check", *files, "--jobs", "2",
                     "--trace-out", str(out)])
        assert code == 1                      # the races are found
        assert obs.get_collector() is None    # CLI uninstalled cleanly

        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        ms = [e for e in events if e["ph"] == "M"]
        main_pid = os.getpid()

        # Metadata lanes name the main process and each worker.
        lanes = {e["pid"]: e["args"]["name"]
                 for e in ms if e["name"] == "process_name"}
        assert lanes[main_pid] == "main"
        worker_pids = {pid for pid in lanes if pid != main_pid}
        assert worker_pids, "no worker process lanes in the trace"
        assert all(lanes[pid] == f"worker-{pid}" for pid in worker_pids)

        # Span ids are unique; every parent link resolves.
        by_id = {e["args"]["id"]: e for e in xs}
        assert len(by_id) == len(xs)
        for e in xs:
            parent = e["args"]["parent"]
            assert parent is None or parent in by_id

        workers = [e for e in xs if e["pid"] != main_pid]
        assert workers, "worker spans did not fold back into the trace"

        # Every worker span's parent chain reaches the main process's
        # analysis.fanout span.
        for e in workers:
            node = e
            while node["pid"] != main_pid:
                parent = node["args"]["parent"]
                assert parent is not None, \
                    f"worker span {e['name']} has no main-process parent"
                node = by_id[parent]
            assert node["name"] == "analysis.fanout"

    def test_flame_out_cli(self, tmp_path):
        src = tmp_path / "one.mr"
        src.write_text("fn main() { print(1); }")
        out = tmp_path / "prof.folded"
        code = main(["check", str(src), "--flame-out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) >= 0
        assert any(stack.startswith("compile") for stack in lines)
