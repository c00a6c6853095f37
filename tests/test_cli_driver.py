"""Driver and CLI tests."""

import os

import pytest

from repro import compile_source, obs
from repro.api import AnalysisConfig, AnalysisSession
from repro.cli import main as cli_main
from repro.driver import CompiledProgram, compile_file

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


UAF_SRC = """
fn main() {
    let v = vec![1, 2, 3];
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
"""

CLEAN_SRC = """
fn main() {
    let v = vec![1, 2, 3];
    println!("{}", v.len());
}
"""


class TestDriver:
    def test_compile_source_returns_compiled_program(self):
        compiled = compile_source(CLEAN_SRC)
        assert isinstance(compiled, CompiledProgram)
        assert "main" in compiled.functions
        assert compiled.item_table is not None

    def test_run_all_detectors_on_buggy(self):
        report = AnalysisSession().analyze_compiled(
            compile_source(UAF_SRC)).report
        assert report.by_detector("use-after-free")

    def test_run_all_detectors_on_clean(self):
        report = AnalysisSession().analyze_compiled(
            compile_source(CLEAN_SRC)).report
        assert not report.errors

    def test_run_selected_detectors(self):
        report = AnalysisSession(
            AnalysisConfig(detectors=("use-after-free",))).analyze_compiled(
            compile_source(UAF_SRC)).report
        assert {f.detector for f in report.findings} == {"use-after-free"}

    def test_compile_error_survives_pickling(self):
        # A worker's error crosses the process boundary by pickle; it
        # must render once, not as ``error: error: ...``.
        import pickle
        from repro.lang.diagnostics import CompileError
        with pytest.raises(CompileError) as info:
            compile_source("fn main( {", "bad.rs")
        error = info.value
        assert str(pickle.loads(pickle.dumps(error))) == str(error)

    def test_compile_file(self, tmp_path):
        path = tmp_path / "prog.rs"
        path.write_text(CLEAN_SRC)
        compiled = compile_file(str(path))
        assert "main" in compiled.functions


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "prog.rs"
        path.write_text(text)
        return str(path)

    def test_check_buggy_exits_nonzero(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, UAF_SRC)])
        out = capsys.readouterr().out
        assert code == 1
        assert "use-after-free" in out

    def test_check_clean_exits_zero(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, CLEAN_SRC)])
        assert code == 0

    def test_check_single_detector(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, UAF_SRC),
                         "--detector", "use-after-free"])
        assert code == 1

    def test_check_unknown_detector(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, CLEAN_SRC),
                         "--detector", "nonsense"])
        assert code == 2

    def test_run_clean(self, tmp_path, capsys):
        code = cli_main(["run", self._write(tmp_path, CLEAN_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3" in out and "outcome: ok" in out

    def test_run_ub(self, tmp_path, capsys):
        code = cli_main(["run", self._write(tmp_path, UAF_SRC)])
        out = capsys.readouterr().out
        assert code == 1
        assert "use-after-free" in out

    def test_mir_dump(self, tmp_path, capsys):
        code = cli_main(["mir", self._write(tmp_path, CLEAN_SRC),
                         "--fn", "main"])
        out = capsys.readouterr().out
        assert code == 0
        assert "StorageLive" in out and "bb0" in out

    def test_scan(self, tmp_path, capsys):
        code = cli_main(["scan", self._write(tmp_path, UAF_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "unsafe blocks" in out
        assert "interior-unsafe functions: 1\n" \
            "checked: 1, unchecked: 0, caller-delegated: 0\n" in out

    def test_tables(self, capsys):
        code = cli_main(["tables", "--table", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Servo" in out and "14574" in out

    def test_tables_all(self, capsys):
        code = cli_main(["tables"])
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out and "Table 4" in out

    def test_corpus(self, capsys):
        code = cli_main(["corpus", "--scale", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "double-lock" in out and "use-after-free" in out

    def test_no_cache_flag_disables_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        with obs.collecting() as col:
            code = cli_main(["check", "--cache-dir", str(cache),
                             "--no-cache", self._write(tmp_path, UAF_SRC)])
        assert code == 1
        assert not cache.exists()
        assert not [name for name in col.counters if name.startswith(
            ("analysis.cache.", "analysis.report_cache."))]

    def test_note_rows_alone_exit_zero(self, capsys):
        # The audit's rows are NOTEs: they are printed, but only an
        # error or warning finding fails the run.
        path = os.path.join(EXAMPLES, "figure7_uaf.rs")
        code = cli_main(["check", "--detector", "interior-unsafe-audit",
                         path])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: interior-unsafe fn" in out
        assert cli_main(["check", path]) == 1
        assert cli_main(["explain", "--detector", "interior-unsafe-audit",
                         path]) == 0


class TestCliExtensions:
    def _write(self, tmp_path, text):
        path = tmp_path / "prog.rs"
        path.write_text(text)
        return str(path)

    def test_check_with_advice(self, tmp_path, capsys):
        cli_main(["check", self._write(tmp_path, UAF_SRC), "--advice"])
        out = capsys.readouterr().out
        assert "suggested fixes" in out
        assert "adjust lifetime" in out

    def test_annotate(self, tmp_path, capsys):
        src = """
        fn f(m: &Mutex<i32>) {
            let g = m.lock().unwrap();
            print(*g);
        }
        """
        code = cli_main(["annotate", self._write(tmp_path, src),
                         "--fn", "f"])
        out = capsys.readouterr().out
        assert code == 0
        assert "storage lines" in out
        assert "critical section" in out

    def test_annotate_unknown_fn(self, tmp_path):
        code = cli_main(["annotate", self._write(tmp_path, CLEAN_SRC),
                         "--fn", "nope"])
        assert code == 2


class TestCliObservability:
    """The obs-layer CLI surface: --json, --profile, explain, stats."""

    def _write(self, tmp_path, text):
        path = tmp_path / "prog.rs"
        path.write_text(text)
        return str(path)

    def test_check_json_buggy(self, tmp_path, capsys):
        import json
        code = cli_main(["check", self._write(tmp_path, UAF_SRC), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["counts"]["use-after-free"] >= 1
        finding = data["findings"][0]
        assert finding["provenance"], "JSON report must embed provenance"
        assert finding["location"]["line"] >= 1

    def test_check_json_clean(self, tmp_path, capsys):
        import json
        code = cli_main(["check", self._write(tmp_path, CLEAN_SRC),
                         "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []

    def test_check_json_with_profile_embeds_trace(self, tmp_path, capsys):
        import json
        code = cli_main(["check", self._write(tmp_path, CLEAN_SRC),
                         "--json", "--profile"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        span_names = [s["name"] for s in data["profile"]["spans"]]
        assert "compile" in span_names and "detectors" in span_names

    def test_profile_metrics_identical_across_jobs(self, capsys):
        # Worker counters and gauges fold back in input order, so a
        # fanned-out run reports what the serial run reports.
        import json
        files = [os.path.join(EXAMPLES, name)
                 for name in ("figure7_uaf.rs", "figure8_double_lock.rs")]
        profiles = []
        for jobs in ("1", "2"):
            cli_main(["check", *files, "--jobs", jobs, "--json",
                      "--profile"])
            profiles.append(json.loads(capsys.readouterr().out)["profile"])
        serial, fanned = profiles
        assert serial["gauges"], "the serial run records gauges"
        assert fanned["gauges"] == serial["gauges"]
        assert fanned["counters"] == serial["counters"]

    def test_wait_verdict_counters_identical_across_jobs(self, tmp_path,
                                                          capsys):
        # Each blocking wait's verdict is counted once, in whichever
        # process analyzes its file.
        import json
        from repro.corpus.inject import BUG_TEMPLATES
        files = []
        for name in ("channel_no_sender", "deadlock_condvar_hold",
                     "recv_holding_lock"):
            path = tmp_path / f"{name}.rs"
            path.write_text(BUG_TEMPLATES[name].render("w"))
            files.append(str(path))
        counters = []
        for jobs in ("1", "2"):
            cli_main(["check", *files, "--jobs", jobs, "--json",
                      "--profile", "--no-cache"])
            profile = json.loads(capsys.readouterr().out)["profile"]
            counters.append({name: value for name, value
                             in profile["counters"].items()
                             if name.startswith("waits.")})
        assert counters[0] == counters[1] == {
            "waits.no_wake": 1, "waits.wake_blocked": 1,
            "waits.wake_maybe_blocked": 1}

    def test_check_profile_prints_tree(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, UAF_SRC),
                         "--profile"])
        out = capsys.readouterr().out
        assert code == 1
        assert "== trace" in out
        for phase in ("lex", "parse", "mir-lower",
                      "detector.use-after-free", "detector.double-lock"):
            assert phase in out
        assert "analysis.points_to.miss" in out
        # The collector is torn down after the command.
        from repro import obs
        assert obs.get_collector() is None

    def test_explain_buggy(self, tmp_path, capsys):
        code = cli_main(["explain", self._write(tmp_path, UAF_SRC)])
        out = capsys.readouterr().out
        assert code == 1
        assert "because:" in out and "[points-to]" in out

    def test_explain_clean(self, tmp_path, capsys):
        code = cli_main(["explain", self._write(tmp_path, CLEAN_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no findings" in out

    def test_explain_unknown_detector_is_usage_error(self, tmp_path):
        code = cli_main(["explain", self._write(tmp_path, CLEAN_SRC),
                         "--detector", "nonsense"])
        assert code == 2

    def test_stats_text(self, tmp_path, capsys):
        code = cli_main(["stats", self._write(tmp_path, UAF_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== trace" in out and "findings: " in out

    def test_stats_json_with_run(self, tmp_path, capsys):
        import json
        code = cli_main(["stats", self._write(tmp_path, CLEAN_SRC),
                         "--json", "--run"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "interp.run" in data["phases"]
        assert data["counters"]["interp.steps"] > 0
        assert data["report"]["findings"] == []

    def test_compile_error_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["check", self._write(tmp_path, "fn main( {")])
        assert code == 2

    def test_run_profile(self, tmp_path, capsys):
        code = cli_main(["run", self._write(tmp_path, CLEAN_SRC),
                         "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "interp.steps" in out and "interp.run" in out


class TestDriverBoundsBuildMode:
    def test_unchecked_build_has_no_asserts(self):
        from repro.driver import compile_source
        from repro.mir.nodes import TerminatorKind
        src = "fn main() { let v = vec![1, 2]; let x = v[1]; print(x); }"
        checked = compile_source(src)
        unchecked = compile_source(src, emit_bounds_checks=False)

        def asserts(compiled):
            return sum(1 for _bb, t in
                       compiled.program.functions["main"].iter_terminators()
                       if t.kind is TerminatorKind.ASSERT)

        assert asserts(checked) > 0
        assert asserts(unchecked) == 0

    def test_unchecked_build_still_runs(self):
        from repro.driver import compile_source
        from repro.mir.interp import run_program
        src = "fn main() { let v = vec![7, 8]; println!(\"{}\", v[1]); }"
        result = run_program(
            compile_source(src, emit_bounds_checks=False).program)
        assert result.ok and result.stdout == ["8"]
