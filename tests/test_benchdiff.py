"""Tests for the benchmark-regression observatory: flatten/classify
rules, the diff verdicts, directory mode, and the ``minirust
bench-diff`` CLI (ISSUE acceptance: a synthetic 20% regression is
flagged; identical inputs pass)."""

import json

from repro.cli import main
from repro.obs.benchdiff import (
    DEFAULT_THRESHOLD, bench_diff, classify, diff_payloads, flatten,
)


class TestFlatten:
    def test_nested_numeric_leaves(self):
        payload = {"phases": {"a": 1.0, "b": {"c": 2}}, "n": 3,
                   "list": [4, {"d": 5}], "name": "skip", "flag": True}
        assert flatten(payload) == {
            "phases.a": 1.0, "phases.b.c": 2.0, "n": 3.0,
            "list.0": 4.0, "list.1.d": 5.0,
        }

    def test_scalar_payload(self):
        assert flatten(3.5) == {"value": 3.5}


class TestClassify:
    def test_directions(self):
        assert classify("phases.analysis")[0] == "lower"
        assert classify("engine_wall_s")[0] == "lower"
        assert classify("executor.pickle_bytes")[0] == "lower"
        assert classify("cache.deserialize_seconds.sum")[0] == "lower"
        assert classify("speedup_best")[0] == "higher"
        assert classify("detector.recall")[0] == "higher"
        assert classify("cache.hit")[0] == "higher"
        assert classify("corpus.files")[0] == "neutral"

    def test_ratio_beats_computes(self):
        # "computes_ratio" contains both a lower- and a higher-is-better
        # token; the higher-is-better rule must win (ratios are
        # improvements when they rise).
        assert classify("computes_ratio")[0] == "higher"

    def test_wall_ratio_is_lower_is_better(self):
        # wall_ratio = engine wall / baseline wall: a rise is a
        # slowdown, despite the "ratio" suffix the generic rule reads
        # as a speedup.
        assert classify("wall_ratio")[0] == "lower"
        assert classify("engine.wall_ratio")[0] == "lower"
        assert classify("warm_speedup")[0] == "higher"


OLD = {"phases": {"analysis.wall_s": 1.0}, "speedup": 2.0, "files": 7}


class TestDiffPayloads:
    def test_identical_payloads_pass(self):
        report = diff_payloads(OLD, dict(OLD))
        assert report.regressions == []
        assert report.improvements == []
        assert report.exit_code == 0
        assert len(report.deltas) == 3

    def test_twenty_percent_regression_flagged(self):
        new = {"phases": {"analysis.wall_s": 1.2}, "speedup": 2.0,
               "files": 7}
        report = diff_payloads(OLD, new)
        (reg,) = report.regressions
        assert reg.key == "phases.analysis.wall_s"
        assert abs(reg.rel - 0.2) < 1e-9
        assert report.exit_code == 1

    def test_higher_is_better_drop_flagged(self):
        new = {"phases": {"analysis.wall_s": 1.0}, "speedup": 1.6,
               "files": 7}
        report = diff_payloads(OLD, new)
        (reg,) = report.regressions
        assert reg.key == "speedup" and reg.direction == "higher"

    def test_improvement_is_not_a_regression(self):
        new = {"phases": {"analysis.wall_s": 0.7}, "speedup": 2.5,
               "files": 7}
        report = diff_payloads(OLD, new)
        assert report.regressions == []
        assert {d.key for d in report.improvements} == \
            {"phases.analysis.wall_s", "speedup"}
        assert report.exit_code == 0

    def test_neutral_keys_never_flagged(self):
        report = diff_payloads({"files": 1}, {"files": 100})
        assert report.regressions == report.improvements == []
        assert report.deltas[0].status == "neutral"

    def test_span_identity_fields_ignored(self):
        # Span ids / pids differ between any two runs by construction;
        # they must be dropped, not compared or noted as one-sided.
        old = {"spans": [{"id": 1, "parent": None, "pid": 10, "tid": 5,
                          "duration_s": 1.0}]}
        new = {"spans": [{"id": 7, "pid": 99, "tid": 8,
                          "duration_s": 1.0}]}
        report = diff_payloads(old, new)
        assert [d.key for d in report.deltas] == ["spans.0.duration_s"]
        assert report.notes == []

    def test_threshold_is_a_directed_bar(self):
        # 9% under the default 10% bar: quiet either way.
        new = {"phases": {"analysis.wall_s": 1.09}, "speedup": 2.0,
               "files": 7}
        report = diff_payloads(OLD, new)
        assert report.regressions == [] and report.improvements == []
        # A tighter explicit threshold flags the same delta.
        tight = diff_payloads(OLD, new, threshold=0.05)
        assert len(tight.regressions) == 1

    def test_zero_baseline_and_one_sided_keys_noted(self):
        report = diff_payloads({"a_s": 0.0, "gone_s": 1.0},
                               {"a_s": 0.5, "new_s": 1.0}, file="f.json")
        (reg,) = report.regressions
        assert reg.key == "a_s" and reg.rel == float("inf")
        assert any("gone_s only in OLD" in n for n in report.notes)
        assert any("new_s only in NEW" in n for n in report.notes)
        # The report renders and serialises without blowing up on inf.
        assert "new" in report.render()
        assert report.to_dict()["regressions"][0]["key"] == "a_s"

    def test_fraction_near_zero_is_judged_by_absolute_change(self):
        key = "overhead.collector_overhead_fraction"

        def status(old, new):
            (delta,) = diff_payloads({"overhead": {
                "collector_overhead_fraction": old}}, {"overhead": {
                    "collector_overhead_fraction": new}}).deltas
            assert delta.key == key
            return delta.status

        # +1,400% relative, but 0.003 of the run: not a regression.
        assert status(0.0002, 0.003) == "ok"
        assert status(0.0002, 0.060) == "regression"
        # A sign flip inside the bar is noise, not an improvement.
        assert status(0.02, -0.01) == "ok"
        assert status(0.08, 0.01) == "improvement"

    def test_fraction_regression_renders_its_absolute_change(self):
        report = diff_payloads({"x_fraction": 0.0002},
                               {"x_fraction": 0.06})
        assert "+0.0598 absolute" in report.render()


class TestBenchDiffFiles:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_file_vs_file(self, tmp_path):
        old = self._write(tmp_path / "old.json", OLD)
        new = self._write(tmp_path / "new.json",
                          {"phases": {"analysis.wall_s": 1.25},
                           "speedup": 2.0, "files": 7})
        report = bench_diff(old, new)
        assert report.exit_code == 1
        assert report.regressions[0].file == "new.json"

    def test_dir_vs_dir_matches_artifacts_by_name(self, tmp_path):
        old_dir = tmp_path / "base"
        new_dir = tmp_path / "cand"
        old_dir.mkdir()
        new_dir.mkdir()
        self._write(old_dir / "BENCH_a.json", {"wall_s": 1.0})
        self._write(new_dir / "BENCH_a.json", {"wall_s": 2.0})
        self._write(old_dir / "BENCH_gone.json", {"wall_s": 1.0})
        self._write(new_dir / "BENCH_new.json", {"wall_s": 1.0})
        self._write(new_dir / "not_an_artifact.json", {"wall_s": 9.0})
        report = bench_diff(str(old_dir), str(new_dir))
        (reg,) = report.regressions
        assert reg.file == "BENCH_a.json" and reg.key == "wall_s"
        assert any("BENCH_gone.json only in OLD" in n
                   for n in report.notes)
        assert any("BENCH_new.json only in NEW" in n
                   for n in report.notes)
        assert not any("not_an_artifact" in n for n in report.notes)

    def test_default_threshold_matches_issue(self):
        assert DEFAULT_THRESHOLD == 0.10


class TestBenchDiffCli:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_regression_exits_one(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", OLD)
        new = self._write(tmp_path / "new.json",
                          {"phases": {"analysis.wall_s": 1.2},
                           "speedup": 2.0, "files": 7})
        assert main(["bench-diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "regressions (1)" in out
        assert "phases.analysis.wall_s" in out

    def test_identical_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", OLD)
        assert main(["bench-diff", old, old]) == 0
        assert "no metric moved" in capsys.readouterr().out

    def test_warn_mode_exits_zero_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", OLD)
        new = self._write(tmp_path / "new.json",
                          {"phases": {"analysis.wall_s": 5.0},
                           "speedup": 2.0, "files": 7})
        assert main(["bench-diff", old, new, "--warn"]) == 0
        captured = capsys.readouterr()
        assert "regressions (1)" in captured.out
        assert "--warn" in captured.err

    def test_json_output(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", OLD)
        new = self._write(tmp_path / "new.json",
                          {"phases": {"analysis.wall_s": 1.5},
                           "speedup": 2.0, "files": 7})
        assert main(["bench-diff", old, new, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == DEFAULT_THRESHOLD
        assert payload["regressions"][0]["key"] == "phases.analysis.wall_s"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", OLD)
        assert main(["bench-diff", old, str(tmp_path / "nope.json")]) == 2
        assert "bench-diff" in capsys.readouterr().err

    def test_warn_mode_enforces_contract_metrics(self, tmp_path, capsys):
        # The three contract metrics stay hard gates even under --warn:
        # wall_ratio is lower-is-better, so 0.5 -> 0.9 is a regression
        # that must fail the run.
        old = self._write(tmp_path / "old.json",
                          {"engine": {"wall_ratio": 0.5}, "files": 7})
        new = self._write(tmp_path / "new.json",
                          {"engine": {"wall_ratio": 0.9}, "files": 7})
        assert main(["bench-diff", old, new, "--warn"]) == 1
        captured = capsys.readouterr()
        assert "enforced regression" in captured.err
        assert "engine.wall_ratio" in captured.err

    def test_enforce_regex_is_overridable(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json",
                          {"engine": {"wall_ratio": 0.5}, "files": 7})
        new = self._write(tmp_path / "new.json",
                          {"engine": {"wall_ratio": 0.9}, "files": 7})
        # Empty regex disables enforcement; a non-matching one ignores
        # this regression; a matching custom one catches it.
        assert main(["bench-diff", old, new, "--warn",
                     "--enforce", ""]) == 0
        assert main(["bench-diff", old, new, "--warn",
                     "--enforce", "pickle_bytes"]) == 0
        assert main(["bench-diff", old, new, "--warn",
                     "--enforce", "engine"]) == 1
        capsys.readouterr()

    def test_enforce_only_applies_to_regressions(self, tmp_path, capsys):
        # An *improvement* in an enforced metric must not fail the run.
        old = self._write(tmp_path / "old.json",
                          {"engine": {"wall_ratio": 0.9}, "files": 7})
        new = self._write(tmp_path / "new.json",
                          {"engine": {"wall_ratio": 0.5}, "files": 7})
        assert main(["bench-diff", old, new, "--warn"]) == 0
        assert main(["bench-diff", old, new]) == 0
        capsys.readouterr()

    def test_custom_threshold(self, tmp_path):
        old = self._write(tmp_path / "old.json", OLD)
        new = self._write(tmp_path / "new.json",
                          {"phases": {"analysis.wall_s": 1.09},
                           "speedup": 2.0, "files": 7})
        assert main(["bench-diff", old, new]) == 0
        assert main(["bench-diff", old, new, "--threshold", "0.05"]) == 1
