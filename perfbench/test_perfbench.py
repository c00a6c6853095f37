"""Tests of the pipeline benchmark: workloads, label oracle and tracer.

Run from the repository root with ``python -m pytest perfbench -q``.
Every workload runs once at scale 1 on seed 7 (the default seed is 0)
and must pass the label oracle.
"""

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from oracle import CRATE_MASKED, check_findings  # noqa: E402
from repro import api, driver  # noqa: E402
from repro.analysis import executor  # noqa: E402
from repro.corpus.generator import generate_corpus  # noqa: E402
from repro.detectors.registry import ALL_DETECTORS  # noqa: E402
from repro.lang.lexer import Lexer  # noqa: E402

SEED = 7
SCALE = 1
SMALL = ("--seed", str(SEED), "--seconds", "0.1", "--scale", str(SCALE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _correct_line(done):
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    return line


def _units(line):
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_passes_oracle_and_reports_every_layer(workload):
    line = _correct_line(_run(ROOT, "--workload", workload, "--trace", "1",
                              *SMALL))
    assert _units(line) == {m["name"]: m["unit"]
                            for m in BENCHMARK["per_layer"]}


def test_timed_run_reports_every_end_to_end_metric():
    line = _correct_line(_run(ROOT, "--workload", "edit-recheck",
                              "--trace", "0", *SMALL))
    assert _units(line) == {m["name"]: m["unit"]
                            for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_without_program_source_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "--workload", "corpus-sweep", "--trace", "0",
                *SMALL)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def verdict():
    """A labelled corpus file and its real findings."""
    file = next(f for f in generate_corpus(SEED, scale=SCALE).files
                if f.injected)
    report = api.AnalysisSession().analyze_sources(
        [(file.name, file.text)])[0]
    return file, list(report.findings)


def test_oracle_accepts_the_real_verdict(verdict):
    file, findings = verdict
    assert check_findings(findings, file.injected) == []


def test_oracle_fails_a_dropped_finding(verdict):
    file, findings = verdict
    detector = file.injected[0].template.detector
    kept = [f for f in findings if f.detector != detector]
    problems = check_findings(kept, file.injected)
    assert any(p.startswith("missed") for p in problems)


def test_oracle_fails_a_spurious_finding(verdict):
    file, findings = verdict
    spurious = dataclasses.replace(findings[0], fn_key="main")
    problems = check_findings(findings + [spurious], file.injected)
    assert problems == ["unlabelled finding "
                        f"[{spurious.detector}] in main"]


def _bug(suffix, template="uaf_drop_deref", detector="use-after-free"):
    return SimpleNamespace(
        fn_name=f"bug_{suffix}", file_name="m.rs",
        template=SimpleNamespace(name=template, detector=detector))


def test_oracle_label_stops_before_a_digit():
    finding = SimpleNamespace(detector="use-after-free", fn_key="bug_se12")
    assert check_findings([finding], [_bug("se1")]) == [
        "unlabelled finding [use-after-free] in bug_se12",
        "missed uaf_drop_deref (use-after-free) in bug_se1 of m.rs"]


def test_crate_mask_excuses_only_a_miss():
    bug = _bug("se1", "channel_no_sender", "channel")
    stray = SimpleNamespace(detector="channel", fn_key="main")
    assert check_findings([], [bug], masked=CRATE_MASKED) == []
    assert check_findings([], [bug]) != []
    assert check_findings([stray], [bug], masked=CRATE_MASKED) != []


def test_a_wrong_verdict_fails_its_operation(tmp_path):
    workload = workloads.CorpusSweep(SEED, SCALE, str(tmp_path))
    analyze = workload.session.analyze_sources

    def without_findings(named):
        reports = analyze(named)
        for report in reports:
            report.report.findings.clear()
        return reports

    workload.session.analyze_sources = without_findings
    result = workload.run_pass(0)
    assert len(result.op_seconds) == len(workload.corpus.files)
    assert result.failed == sum(1 for f in workload.corpus.files
                                if f.injected)


def test_tracer_records_layers_and_restores_the_program():
    def patched():
        return (Lexer.tokenize, executor.scc_order, driver.build_item_table,
                executor.ReportCache.__dict__["key"],
                api.AnalysisSession.analyze, list(gc.callbacks),
                [cls.__dict__.get("run") for cls in ALL_DETECTORS])

    before = patched()
    tracer = layers.Tracer()
    with tracer:
        api.analyze("fn main() {\n    let v = vec![1, 2, 3];\n"
                    "    let p = v.as_ptr();\n    drop(v);\n"
                    "    unsafe { let x = *p; }\n}\n")
    selfs, counts, folded = tracer.take_pass()
    assert patched() == before
    assert selfs["lex"] > 0 and selfs["detector.use-after-free"] > 0
    assert counts["tokens"] > 0 and counts["detectors.findings_raw"] >= 1
    assert "op;detector.use-after-free" in folded


def test_pace_scales_each_group_by_the_readings_around_it(monkeypatch):
    readings = iter([2.0, 4.0, 8.0])
    monkeypatch.setattr(speed, "loop_ms", lambda: next(readings))
    pace = speed.Pace(2, 0.5)
    for seconds in (1.0, 2.0, 3.0):
        pace.add(seconds)
    pace.flush()

    def factor(reading):
        return (speed.REFERENCE_MS / reading) ** 0.5

    assert pace.measured == [1.0, 2.0, 3.0]
    assert pace.readings == [2.0, 4.0, 8.0]
    assert pace.scaled == pytest.approx(
        [1.0 * factor(3.0), 2.0 * factor(3.0), 3.0 * factor(6.0)])
