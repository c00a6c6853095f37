"""Tests for the ``repro.api`` facade, ``AnalysisConfig`` validation,
the removal of the ``interprocedural=`` shims, and report schema
versioning."""

import hashlib
import inspect
import json
from dataclasses import fields

import pytest

from repro import api
from repro.analysis.config import AnalysisConfig, coerce_config
from repro.detectors.base import AnalysisContext
from repro.detectors.report import SCHEMA_VERSION
from repro.driver import compile_source
from repro.detectors.registry import run_detectors

UAF_SRC = """
fn main() {
    let v: Vec<i32> = Vec::new();
    let p: *const i32 = v.as_ptr();
    drop(v);
    unsafe { print(*p); }
}
"""

CLEAN_SRC = """
fn main() { let x = 1; print(x); }
"""


class TestAnalyze:
    def test_source_text(self):
        report = api.analyze(UAF_SRC)
        assert report.exit_code == 1
        assert any(f.detector == "use-after-free" for f in report.findings)
        assert report.name == "<input>"

    def test_clean_source_exits_zero(self):
        report = api.analyze(CLEAN_SRC)
        assert report.exit_code == 0
        assert report.render() == "no findings"

    def test_path_input(self, tmp_path):
        path = tmp_path / "prog.rs"
        path.write_text(UAF_SRC)
        report = api.analyze(path)
        assert report.exit_code == 1
        assert report.name == str(path)

    def test_name_override(self):
        report = api.analyze(UAF_SRC, name="mine.rs")
        assert report.name == "mine.rs"
        assert report.to_dict()["source"] == "mine.rs"

    def test_detector_names_filter(self):
        report = api.analyze(
            UAF_SRC, config=AnalysisConfig(detectors=["double-lock"]))
        assert report.exit_code == 0

    def test_unknown_detector_raises(self):
        with pytest.raises(ValueError, match="unknown detector"):
            api.analyze(UAF_SRC,
                        config=AnalysisConfig(detectors=["not-a-detector"]))

    def test_bad_detector_type_raises(self):
        with pytest.raises(ValueError, match="non-empty strings"):
            api.analyze(UAF_SRC, config=AnalysisConfig(detectors=[42]))

    def test_config_is_the_only_detector_selector(self):
        # No entry point takes a per-call ``detectors=`` override.
        for entry in (api.analyze, api.AnalysisSession.analyze,
                      api.AnalysisSession.analyze_compiled,
                      api.AnalysisSession.analyze_sources,
                      api.AnalysisSession.analyze_files):
            assert "detectors" not in inspect.signature(entry).parameters


class TestAnalysisSession:
    def test_session_reusable_and_closable(self):
        session = api.AnalysisSession()
        first = session.analyze(UAF_SRC)
        second = session.analyze(CLEAN_SRC)
        assert first.exit_code == 1 and second.exit_code == 0
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.analyze(UAF_SRC)

    def test_unknown_configured_detector_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown detector"):
            api.AnalysisSession(AnalysisConfig(detectors=("nope",)))

    def test_analyze_files(self, tmp_path):
        paths = []
        for i, src in enumerate([UAF_SRC, CLEAN_SRC]):
            p = tmp_path / f"prog{i}.rs"
            p.write_text(src)
            paths.append(p)
        with api.AnalysisSession() as session:
            reports = session.analyze_files(paths)
        assert [r.exit_code for r in reports] == [1, 0]
        assert reports[0].name == str(paths[0])

    def test_detector_catalog(self):
        catalog = api.detector_catalog()
        names = {entry["name"] for entry in catalog}
        assert {"use-after-free", "double-lock"} <= names
        assert all({"name", "description"} <= set(e) for e in catalog)
        audit, = [e for e in catalog if e["name"] == "interior-unsafe-audit"]
        assert audit["paper_section"] == "4.3"


class TestReportCache:
    """Whole-file report tier: a warm ``analyze_sources`` over unchanged
    sources serves reports without recompiling or re-solving."""

    SOURCES = (("uaf.rs", UAF_SRC), ("clean.rs", CLEAN_SRC))

    def _run(self, config):
        with api.AnalysisSession(config) as session:
            return session.analyze_sources(list(self.SOURCES))

    def test_warm_run_hits_per_file(self, tmp_path):
        from repro import obs
        config = AnalysisConfig(cache_dir=str(tmp_path))
        with obs.collecting() as cold:
            first = self._run(config)
        assert cold.counters["analysis.report_cache.miss"] == 2
        assert cold.counters["analysis.report_cache.store"] == 2
        with obs.collecting() as warm:
            second = self._run(config)
        assert warm.counters["analysis.report_cache.hit"] == 2
        assert warm.counters.get("analysis.report_cache.miss", 0) == 0
        # No compile, no solve: the report tier short-circuits both.
        assert warm.counters.get(
            "analysis.executor.solved_functions", 0) == 0
        assert [json.dumps(r.to_dict()) for r in first] == \
            [json.dumps(r.to_dict()) for r in second]

    def test_source_edit_misses_only_that_file(self, tmp_path):
        from repro import obs
        config = AnalysisConfig(cache_dir=str(tmp_path))
        self._run(config)
        edited = (("uaf.rs", UAF_SRC),
                  ("clean.rs", CLEAN_SRC + "\n// touched\n"))
        with obs.collecting() as warm:
            with api.AnalysisSession(config) as session:
                session.analyze_sources(list(edited))
        assert warm.counters["analysis.report_cache.hit"] == 1
        assert warm.counters["analysis.report_cache.miss"] == 1

    def test_corrupt_report_entry_recomputes(self, tmp_path):
        config = AnalysisConfig(cache_dir=str(tmp_path))
        first = self._run(config)
        reports_dir = tmp_path / "reports"
        entries = sorted(reports_dir.glob("*.report.pkl"))
        assert len(entries) == 2
        for entry in entries:
            entry.write_bytes(b"\x00torn")
        from repro import obs
        with obs.collecting() as col:
            second = self._run(config)
        assert col.counters["analysis.report_cache.corrupt"] == 2
        assert [json.dumps(r.to_dict()) for r in first] == \
            [json.dumps(r.to_dict()) for r in second]

    def test_detector_selection_uses_report_cache(self, tmp_path):
        # A selection is part of the config, so it is keyed like any
        # other finding-relevant field and served warm.
        from repro import obs
        config = AnalysisConfig(cache_dir=str(tmp_path),
                                detectors=("use-after-free",))
        cold = self._run(config)
        with obs.collecting() as col:
            warm = self._run(config)
        assert col.counters["analysis.report_cache.hit"] == 2
        assert [json.dumps(r.to_dict()) for r in warm] == \
            [json.dumps(r.to_dict()) for r in cold]
        assert {f.detector for r in warm for f in r.findings} == \
            {"use-after-free"}

    def test_batch_evicts_once_after_its_stores(self, tmp_path,
                                                monkeypatch):
        # Eviction scans the report directory once per batch, after the
        # batch's stores, and keeps at most ``limit`` reports; a batch
        # that stores nothing does not scan at all.
        import os
        from repro.analysis import executor

        class SmallReportCache(executor.ReportCache):
            def __init__(self, root):
                super().__init__(root, limit=3)
        monkeypatch.setattr(executor, "ReportCache", SmallReportCache)
        scans = []
        scandir = os.scandir

        def counted_scandir(path):
            scans.append(path)
            return scandir(path)
        monkeypatch.setattr(os, "scandir", counted_scandir)
        config = AnalysisConfig(cache_dir=str(tmp_path))
        sources = [(f"f{i}.rs", CLEAN_SRC) for i in range(5)]
        with api.AnalysisSession(config) as session:
            session.analyze_sources(sources)
            assert len(scans) == 1
            reports = [name for name in os.listdir(tmp_path / "reports")
                       if name.endswith(".report.pkl")]
            assert len(reports) == 3
            session.analyze_sources(sources[-2:])     # all hits
            assert len(scans) == 1

    def test_report_cache_knob_disables_tier(self, tmp_path):
        from repro import obs
        config = AnalysisConfig(cache_dir=str(tmp_path),
                                report_cache=False)
        self._run(config)
        with obs.collecting() as warm:
            self._run(config)
        assert "analysis.report_cache.hit" not in warm.counters
        # The summary tier below still works.
        assert warm.counters["analysis.cache.hit"] > 0

    def test_unwind_ablation_never_served_a_default_report(self, tmp_path):
        # Without unwind edges the panic window reads as a double free;
        # a report cached at the default config must not answer for it.
        from repro.corpus.inject import BUG_TEMPLATES
        source = [("panic.rs", BUG_TEMPLATES[
            "panic_between_read_and_write"].render("p0"))]
        ablated = AnalysisConfig(unwind_edges=False)
        with api.AnalysisSession(ablated) as session:
            expected = session.analyze_sources(source)[0]
        assert {f.detector for f in expected.findings} == {"double-free"}
        with api.AnalysisSession(
                AnalysisConfig(cache_dir=str(tmp_path))) as session:
            warmed = session.analyze_sources(source)[0]
        assert {f.detector for f in warmed.findings} == {"panic-safety"}
        with api.AnalysisSession(
                ablated.with_(cache_dir=str(tmp_path))) as session:
            got = session.analyze_sources(source)[0]
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())

    def test_key_pins_the_current_formula(self):
        # Report keys on disk stay valid only while these bytes do: the
        # version/schema/knob prefix built once per config must hash
        # exactly what the per-file formula did.
        from repro.analysis.executor import ReportCache
        for unwind in (True, False):
            knobs = (("interprocedural", True), ("detectors", None),
                     ("unwind_edges", unwind))
            h = hashlib.sha256()
            h.update(b"repro-report-cache-v3:schema1.0\x00")
            h.update(repr(knobs).encode())
            h.update(b"\x00a.rs\x00")
            h.update(UAF_SRC.encode())
            expected = h.hexdigest()
            config = AnalysisConfig(unwind_edges=unwind)
            for _ in range(2):      # the second call reuses the prefix
                assert ReportCache.key("a.rs", UAF_SRC, config) == expected
            assert ReportCache.key("a.rs", UAF_SRC, AnalysisConfig(
                unwind_edges=unwind, jobs=2)) == expected

    def test_every_finding_field_changes_the_key(self):
        # A config field either only says how or where to run, or it is
        # part of the report key.  A new field fails here until it is
        # placed on one side or the other.
        from repro.analysis.executor import ReportCache
        execution = {"jobs": 2, "cache_dir": "elsewhere",
                     "report_cache": False}
        base = AnalysisConfig()
        key = ReportCache.key("a.rs", UAF_SRC, base)
        for f in fields(AnalysisConfig):
            value = getattr(base, f.name)
            if f.name in execution:
                flipped = execution[f.name]
            elif isinstance(value, bool):
                flipped = not value
            elif isinstance(value, int):
                flipped = value + 1
            elif f.name == "detectors":
                flipped = ("use-after-free",)
            else:
                raise AssertionError(
                    f"no flipped value for new config field {f.name!r}")
            changed = ReportCache.key("a.rs", UAF_SRC,
                                      base.with_(**{f.name: flipped}))
            if f.name in execution:
                assert changed == key, f.name
            else:
                assert changed != key, f.name


class TestAnalysisConfig:
    def test_frozen(self):
        config = AnalysisConfig()
        with pytest.raises(Exception):
            config.jobs = 2

    def test_with_returns_new_instance(self):
        config = AnalysisConfig()
        other = config.with_(jobs=4)
        assert other.jobs == 4 and config.jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(jobs=0)
        with pytest.raises(ValueError, match="not a string"):
            AnalysisConfig(detectors="use-after-free")
        with pytest.raises(ValueError, match="cache_dir"):
            AnalysisConfig(cache_dir=7)

    def test_detectors_tuple_ified(self):
        config = AnalysisConfig(detectors=["use-after-free"])
        assert config.detectors == ("use-after-free",)

    def test_every_field_is_read(self):
        # A knob no pass reads changes nothing but the report key: every
        # field must be read as ``<...>config.<field>`` somewhere in the
        # package outside config.py.
        import ast
        import pathlib
        import repro
        root = pathlib.Path(repro.__file__).parent
        read = set()
        for path in root.rglob("*.py"):
            if path == root / "analysis" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    owner = node.value
                    if getattr(owner, "id", None) == "config" \
                            or getattr(owner, "attr", None) == "config":
                        read.add(node.attr)
        unread = [f.name for f in fields(AnalysisConfig)
                  if f.name not in read]
        assert not unread


class TestPackageImports:
    def test_every_top_level_import_is_used(self):
        # No linter runs on the package: a module-level import must be
        # used by name in its module or listed in its ``__all__``.
        import ast
        import pathlib
        import repro
        root = pathlib.Path(repro.__file__).parent
        unused = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(target, "id", None) == "__all__"
                        for target in node.targets):
                    used.update(elt.value for elt in node.value.elts)
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            unused.append(
                                f"{path.relative_to(root)}: {name}")
        assert not unused


class TestDeprecationShims:
    """The ``interprocedural=`` keyword and the bare-bool config
    position are gone; the ablation switch lives on the config."""

    def test_interprocedural_kwarg_rejected(self):
        program = compile_source(CLEAN_SRC).program
        context = AnalysisContext(
            program, AnalysisConfig(interprocedural=False))
        assert context.config.interprocedural is False
        with pytest.raises(TypeError):
            AnalysisContext(program, interprocedural=False)

    def test_legacy_positional_bool_rejected(self):
        program = compile_source(CLEAN_SRC).program
        with pytest.raises(TypeError, match="AnalysisConfig"):
            AnalysisContext(program, False)
        with pytest.raises(TypeError, match="AnalysisConfig"):
            coerce_config(True)

    def test_coerce_config_passthrough(self):
        config = AnalysisConfig(jobs=2)
        assert coerce_config(config) is config
        assert coerce_config(None) == AnalysisConfig()

    def test_run_detectors_accepts_config(self):
        compiled = compile_source(UAF_SRC)
        report = run_detectors(
            compiled.program, source=compiled.source,
            config=AnalysisConfig(detectors=("use-after-free",)))
        assert all(f.detector == "use-after-free" for f in report.findings)
        assert report.findings


class TestSchemaVersion:
    def test_report_dict_carries_version(self):
        payload = api.analyze(UAF_SRC).to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload) == {"schema_version", "source", "findings",
                                "counts", "errors", "warnings"}

    def test_finding_dict_carries_version_and_stable_fields(self):
        payload = api.analyze(UAF_SRC).to_dict()
        finding = payload["findings"][0]
        assert finding["schema_version"] == SCHEMA_VERSION
        for key in ("detector", "kind", "severity", "message", "fn",
                    "metadata", "provenance"):
            assert key in finding
        json.dumps(payload)  # whole payload must stay JSON-serializable

    def test_version_shape(self):
        major, minor = SCHEMA_VERSION.split(".")
        assert major.isdigit() and minor.isdigit()
