"""Corpus generator, detector evaluation, and unsafe-scan tests."""

import pytest

from repro.corpus import (
    APP_PROFILES, BUG_TEMPLATES, evaluate_detectors, generate_corpus,
)
from repro.driver import compile_source
from repro.study.taxonomy import UnsafeOpKind
from repro import api
from repro.study.unsafe_scan import (
    count_unsafe_in_crate, scan_program, scan_sources,
)


class TestCorpusGeneration:
    def test_deterministic(self):
        a = generate_corpus(seed=7)
        b = generate_corpus(seed=7)
        assert [f.text for f in a.files] == [f.text for f in b.files]

    def test_seed_changes_layout(self):
        a = generate_corpus(seed=1)
        b = generate_corpus(seed=2)
        assert [f.name for f in a.files] == [f.name for f in b.files]
        # Shuffled bug placement differs.
        assert [f.text for f in a.files] != [f.text for f in b.files]

    def test_scale_grows_corpus(self):
        small = generate_corpus(seed=0, scale=1)
        big = generate_corpus(seed=0, scale=2)
        assert len(big.files) > len(small.files)
        assert len(big.injected) == 2 * len(small.injected)

    def test_every_project_present(self):
        corpus = generate_corpus(seed=0)
        assert set(corpus.by_project()) == set(APP_PROFILES)

    def test_injected_mix_follows_profiles(self):
        corpus = generate_corpus(seed=0)
        by_project = {}
        for bug in corpus.injected:
            by_project.setdefault(bug.project, []).append(bug.template.name)
        for name, profile in APP_PROFILES.items():
            expected = sum(profile.bug_mix.values())
            assert len(by_project.get(name, [])) == expected

    def test_all_files_compile(self):
        corpus = generate_corpus(seed=0)
        for file in corpus.files:
            compiled = compile_source(file.text, name=file.name)
            assert compiled.program.functions

    def test_ethereum_like_is_blocking_heavy(self):
        corpus = generate_corpus(seed=0)
        from repro.study.taxonomy import BugKind
        eth = [b for b in corpus.injected if b.project == "ethereum_like"]
        blocking = [b for b in eth if b.template.kind is BugKind.BLOCKING]
        assert len(blocking) > len(eth) / 2


class TestDetectorEvaluation:
    @pytest.fixture(scope="class")
    def result(self):
        return evaluate_detectors(generate_corpus(seed=1))

    def test_full_recall(self, result):
        for name, score in result.scores.items():
            assert score.found == score.injected, \
                f"{name} missed {score.missed}"

    def test_no_false_positives(self, result):
        for name, score in result.scores.items():
            assert score.false_positives == 0, name

    def test_both_paper_detectors_evaluated(self, result):
        assert result.scores["use-after-free"].injected > 0
        assert result.scores["double-lock"].injected > 0

    def test_summary_rows_shape(self, result):
        rows = result.summary_rows()
        assert all(len(row) == 5 for row in rows)
        assert rows == sorted(rows)

    def test_unsafe_encapsulation_templates_recalled(self, result):
        # PR 5 templates: both unsafe-leak injections and the
        # interprocedural unchecked-input passthrough, with zero noise.
        leak = result.scores["unsafe-leak"]
        assert (leak.injected, leak.found, leak.false_positives) == (2, 2, 0)
        unchecked = result.scores["unchecked-unsafe-input"]
        assert (unchecked.injected, unchecked.found,
                unchecked.false_positives) == (1, 1, 0)

    def test_benign_checked_interior_unsafe_is_silent(self):
        # The bounds-checked mirror of unchecked_index_passthrough must
        # produce no findings from any detector.
        from repro.api import analyze
        from repro.corpus.benign import BENIGN_TEMPLATES
        report = analyze(BENIGN_TEMPLATES["checked_interior_unsafe"]("t0"))
        assert not report.findings


class TestUnsafeScan:
    SRC = """
    unsafe trait RawAccess {}
    struct Buf { data: Vec<u8>, len: usize }
    unsafe impl Sync for Buf {}
    impl Buf {
        fn read(&self, i: usize) -> u8 {
            if i >= self.len { return 0; }
            unsafe { *self.data.get_unchecked(i) }
        }
        unsafe fn raw(&self) -> *const u8 { self.data.as_ptr() }
    }
    fn main() {
        let b = Buf { data: vec![0u8; 4], len: 4 };
        unsafe {
            let p = b.raw();
            let x = *p;
        }
    }
    """

    def test_counts(self):
        from repro.lang.parser import parse_source
        counts = count_unsafe_in_crate(parse_source(self.SRC))
        assert counts.blocks == 2
        assert counts.functions == 1
        assert counts.traits == 1
        assert counts.impls == 1

    def test_operations_classified(self):
        compiled = compile_source(self.SRC)
        result = scan_program(compiled.program, compiled.crate)
        assert result.operations.get(UnsafeOpKind.MEMORY_OPERATION, 0) > 0 \
            or result.operations.get(UnsafeOpKind.UNSAFE_CALL, 0) > 0

    def test_interior_unsafe_found_and_checked(self):
        compiled = compile_source(self.SRC)
        result = scan_program(compiled.program, compiled.crate)
        classes = {row["fn"]: row["classification"]
                   for row in result.audit.rows}
        assert classes["Buf::read"] == "checked"

    def test_improper_encapsulation_detected(self):
        bad = """
        fn deref_it(p: *const i32) -> i32 {
            unsafe { *p }
        }
        """
        compiled = compile_source(bad)
        result = scan_program(compiled.program, compiled.crate)
        assert result.audit.unchecked == ["deref_it"]

    def test_scan_sources_merges(self):
        result = scan_sources([("a.rs", "unsafe fn f() {}"),
                               ("b.rs", "unsafe fn g() {}")])
        assert result.counts.functions == 2

    @pytest.mark.parametrize("seed, unchecked", [
        (0, ["Tableli5::get_raw"]), (1, ["Tableli1::get_raw"])],
        ids=["seed0", "seed1"])
    def test_scan_census_is_the_audit(self, seed, unchecked):
        """`scan` and `audit-unsafe` give one §4.3 census: the same
        interior-unsafe functions, classified the same way."""
        corpus = generate_corpus(seed=seed, scale=1)
        named = [(f.name, f.text) for f in corpus.files]
        scanned = scan_sources(named).audit
        audited = api.audit_unsafe(named)
        assert {row["fn"] for row in scanned.rows} == \
            {row["fn"] for row in audited.rows}
        assert scanned.unchecked == audited.unchecked == unchecked
        assert scanned.rows == audited.rows

    def test_corpus_scan_shape(self):
        """The §4 shape on the corpus: unsafe exists, memory operations
        dominate over other unsafe statement kinds."""
        corpus = generate_corpus(seed=0)
        result = scan_sources((f.name, f.text) for f in corpus.files)
        assert result.counts.total > 0
        shares = result.operation_shares()
        mem = shares.get(UnsafeOpKind.MEMORY_OPERATION.value, 0)
        other = shares.get(UnsafeOpKind.OTHER.value, 0)
        assert mem > other
