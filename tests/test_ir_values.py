"""The IR's per-token, per-node and per-statement classes are slotted.

Spans, types, places, operands, rvalues and callee references are value
atoms: equal and hashed by their fields, and never changed once built.
They used to be frozen dataclasses, which checked that on every
assignment and paid for it on every construction.  These tests take
over the guarantee: an analysis of the whole corpus and every template
runs with a guard that fails on any second assignment to an atom.  They
also hold that no instance of the slotted classes carries a
``__dict__``, that pickling, ``copy.deepcopy`` and ``dataclasses.replace``
keep values equal, and that findings do not follow the identity hashes
of the IR's enums from one process to the next.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro import api, obs
from repro.analysis import executor
from repro.analysis.config import AnalysisConfig
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.generator import generate_corpus
from repro.corpus.inject import BUG_TEMPLATES
from repro.driver import compile_source
from repro.hir.builtins import FuncRef
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.source import Span
from repro.lang.tokens import Token
from repro.lang.types import Ty
from repro.mir.nodes import (
    BasicBlock, Constant, Local, Operand, Place, ProjectionElem, Rvalue,
    Statement, Terminator,
)

#: Built once per value and never mutated; hashed by their fields.
VALUE_ATOMS = (Span, Ty, FuncRef, Place, ProjectionElem, Operand, Constant,
               Rvalue)
#: Built once per statement, block or local and filled in by lowering.
MIR_CONTAINERS = (Statement, Terminator, Local, BasicBlock)


def _ast_classes():
    return sorted((cls for cls in vars(ast).values()
                   if isinstance(cls, type)
                   and dataclasses.is_dataclass(cls)
                   and cls.__module__ == ast.__name__),
                  key=lambda cls: cls.__name__)


SLOTTED = VALUE_ATOMS + MIR_CONTAINERS + tuple(_ast_classes())


def _reachable(root):
    """Every object reachable from ``root`` through dataclass fields and
    containers, once each."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name)
                         for f in dataclasses.fields(obj))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(0, 1)


@pytest.fixture(scope="module")
def compiled(corpus):
    return compile_source(corpus.combined_source(), name="crate")


@pytest.fixture(scope="module")
def samples(compiled):
    """One instance per class, taken from the compiled corpus where it
    has one (AST classes it never builds are built from their
    defaults).  The crate sample keeps only its first items."""
    found = {}
    for root in (compiled.crate, compiled.program.functions):
        for obj in _reachable(root):
            found.setdefault(type(obj), obj)
    found[ast.Crate] = dataclasses.replace(
        compiled.crate, items=compiled.crate.items[:3])
    for cls in SLOTTED:
        if cls not in found:
            assert issubclass(cls, (ast.Node, ast.PathSegment)), cls
            found[cls] = (cls(Span(0, 1)) if issubclass(cls, ast.Node)
                          else cls("x"))
    return found


def _guard(cls):
    """A ``__setattr__`` that fails on any assignment to a field that
    already holds a value: the run-time check ``frozen=True`` made."""
    def __setattr__(self, name, value):
        try:
            getattr(self, name)
        except AttributeError:
            object.__setattr__(self, name, value)
            return
        raise dataclasses.FrozenInstanceError(
            f"{cls.__name__}.{name} assigned after construction")
    return __setattr__


@pytest.fixture
def guarded(monkeypatch):
    for cls in VALUE_ATOMS:
        monkeypatch.setattr(cls, "__setattr__", _guard(cls), raising=False)


class TestImmutability:
    def test_guard_rejects_a_second_assignment(self, guarded):
        span = Span(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            span.lo = 5
        place = Place(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            place.projection = (ProjectionElem.deref(),)
        assert (span.lo, place.projection) == (1, ())

    def test_combined_corpus_never_mutates_a_value(self, guarded, corpus):
        report = api.analyze(corpus.combined_source(), name="crate")
        assert report.findings

    @pytest.mark.parametrize("name", sorted(BUG_TEMPLATES))
    def test_bug_template_never_mutates_a_value(self, guarded, name):
        api.analyze(BUG_TEMPLATES[name].render("g0"), name=name)

    @pytest.mark.parametrize("name", sorted(BENIGN_TEMPLATES))
    def test_benign_template_never_mutates_a_value(self, guarded, name):
        api.analyze(BENIGN_TEMPLATES[name]("g0"), name=name)


class TestRoundTrips:
    @pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
    def test_pickle_deepcopy_and_replace(self, samples, cls):
        obj = samples[cls]
        pickled = pickle.loads(pickle.dumps(
            obj, protocol=pickle.HIGHEST_PROTOCOL))
        copied = copy.deepcopy(obj)
        replaced = dataclasses.replace(obj)
        for other in (pickled, copied, replaced):
            assert type(other) is cls
            assert other == obj
        if cls in VALUE_ATOMS:
            assert hash(pickled) == hash(copied) == hash(replaced) \
                == hash(obj)
        else:
            assert cls.__hash__ is None

    def test_span_dummy_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(Span)] == \
            ["lo", "hi", "file_name"]
        assert Span.DUMMY == Span(0, 0, "<dummy>") and Span.DUMMY.is_dummy
        assert pickle.loads(pickle.dumps(Span.DUMMY)).is_dummy


class TestNoInstanceDict:
    def test_classes_declare_no_dict(self):
        assert [cls.__name__ for cls in SLOTTED + (Token,)
                if cls.__dictoffset__] == []

    def test_compiled_objects_carry_no_dict(self, corpus, compiled):
        counts = {}
        with_dict = set()
        roots = (compiled.crate, compiled.program.functions,
                 tokenize(corpus.combined_source()))
        for root in roots:
            for obj in _reachable(root):
                if isinstance(obj, SLOTTED + (Token,)):
                    counts[type(obj)] = counts.get(type(obj), 0) + 1
                    if hasattr(obj, "__dict__"):
                        with_dict.add(type(obj).__name__)
        assert with_dict == set()
        for cls in VALUE_ATOMS + MIR_CONTAINERS + (Token, ast.Block):
            assert counts.get(cls, 0) > 0, cls.__name__


class TestHashSeedIndependence:
    def test_findings_identical_across_hash_seeds(self):
        """IR enums hash by identity and value atoms by their fields, so
        set and dict orders differ between interpreters; findings of the
        combined corpus and of its per-file sweep must not."""
        import repro
        script = (
            "import json\n"
            "from repro import api\n"
            "from repro.corpus.generator import generate_corpus\n"
            "corpus = generate_corpus(0, 1)\n"
            "crate = api.analyze(corpus.combined_source(), name='crate')\n"
            "with api.AnalysisSession() as session:\n"
            "    sweep = session.analyze_sources(\n"
            "        [(f.name, f.text) for f in corpus.files])\n"
            "print(json.dumps([crate.to_dict()]\n"
            "                 + [r.to_dict() for r in sweep]))\n")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        runs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
            for seed in ("1", "2")]
        outputs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        crate = json.loads(outputs[0])[0]
        assert crate["findings"]
        assert outputs[0] == outputs[1]


class TestCacheVersions:
    def test_entries_of_the_previous_layout_are_never_opened(
            self, tmp_path, monkeypatch, corpus):
        """Entries written under the previous cache versions hold another
        layout or another analysis's results (v3 solved callee locks
        and try-locks by other rules).  The version bumps move every
        key: a cache filled with the old version constants is neither
        read nor counted corrupt, and the rerun solves cold and finds
        the same."""
        files = [(f.name, f.text) for f in corpus.files[:12]]
        # A report-tier batch fills the reports; a batch without it
        # fills the summary shards.
        configs = (AnalysisConfig(cache_dir=str(tmp_path)),
                   AnalysisConfig(cache_dir=str(tmp_path),
                                  report_cache=False))

        def run(config):
            with api.AnalysisSession(config) as session:
                return [r.to_dict() for r in session.analyze_sources(files)]
        with monkeypatch.context() as old:
            old.setattr(executor, "REPORT_CACHE_FORMAT", 3)
            old.setattr(executor, "SUMMARY_KEY_VERSION", 3)
            before = [run(config) for config in configs]
        assert list((tmp_path / "reports").glob("*.report.pkl"))
        assert list(tmp_path.glob("*.shard.pkl"))
        assert before[0] == before[1]
        assert executor.REPORT_CACHE_FORMAT == 4
        assert executor.SUMMARY_KEY_VERSION == 4
        with obs.collecting() as col:
            after = [run(config) for config in configs]
        counters = col.counters
        assert counters.get("analysis.report_cache.corrupt", 0) == 0
        assert counters.get("analysis.cache.corrupt", 0) == 0
        assert counters.get("analysis.report_cache.hit", 0) == 0
        assert counters["analysis.report_cache.miss"] == len(files)
        assert counters.get("analysis.cache.hit", 0) == 0
        assert counters.get("analysis.executor.cached_functions", 0) == 0
        assert counters["analysis.executor.solved_functions"] > 0
        assert after == before
