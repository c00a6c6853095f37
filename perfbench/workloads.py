"""The benchmark's three workloads, each driven through ``repro.api``.

Every workload is built from ``generate_corpus(seed, scale)`` and judges
the whole corpus once per *pass*; a pass is made of *operations*, the
units a user waits on for a verdict:

* ``corpus-sweep``: a pass analyses every corpus file on its own with
  ``analyze_sources([file])`` (the ``minirust check FILE`` shape); an
  operation is one file.
* ``whole-crate``: a pass is one ``analyze(corpus.combined_source())``,
  every file as a single compilation unit; the operation is that check.
* ``edit-recheck``: set-up fills a cache directory (report tier plus
  summary tier) with one full sweep; a pass is one round that appends a
  fresh benign function to two seeded-random files of the pristine
  corpus and re-runs ``analyze_sources`` over all files; the operation
  is that round.

Everything runs at ``jobs=1`` in one process, as a closed loop with one
client: the next operation starts when the previous verdict is in.
Verdicts are judged by :mod:`oracle` outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.api import AnalysisConfig, AnalysisSession
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.generator import generate_corpus

from oracle import CRATE_MASKED, check_findings

#: Files edited per ``edit-recheck`` round.
EDITS_PER_ROUND = 2

#: Files per step of the ``edit-recheck`` cold cache fill.
FILL_BATCH = 10

#: Benign template appended by ``edit-recheck``; ``xq`` is no app prefix
#: of the generator, so the appended names can never carry a bug label.
EDIT_TEMPLATE = "safe_counter"
EDIT_SUFFIX = "xq"


def payload_json(report) -> str:
    """The canonical byte form of one report's ``to_dict()`` payload."""
    return json.dumps(report.to_dict(), sort_keys=True)


@dataclass
class PassResult:
    """Operations run, their verdict times and the oracle's judgement."""

    op_seconds: List[float] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: SHA-256 over every payload, in order: equal digests mean
    #: byte-identical findings.
    digest: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


#: Called with each operation's seconds, after its timed window.
OnOp = Optional[Callable[[float], None]]


def _step(on_step: OnOp, call, *args):
    """One timed step of a set-up: ``call(*args)``, its seconds passed to
    ``on_step``."""
    start = perf_counter()
    value = call(*args)
    if on_step is not None:
        on_step(perf_counter() - start)
    return value


def _timed(result: PassResult, start: float, on_op: OnOp) -> None:
    seconds = perf_counter() - start
    result.op_seconds.append(seconds)
    if on_op is not None:
        on_op(seconds)


def _sweep(session: AnalysisSession, files, reference: Dict[str, str],
           on_op: OnOp = None) -> PassResult:
    """Analyse each file on its own.  The first payload seen for a file
    becomes its entry in ``reference``; later ones must equal it."""
    result = PassResult()
    digest = hashlib.sha256()
    for file in files:
        start = perf_counter()
        try:
            reports = session.analyze_sources([(file.name, file.text)])
        except Exception as exc:   # a crash fails this file only
            _timed(result, start, on_op)
            result.failed += 1
            result.problems.append(f"{file.name}: {exc!r}")
            continue
        _timed(result, start, on_op)
        payload = payload_json(reports[0])
        digest.update(payload.encode())
        problems = check_findings(reports[0].findings, file.injected)
        if payload != reference.setdefault(file.name, payload):
            problems.append(f"{file.name}: payload differs from the first "
                            f"sweep")
        if problems:
            result.failed += 1
            result.problems.extend(problems)
    result.digest = digest.hexdigest()
    return result


class _Workload:
    name = ""

    def __init__(self, seed: int, scale: int, workdir: str,
                 on_step: OnOp = None) -> None:
        """Set-up, timed step by step through ``on_step``."""
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.corpus = _step(on_step, generate_corpus, seed, scale)
        self.named = [(f.name, f.text) for f in self.corpus.files]

    @property
    def loc(self) -> int:
        return self.corpus.total_loc

    def prepare(self) -> PassResult:
        """Untimed oracle work after set-up."""
        return PassResult()

    def fork(self, label: str) -> "_Workload":
        """A workload whose future passes see the same state as this
        one's (the traced run's traced and obs arms run on forks)."""
        return self

    def run_pass(self, index: int, on_op: OnOp = None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CorpusSweep(_Workload):
    name = "corpus-sweep"

    def __init__(self, seed: int, scale: int, workdir: str,
                 on_step: OnOp = None) -> None:
        super().__init__(seed, scale, workdir, on_step)
        self.session = AnalysisSession()
        self.reference: Dict[str, str] = {}

    def run_pass(self, index: int, on_op: OnOp = None) -> PassResult:
        return _sweep(self.session, self.corpus.files, self.reference, on_op)


class WholeCrate(_Workload):
    name = "whole-crate"

    def __init__(self, seed: int, scale: int, workdir: str,
                 on_step: OnOp = None) -> None:
        super().__init__(seed, scale, workdir, on_step)
        self.session = AnalysisSession()
        self.source = _step(on_step, self.corpus.combined_source)
        self.reference: Optional[str] = None

    def run_pass(self, index: int, on_op: OnOp = None) -> PassResult:
        result = PassResult()
        start = perf_counter()
        try:
            report = self.session.analyze(self.source, name="crate")
        except Exception as exc:
            _timed(result, start, on_op)
            result.failed = 1
            result.problems.append(f"crate: {exc!r}")
            return result
        _timed(result, start, on_op)
        payload = payload_json(report)
        result.digest = hashlib.sha256(payload.encode()).hexdigest()
        problems = check_findings(report.findings, self.corpus.injected,
                                  masked=CRATE_MASKED)
        if self.reference is None:
            self.reference = payload
        elif payload != self.reference:
            problems.append("crate: payload differs from the first check")
        if problems:
            result.failed = 1
            result.problems.extend(problems)
        return result


class EditRecheck(_Workload):
    name = "edit-recheck"

    def __init__(self, seed: int, scale: int, workdir: str,
                 on_step: OnOp = None) -> None:
        super().__init__(seed, scale, workdir, on_step)
        self.cache_dir = os.path.join(workdir, "cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.session = AnalysisSession(
            AnalysisConfig(cache_dir=self.cache_dir))
        # Cold cache fill.  At jobs=1 analyze_sources handles its files
        # one after another, so batches leave the cache as one call
        # would, and let ``on_step`` see the fill in short steps.
        for i in range(0, len(self.named), FILL_BATCH):
            _step(on_step, self.session.analyze_sources,
                  self.named[i:i + FILL_BATCH])
        self.reference: Dict[str, str] = {}

    def prepare(self) -> PassResult:
        # The reference is what `corpus-sweep` computes: no cache at all.
        return _sweep(AnalysisSession(), self.corpus.files, self.reference)

    def fork(self, label: str) -> "EditRecheck":
        clone = object.__new__(EditRecheck)
        clone.__dict__.update(self.__dict__)
        clone.cache_dir = os.path.join(self.workdir, f"cache-{label}")
        shutil.rmtree(clone.cache_dir, ignore_errors=True)
        shutil.copytree(self.cache_dir, clone.cache_dir)
        clone.session = AnalysisSession(
            AnalysisConfig(cache_dir=clone.cache_dir))
        return clone

    def edited(self, index: int) -> List[int]:
        """The files round ``index`` edits: a pure function of the seed
        and the round, so forks replay identical rounds."""
        rng = random.Random(f"{self.seed}:{index}")
        return sorted(rng.sample(range(len(self.named)), EDITS_PER_ROUND))

    def run_pass(self, index: int, on_op: OnOp = None) -> PassResult:
        result = PassResult()
        edited = self.edited(index)
        sources = list(self.named)
        for k, i in enumerate(edited):
            name, text = sources[i]
            extra = BENIGN_TEMPLATES[EDIT_TEMPLATE](
                f"{EDIT_SUFFIX}{index}n{k}")
            sources[i] = (name, text + "\n" + extra)
        start = perf_counter()
        try:
            reports = self.session.analyze_sources(sources)
        except Exception as exc:
            _timed(result, start, on_op)
            result.failed = 1
            result.problems.append(f"round {index}: {exc!r}")
            return result
        _timed(result, start, on_op)
        digest = hashlib.sha256()
        problems: List[str] = []
        for i, (file, report) in enumerate(zip(self.corpus.files, reports)):
            payload = payload_json(report)
            digest.update(payload.encode())
            if i in edited:
                # The appended function must add no finding.
                problems.extend(check_findings(report.findings,
                                               file.injected))
            elif payload != self.reference.get(file.name):
                problems.append(f"round {index}: {file.name} payload "
                                f"differs from the uncached sweep")
        result.digest = digest.hexdigest()
        if problems:
            result.failed = 1
            result.problems.extend(problems)
        return result

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (CorpusSweep, WholeCrate, EditRecheck)}
