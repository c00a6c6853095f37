"""Corpus generation and detector evaluation.

Each :class:`AppProfile` mirrors one studied application: relative size
and the per-category bug mix implied by Tables 1/3/4.  The generator
scales those mixes by a ``scale`` factor, interleaves bug snippets with
benign modules, and returns a :class:`Corpus` whose injected-bug labels
let :func:`evaluate_detectors` compute per-detector recall and false
positives — the §7 evaluation, on our substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.corpus.benign import BENIGN_TEMPLATES, CHANNEL_BENIGN
from repro.corpus.inject import BUG_TEMPLATES, InjectedBug


@dataclass
class AppProfile:
    """A studied application's corpus profile."""

    name: str
    #: Relative amount of benign code (number of benign modules).
    benign_modules: int
    #: Bug-template name → how many to inject per unit scale.
    bug_mix: Dict[str, int]


#: Profiles follow each project's published bug mix: Servo is memory- and
#: channel-heavy, Ethereum dominates blocking bugs (Table 3: 27 of 38
#: Mutex bugs), Redox owns most invalid-free/uninit bugs (Table 2 via its
#: 20 memory bugs), Tock is tiny and almost bug-free, TiKV contributes the
#: Figure 8 double lock.
APP_PROFILES: Dict[str, AppProfile] = {
    "servo_like": AppProfile("servo_like", benign_modules=10, bug_mix={
        "uaf_drop_deref": 2, "uaf_escape_ffi": 1, "uaf_free_in_callee": 1,
        "double_free_ptr_read": 1,
        "overflow_unchecked": 2, "double_lock_if": 1,
        "channel_no_sender": 1, "sync_unsync_write": 1, "null_deref": 1,
        "race_unsync_counter": 1, "race_arc_interior_mut": 1,
        "race_lock_wrong_mutex": 1, "unsafe_leak_raw_return": 1,
    }),
    "tock_like": AppProfile("tock_like", benign_modules=5, bug_mix={
        "overflow_unchecked": 1, "uninit_read": 1,
    }),
    "ethereum_like": AppProfile("ethereum_like", benign_modules=8,
                                bug_mix={
        "double_lock_match": 2, "double_lock_if": 2,
        "double_lock_callee": 1, "lock_order_pair": 1,
        "condvar_no_notify": 1, "atomic_check_act": 1,
        "deadlock_abba_two_threads": 1, "deadlock_condvar_hold": 1,
    }),
    "tikv_like": AppProfile("tikv_like", benign_modules=6, bug_mix={
        "double_lock_match": 1, "condvar_no_notify": 1,
        "recv_holding_lock": 1, "deadlock_channel_recv": 1,
    }),
    "redox_like": AppProfile("redox_like", benign_modules=7, bug_mix={
        "invalid_free_assign": 2, "uninit_read": 2, "uaf_drop_deref": 1,
        "double_free_ptr_read": 1, "overflow_unchecked": 1,
        "once_recursion": 1, "null_deref": 2,
    }),
    "libraries_like": AppProfile("libraries_like", benign_modules=5,
                                 bug_mix={
        "uaf_escape_ffi": 1, "sync_unsync_write": 1, "atomic_check_act": 1,
        "condvar_no_notify": 1, "unsafe_leak_raw_return": 1,
        "unchecked_index_passthrough": 1,
    }),
    # The RUSTSEC-advisory mix: exception-safety and uninit-exposure
    # shapes drawn from the CVE classes the §5.1 taxonomy maps to.
    "cve_like": AppProfile("cve_like", benign_modules=4, bug_mix={
        "panic_between_read_and_write": 1,
        "double_drop_in_drop_impl": 1,
        "uninit_pub_exposure": 1,
    }),
}

#: Templates whose detectors are program-level and would be masked by
#: benign uses of the same primitive in the same file.
_ISOLATED_TEMPLATES = {"channel_no_sender", "condvar_no_notify",
                       "recv_holding_lock", "deadlock_abba_two_threads",
                       "deadlock_condvar_hold", "deadlock_channel_recv"}


@dataclass
class CorpusFile:
    project: str
    name: str
    text: str
    injected: List[InjectedBug] = field(default_factory=list)

    @property
    def loc(self) -> int:
        return len(self.text.splitlines())


@dataclass
class Corpus:
    files: List[CorpusFile] = field(default_factory=list)
    seed: int = 0
    scale: int = 1

    @property
    def injected(self) -> List[InjectedBug]:
        return [bug for f in self.files for bug in f.injected]

    @property
    def total_loc(self) -> int:
        return sum(f.loc for f in self.files)

    def combined_source(self) -> str:
        """Every corpus file concatenated into one compilation unit —
        function names are suffix-unique by construction, so the result
        compiles as a single whole-program analysis workload (what the
        parallel-executor benchmarks use)."""
        return "\n".join(f.text for f in self.files)

    def by_project(self) -> Dict[str, List[CorpusFile]]:
        out: Dict[str, List[CorpusFile]] = {}
        for f in self.files:
            out.setdefault(f.project, []).append(f)
        return out


def generate_corpus(seed: int = 0, scale: int = 1,
                    profiles: Optional[Dict[str, AppProfile]] = None
                    ) -> Corpus:
    """Generate the synthetic corpus deterministically."""
    from repro import obs
    with obs.span("corpus.generate", seed=seed, scale=scale):
        corpus = _generate_corpus(seed, scale, profiles)
    obs.count("corpus.programs_generated", len(corpus.files))
    obs.count("corpus.bugs_injected", len(corpus.injected))
    obs.count("corpus.loc", corpus.total_loc)
    return corpus


def _generate_corpus(seed: int, scale: int,
                     profiles: Optional[Dict[str, AppProfile]]) -> Corpus:
    rng = random.Random(seed)
    profiles = profiles or APP_PROFILES
    corpus = Corpus(seed=seed, scale=scale)
    benign_names = sorted(BENIGN_TEMPLATES)

    for app_name in sorted(profiles):
        profile = profiles[app_name]
        counter = 0

        # Bug snippets, each in its own module alongside benign fill.
        bug_plan: List[str] = []
        for template_name in sorted(profile.bug_mix):
            bug_plan.extend([template_name]
                            * (profile.bug_mix[template_name] * scale))
        rng.shuffle(bug_plan)

        module_index = 0
        for template_name in bug_plan:
            template = BUG_TEMPLATES[template_name]
            suffix = f"{app_name[:2]}{module_index}"
            text_parts = [template.render(suffix)]
            injected = [InjectedBug(
                template=template, fn_name=f"bug_{suffix}",
                file_name=f"{app_name}/mod_{module_index}.rs",
                project=app_name)]
            # Pad with benign code that cannot mask the injected bug.
            pads = 2 * scale
            for _ in range(pads):
                benign = benign_names[counter % len(benign_names)]
                counter += 1
                if template_name in _ISOLATED_TEMPLATES and \
                        benign in CHANNEL_BENIGN:
                    benign = "safe_counter"
                text_parts.append(
                    BENIGN_TEMPLATES[benign](f"{app_name[:2]}b{counter}"))
            corpus.files.append(CorpusFile(
                project=app_name,
                name=f"{app_name}/mod_{module_index}.rs",
                text="\n".join(text_parts),
                injected=injected))
            module_index += 1

        # Pure-benign modules.
        for _ in range(profile.benign_modules * scale):
            parts = []
            for _ in range(3):
                benign = benign_names[counter % len(benign_names)]
                counter += 1
                parts.append(
                    BENIGN_TEMPLATES[benign](f"{app_name[:2]}c{counter}"))
            corpus.files.append(CorpusFile(
                project=app_name,
                name=f"{app_name}/mod_{module_index}.rs",
                text="\n".join(parts)))
            module_index += 1
    return corpus


# ---------------------------------------------------------------------------
# Detector evaluation (the §7 experiment)
# ---------------------------------------------------------------------------

@dataclass
class DetectorScore:
    detector: str
    injected: int = 0
    found: int = 0
    false_positives: int = 0
    missed: List[str] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return self.found / self.injected if self.injected else 1.0


@dataclass
class EvaluationResult:
    scores: Dict[str, DetectorScore] = field(default_factory=dict)
    total_findings: int = 0
    files: int = 0
    loc: int = 0

    def summary_rows(self) -> List[Tuple[str, int, int, int, float]]:
        rows = []
        for name in sorted(self.scores):
            score = self.scores[name]
            rows.append((name, score.injected, score.found,
                         score.false_positives, round(score.recall, 3)))
        return rows


def evaluate_detectors(corpus: Corpus, config=None) -> EvaluationResult:
    """Compile every corpus file, run the detectors, score the outcome.

    A finding *matches* an injection when it comes from the expected
    detector and its function key mentions the injected name's suffix.
    Findings in files with no injection (or from unexpected detectors in
    clean functions) count as false positives.

    ``config`` (an :class:`~repro.analysis.config.AnalysisConfig`) drives
    the analysis session: its ``detectors`` picks the detectors that
    run, with ``jobs > 1`` whole corpus programs fan out
    across worker processes, and ``cache_dir`` makes warm re-evaluations
    incremental.  Scores are deterministic at any worker count.
    """
    from repro import obs
    from repro.api import AnalysisSession

    result = EvaluationResult(files=len(corpus.files), loc=corpus.total_loc)
    scores = result.scores

    def score_for(detector: str) -> DetectorScore:
        if detector not in scores:
            scores[detector] = DetectorScore(detector)
        return scores[detector]

    for bug in corpus.injected:
        score_for(bug.template.detector).injected += 1

    with obs.span("corpus.evaluate", files=len(corpus.files)):
        with AnalysisSession(config) as session:
            analyses = session.analyze_sources(
                [(f.name, f.text) for f in corpus.files])
        for file, analysis in zip(corpus.files, analyses):
            report = analysis.report
            obs.count("corpus.programs_evaluated")
            result.total_findings += len(report.findings)
            matched_bugs = set()
            for finding in report.findings:
                matched = False
                for bug in file.injected:
                    suffix = bug.fn_name[len("bug_"):]
                    if finding.detector == bug.template.detector and \
                            suffix in finding.fn_key:
                        if id(bug) not in matched_bugs:
                            matched_bugs.add(id(bug))
                            score_for(finding.detector).found += 1
                        matched = True
                        break
                if not matched:
                    score_for(finding.detector).false_positives += 1
            for bug in file.injected:
                if id(bug) not in matched_bugs:
                    score_for(bug.template.detector).missed.append(
                        bug.fn_name)
    for score in scores.values():
        obs.count("corpus.bugs_recalled", score.found)
        obs.count("corpus.false_positives", score.false_positives)
    obs.count("corpus.findings", result.total_findings)
    return result
