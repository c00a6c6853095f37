"""Label oracle: judge a verdict against the corpus generator's labels.

The oracle is independent of ``repro.corpus.generator.evaluate_detectors``
and stricter: a verdict passes only when every injected bug is reported by
its template's detector in its own function, and no finding lies outside a
labelled function.  A function is *labelled* when its key carries the
injected bug's suffix (``bug_se12`` labels ``bug_se12``,
``bug_se12::{closure#0}`` and ``Holder_se12::drop``); the suffix must not
continue with a digit, so ``se1`` never labels ``bug_se12``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List

#: Templates whose bug cannot be reported once every corpus file is one
#: program, with the reason.  The generator isolates them from masking
#: benign code within their own file only.
CRATE_MASKED: Dict[str, str] = {
    "channel_no_sender": (
        "the channel detector reports recv-no-sender only when the whole "
        "program contains no send; benign channel code in other files "
        "supplies one"),
}


def _label_pattern(bug) -> "re.Pattern[str]":
    suffix = bug.fn_name[len("bug_"):]
    return re.compile(r"(?<![0-9])" + re.escape(suffix) + r"(?![0-9])")


def check_findings(findings: Iterable, bugs: Iterable,
                   masked: Dict[str, str] = None) -> List[str]:
    """Every way ``findings`` disagree with the labels ``bugs``; empty
    when the verdict is correct.  A bug whose template is in ``masked``
    may go unreported."""
    masked = masked or {}
    labels = [(bug, _label_pattern(bug)) for bug in bugs]
    findings = list(findings)
    problems = []
    for finding in findings:
        if not any(pattern.search(finding.fn_key) for _bug, pattern in labels):
            problems.append(f"unlabelled finding [{finding.detector}] "
                            f"in {finding.fn_key}")
    for bug, pattern in labels:
        if bug.template.name in masked:
            continue
        detector = bug.template.detector
        if not any(f.detector == detector and pattern.search(f.fn_key)
                   for f in findings):
            problems.append(f"missed {bug.template.name} ({detector}) "
                            f"in {bug.fn_name} of {bug.file_name}")
    return problems
