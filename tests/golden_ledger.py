"""The golden findings ledger: every finding of a fixed input set, with
provenance, as one sorted JSONL file (``tests/golden/findings.jsonl``).

The inputs are every ``BUG_TEMPLATES`` and ``BENIGN_TEMPLATES`` entry,
both ``examples/*.rs``, and ``generate_corpus(0, 1)`` both as a per-file
sweep and as one combined crate.  Each line is one input:
``{"id": ..., "report": AnalysisReport.to_dict()}``, sorted by id.  A
change that must keep findings byte-identical leaves the file unchanged.

    python tests/golden_ledger.py --check            # diff against the file
    python tests/golden_ledger.py --write            # regenerate the file
    python tests/golden_ledger.py --check --out NEW  # also write the new ledger

``--check`` prints a unified diff and exits 1 when the findings moved.
``tests/test_golden.py`` recomputes the ledger at ``jobs`` 1 and 2,
uncached and over a cold and a warm cache.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "tests", "golden", "findings.jsonl")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.config import AnalysisConfig  # noqa: E402
from repro.api import AnalysisSession  # noqa: E402

CORPUS_SEED = 0
CORPUS_SCALE = 1


def ledger_inputs() -> List[Tuple[str, str, str]]:
    """``(id, name, text)`` for every input of the ledger, in id order."""
    from repro.corpus import generate_corpus
    from repro.corpus.benign import BENIGN_TEMPLATES
    from repro.corpus.inject import BUG_TEMPLATES

    inputs: List[Tuple[str, str, str]] = []
    for name in sorted(BUG_TEMPLATES):
        inputs.append((f"template/bug/{name}", f"{name}.rs",
                       BUG_TEMPLATES[name].render("g")))
    for name in sorted(BENIGN_TEMPLATES):
        inputs.append((f"template/benign/{name}", f"{name}.rs",
                       BENIGN_TEMPLATES[name]("g")))
    examples = os.path.join(ROOT, "examples")
    for fname in sorted(os.listdir(examples)):
        if fname.endswith(".rs"):
            with open(os.path.join(examples, fname), encoding="utf-8") as f:
                inputs.append((f"example/{fname}", fname, f.read()))
    corpus = generate_corpus(CORPUS_SEED, CORPUS_SCALE)
    tag = f"corpus-{CORPUS_SEED}-{CORPUS_SCALE}"
    for f in corpus.files:
        inputs.append((f"sweep/{tag}/{f.name}", f.name, f.text))
    inputs.append((f"crate/{tag}", "crate.rs", corpus.combined_source()))
    inputs.sort(key=lambda entry: entry[0])
    return inputs


def compute_ledger(config: Optional[AnalysisConfig] = None,
                   inputs: Optional[Sequence[Tuple[str, str, str]]] = None
                   ) -> List[str]:
    """The ledger lines for ``inputs`` (default: :func:`ledger_inputs`),
    analyzed as one batch under ``config``."""
    inputs = ledger_inputs() if inputs is None else inputs
    with AnalysisSession(config) as session:
        reports = session.analyze_sources(
            [(name, text) for _, name, text in inputs])
    return [json.dumps({"id": ident, "report": report.to_dict()},
                       sort_keys=True)
            for (ident, _, _), report in zip(inputs, reports)]


def read_ledger(path: str = LEDGER) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def write_ledger(lines: Sequence[str], path: str = LEDGER) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def ledger_diff(expected: Sequence[str], actual: Sequence[str]) -> str:
    """A unified diff of two ledgers, one finding per line so a moved
    finding shows as one changed line rather than one changed report."""
    def explode(lines):
        out = []
        for line in lines:
            entry = json.loads(line)
            report = dict(entry["report"])
            findings = report.pop("findings")
            out.append(f"{entry['id']} "
                       f"{json.dumps(report, sort_keys=True)}")
            for finding in findings:
                out.append(f"{entry['id']}   "
                           f"{json.dumps(finding, sort_keys=True)}")
        return out
    return "".join(line + "\n" for line in difflib.unified_diff(
        explode(expected), explode(actual),
        fromfile="golden", tofile="recomputed", lineterm="", n=1))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {os.path.relpath(LEDGER, ROOT)}")
    mode.add_argument("--check", action="store_true",
                      help="recompute and diff against the committed file")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the recomputed ledger to PATH")
    args = parser.parse_args(argv)
    lines = compute_ledger()
    if args.out:
        write_ledger(lines, args.out)
    if args.write:
        write_ledger(lines)
        print(f"wrote {len(lines)} reports to "
              f"{os.path.relpath(LEDGER, ROOT)}")
        return 0
    diff = ledger_diff(read_ledger(), lines)
    if diff:
        sys.stdout.write(diff)
        return 1
    print(f"golden ledger matches ({len(lines)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
