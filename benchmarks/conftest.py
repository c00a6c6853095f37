"""Shared helpers for the benchmark harness.

Every benchmark prints the table/figure rows it regenerates (visible with
``pytest benchmarks/ --benchmark-only -s`` and summarised in
EXPERIMENTS.md) and times the generating computation with
pytest-benchmark.

Each ``BENCH_*.json`` artifact is written under ``.bench_build/``
(ignored by git), so a benchmark run leaves the working tree clean.  The
baselines committed at the repository root change only on purpose::

    python -m pytest benchmarks -q --benchmark-disable && cp .bench_build/BENCH_*.json .
"""

import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Make `repro` importable when the package is not installed and
# PYTHONPATH=src was not set (e.g. `python -m pytest benchmarks/...`).
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Where the benchmarks write their ``BENCH_*.json`` artifacts.
BENCH_DIR = _ROOT / ".bench_build"


def bench_path(name: str) -> pathlib.Path:
    """The path a benchmark writes its artifact ``name`` to."""
    BENCH_DIR.mkdir(exist_ok=True)
    return BENCH_DIR / name


def emit(title: str, text: str) -> None:
    print(f"\n===== {title} =====")
    print(text)
