"""Cold start: importing the check entry points loads only the pipeline a
check runs.  The interpreter, the study datasets and the obs exporters
load on first use (DESIGN.md §9, "Cold start")."""

import os
import subprocess
import sys

import pytest

import repro
from repro import obs

#: Modules that no check runs, so importing an entry point must not load.
NOT_LOADED = (
    "repro.mir.interp", "repro.mir.values", "repro.mir.pretty",
    "repro.study.dataset", "repro.study.tables", "repro.study.figures",
    "repro.study.insights",
    "repro.obs.export", "repro.obs.flame", "repro.obs.trace",
)


@pytest.mark.parametrize("entry", ["repro.api", "repro.cli"])
def test_entry_point_loads_no_unused_module(entry):
    script = (f"import sys\n"
              f"import {entry}\n"
              f"print(sorted(set({NOT_LOADED!r}) & set(sys.modules)))\n")
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    # -S: no site hooks, so only what repro itself imports is loaded.
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src_dir))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_obs_exporters_resolve_to_their_submodules():
    import repro.obs.export
    import repro.obs.flame
    import repro.obs.trace
    assert obs.render_text is repro.obs.export.render_text
    assert obs.phase_timings is repro.obs.export.phase_timings
    assert obs.hot_sccs is repro.obs.export.hot_sccs
    assert obs.folded_stacks is repro.obs.flame.folded_stacks
    assert obs.write_folded is repro.obs.flame.write_folded
    assert obs.to_chrome_trace is repro.obs.trace.to_chrome_trace
    assert obs.write_chrome_trace is repro.obs.trace.write_chrome_trace


def test_unknown_obs_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_exporter"):
        obs.no_such_exporter
