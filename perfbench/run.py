"""Pipeline benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-sweep --seed 0 \\
        --seconds 20 --trace 0

Workloads are ``corpus-sweep``, ``whole-crate`` and ``edit-recheck`` (see
``workloads.py``).  ``--trace 0`` is the timed run: no wrapper and no obs
collector is installed, and the end-to-end metrics are printed.
``--trace 1`` is the traced run: it interleaves untraced passes, traced
passes (layer spans, see ``layers.py``) and obs-collected passes over
identical inputs, requires their findings to be byte-identical, and
prints the per-layer metrics.  ``README.md`` next to this file defines
every metric; ``predictions.json`` says what each layer should move.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a fuller record (host facts, samples, problems) is written under
``.perfbench-out/``.  The program is imported from ``src/`` of the
checkout this file sits in, never from an installed copy; without it
the run exits with status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

WORKLOAD_NAMES = ("corpus-sweep", "whole-crate", "edit-recheck")


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure
    ``repro`` is imported from there."""
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(3)


def _set_up(args, workdir: str):
    """Import the pipeline and build the workload: the set-up that
    ``setup_s`` times.  It is timed in steps (the import, then the
    workload's own), each scaled by the speed readings on either side
    (see ``speed.py``).  Returns the workload, the scaled seconds and the
    seconds as measured."""
    import speed
    pace = speed.Pace(1, speed.SETUP_SENSITIVITY)
    start = perf_counter()
    _load_program()
    import workloads
    pace.add(perf_counter() - start)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, workdir, on_step=pace.add)
    return workload, sum(pace.scaled), sum(pace.measured)


def _setup_probe(args):
    """One set-up in a fresh interpreter; returns its scaled and its
    measured seconds."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale), "--seconds", "1", "--trace", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_measured_s"]


def _host_facts(workload) -> Dict[str, object]:
    from repro.driver import compile_source
    from repro.lang.lexer import Lexer
    from repro.lang.source import SourceFile
    combined = workload.corpus.combined_source()
    tokens = sum(len(Lexer(SourceFile(name, text)).tokenize())
                 for name, text in workload.named)
    functions = len(compile_source(combined, name="crate").program.functions)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "seed": workload.seed,
        "scale": workload.scale,
        "corpus_files": len(workload.named),
        "corpus_loc": workload.loc,
        "corpus_tokens": tokens,
        "corpus_functions": functions,
        "jobs": 1,
    }


def _percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, or the median when fewer than ten values
    lie beyond it (a whole-crate run holds a handful of checks)."""
    if len(values) * (100 - q) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Tally:
    """Operations attempted and failed, with the oracle's complaints."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, result) -> None:
        self.attempted += len(result.op_seconds)
        self.failed += result.failed
        self.problems += result.problems

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


#: Set-ups per timed run; ``setup_s`` is their median.  The first is the
#: run's own, the others run in fresh interpreters after the timed loop.
#: Fewer on edit-recheck, whose set-up fills the cache cold.
SET_UPS = {"corpus-sweep": 5, "whole-crate": 5, "edit-recheck": 3}

#: Operations between two speed readings (about 0.1 s of work or more),
#: and the exponent of the loop's slowdown the operations follow (see
#: ``speed.py``), fitted as log time against log reading of the same
#: operation, leaving out those during which the state changed: 0.70 to
#: 0.80 on corpus-sweep files (per run), 0.49 over 81 whole-crate checks
#: of 30 runs (their large heap makes them slow less than small programs
#: do), and 0.72 over 2,297 edit-recheck rounds of 20 runs.
PACE = {"corpus-sweep": (10, 0.75), "whole-crate": (1, 0.5),
        "edit-recheck": (1, 0.7)}


def timed_run(args, workload, setup):
    """The ``--trace 0`` run: end-to-end metrics, nothing installed.

    Every time is scaled by speed readings taken around it (see
    ``speed.py``), and each timing metric is taken over all the run's
    operations or passes."""
    import speed
    scaled_setups, measured_setups = [setup[0]], [setup[1]]
    tally = _Tally()
    tally.add(workload.prepare())
    gc.collect()
    tally.add(workload.run_pass(0))                 # untimed warm-up
    pace = speed.Pace(*PACE[args.workload])
    pass_seconds: List[float] = []
    index = 1
    deadline = perf_counter() + args.seconds
    while index == 1 or perf_counter() < deadline:
        gc.collect()
        result = workload.run_pass(index, pace.add)
        pace.flush()
        tally.add(result)
        pass_seconds.append(sum(pace.scaled[len(pace.scaled)
                                            - len(result.op_seconds):]))
        index += 1
    peak_rss = _peak_rss_mb()
    for _ in range(SET_UPS[args.workload] - 1):
        scaled, measured = _setup_probe(args)
        scaled_setups.append(scaled)
        measured_setups.append(measured)
    ops_ms = [seconds * 1000.0 for seconds in pace.scaled]
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "verdict_p50_ms": (statistics.median(ops_ms), "ms"),
        "verdict_p90_ms": (_percentile(ops_ms, 90), "ms"),
        "loc_per_s": (workload.loc / statistics.median(pass_seconds),
                      "loc/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    record = {"setup_s": scaled_setups, "setup_measured_s": measured_setups,
              "op_s": pace.scaled, "op_measured_s": pace.measured,
              "pass_s": pass_seconds, "speed_readings_ms": pace.readings,
              "reference_ms": speed.REFERENCE_MS,
              "sensitivity": pace.sensitivity}
    return tally, metrics, record


def _layer_metrics(selfs: Dict[str, float],
                   counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    import layers
    from repro.detectors.registry import ALL_DETECTORS

    def rate(count_key: str, span: str) -> float:
        busy = selfs.get(span, 0.0)
        return counts.get(count_key, 0.0) / busy if busy > 0 else 0.0

    def ratio(hits: str, lookups: str) -> float:
        n = counts.get(lookups, 0.0)
        return counts.get(hits, 0.0) / n if n else 0.0

    wall = selfs["wall"]
    out = {
        "lex.self_s": selfs.get("lex", 0.0),
        "lex.tokens_per_s": rate("tokens", "lex"),
        "parse.self_s": selfs.get("parse", 0.0),
        "parse.tokens_per_s": rate("tokens", "parse"),
        "hir.self_s": selfs.get("hir", 0.0),
        "mir_lower.self_s": selfs.get("mir_lower", 0.0),
        "mir_lower.fns_per_s": rate("mir_lower.fns", "mir_lower"),
        "mir.blocks": counts.get("mir.blocks", 0),
        "frontend.share": sum(selfs.get(n, 0.0)
                              for n in layers.FRONTEND) / wall,
        "unwind_lower.self_s": selfs.get("unwind_lower", 0.0),
        "mir.cleanup_blocks": counts.get("mir.cleanup_blocks", 0),
        "solve.self_s": selfs.get("solve", 0.0),
        "solve.components": counts.get("solve.components", 0),
        "solve.fns_per_s": rate("solve.fns", "solve"),
        "summary_cache.get_s": selfs.get("summary_cache.get", 0.0),
        "summary_cache.put_s": selfs.get("summary_cache.put", 0.0),
        "summary_cache.hit_ratio": ratio("summary_cache.hits",
                                         "summary_cache.lookups"),
        "report_cache.key_s": selfs.get("report_cache.key", 0.0),
        "report_cache.get_s": selfs.get("report_cache.get", 0.0),
        "report_cache.put_s": selfs.get("report_cache.put", 0.0),
        "report_cache.hit_ratio": ratio("report_cache.hits",
                                        "report_cache.lookups"),
    }
    for name in layers.CONTEXT_PASSES:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    for cls in ALL_DETECTORS:
        out[f"detector.{cls.name}.self_s"] = \
            selfs.get(f"detector.{cls.name}", 0.0)
    out["subsumption.self_s"] = selfs.get("subsumption", 0.0)
    out["detectors.findings_raw"] = counts.get("detectors.findings_raw", 0)
    out["detectors.subsumed"] = counts.get("detectors.subsumed", 0)
    out["gc.self_s"] = selfs.get("gc", 0.0)
    out["other.self_s"] = selfs.get(layers.ROOT, 0.0)
    return out


def traced_run(args, workload, _setup):
    """The ``--trace 1`` run: for each pass index an untraced pass, a
    traced pass and an obs-collected pass over identical inputs."""
    import layers
    from repro import obs
    tally = _Tally()
    tally.add(workload.prepare())
    gc.collect()
    tally.add(workload.run_pass(0))
    traced_state = workload.fork("traced")
    obs_state = workload.fork("obs")
    tracer = layers.Tracer()
    per_pass: Dict[str, List[float]] = defaultdict(list)
    folded: Dict[str, float] = defaultdict(float)
    index = 1
    deadline = perf_counter() + args.seconds
    while index == 1 or perf_counter() < deadline:
        gc.collect()
        plain = workload.run_pass(index)
        gc.collect()
        with tracer:
            traced = traced_state.run_pass(index)
        selfs, counts, stacks = tracer.take_pass()
        gc.collect()
        with obs.collecting("perfbench") as collector, tracer:
            observed = obs_state.run_pass(index)
        obs_selfs, _counts, obs_stacks = tracer.take_pass()
        tally.add(plain)
        for label, result in (("traced", traced), ("obs", observed)):
            tally.add(result)
            if result.digest != plain.digest:
                tally.fail(f"pass {index}: {label} findings differ from "
                           f"the untraced pass")
        for key, value in _layer_metrics(selfs, counts).items():
            per_pass[key].append(value)
        per_pass["trace.overhead_frac"].append(
            traced.seconds / plain.seconds - 1.0)
        for stack, seconds in stacks.items():
            folded[stack] += seconds
        _reconcile(per_pass, collector, obs_selfs, obs_stacks)
        index += 1
    traced_state.close()
    obs_state.close()
    _write_folded(args, folded)
    metrics = {key: (statistics.median(values), _unit(key))
               for key, values in per_pass.items()}
    return tally, metrics, {"passes": index - 1, "per_pass": dict(per_pass)}


#: obs span name of each front-end layer span the benchmark records.
OBS_FRONTEND = {"lex": "lex", "parse": "parse", "hir": "hir-table",
                "mir_lower": "mir-lower"}


def _reconcile(per_pass, collector, selfs, stacks) -> None:
    """The obs spans users see next to the benchmark's own, same pass."""
    obs_self: Dict[str, float] = defaultdict(float)
    for span in collector.iter_spans():
        obs_self[span.name] += span.self_time
    for layer, obs_name in OBS_FRONTEND.items():
        # obs has no collector span: a pause counts in the layer that
        # triggered it, so it is added back to the layer's self time.
        mine = selfs.get(layer, 0.0) + sum(
            seconds for stack, seconds in stacks.items()
            if stack.endswith(f";{layer};gc"))
        per_pass[f"reconcile.{layer}.obs_self_s"].append(obs_self[obs_name])
        per_pass[f"reconcile.{layer}.gap_frac"].append(
            obs_self[obs_name] / mine - 1.0 if mine > 0 else 0.0)
    per_pass["summary_cache.read_bytes"].append(
        collector.counters.get("cache.read_bytes", 0))


def _write_folded(args, folded: Dict[str, float]) -> None:
    """Traced self time per span stack in microseconds (flamegraph input)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.folded")
    with open(path, "w", encoding="utf-8") as f:
        for stack, seconds in sorted(folded.items()):
            f.write(f"{stack} {round(seconds * 1e6)}\n")


def _unit(metric: str) -> str:
    if metric.endswith("tokens_per_s"):
        return "tokens/s"
    if metric.endswith("fns_per_s"):
        return "fns/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("read_bytes"):
        return "bytes"
    if metric.endswith(("_frac", "share", "hit_ratio")):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=int, default=2)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        return 3
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, *setup = _set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0],
                              "setup_measured_s": setup[1]}))
            return 0
        run = traced_run if args.trace else timed_run
        tally, metrics, record = run(args, workload, setup)
        facts = _host_facts(workload)
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems[:20]:
        sys.stderr.write(f"perfbench: {problem}\n")
    line = {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "host": facts, **line,
                   "record": record, "problems": tally.problems}, f, indent=1)
    print("# host " + json.dumps(facts, sort_keys=True))
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
