"""§4.1 performance micro-benchmarks: the cost of safety checks.

The paper measures real Rust ("unsafe memory access with
slice::get_unchecked() is 4-5x faster than safe access with boundary
checking"; "unsafe memory copy with ptr::copy_nonoverlapping() is 23%
faster").  Our substrate is an interpreter, so absolute numbers differ;
the *mechanism* — the safe path executes a bounds/validity check per
access that the unsafe path skips — is identical, and the benchmarks
document the measured gap plus the executed-check counters that explain
it.
"""

import json

import pytest

from conftest import bench_path, emit

from repro import obs
from repro.api import AnalysisSession
from repro.driver import compile_source
from repro.mir.interp import Interpreter, ScheduleConfig

N = 512

CHECKED_SUM = f"""
fn main() {{
    let v = vec![1; {N}];
    let mut total = 0;
    for i in 0..{N} {{
        total += v[i];
    }}
    println!("{{}}", total);
}}
"""

UNCHECKED_SUM = f"""
fn main() {{
    let v = vec![1; {N}];
    let mut total = 0;
    for i in 0..{N} {{
        unsafe {{ total += *v.get_unchecked(i); }}
    }}
    println!("{{}}", total);
}}
"""

CHECKED_COPY = f"""
fn main() {{
    let src = vec![7u8; {N}];
    let mut dst = vec![0u8; {N}];
    dst.copy_from_slice(&src);
    println!("{{}}", dst[{N} - 1]);
}}
"""

UNCHECKED_COPY = f"""
fn main() {{
    let src = vec![7u8; {N}];
    let mut dst = vec![0u8; {N}];
    unsafe {{
        ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr(), {N});
    }}
    println!("{{}}", dst[{N} - 1]);
}}
"""


def _run(program, disable_bounds=False):
    interp = Interpreter(program, schedule=ScheduleConfig(max_steps=10_000_000))
    if disable_bounds:
        interp.enable_bounds_checks = False
    result = interp.run()
    assert result.ok, result.error
    return interp


@pytest.fixture(scope="module")
def programs():
    out = {name: compile_source(src).program for name, src in [
        ("checked_sum", CHECKED_SUM), ("unchecked_sum", UNCHECKED_SUM),
        ("checked_copy", CHECKED_COPY), ("unchecked_copy", UNCHECKED_COPY),
    ]}
    # The "unsafe build": identical source, bounds checks not compiled in.
    out["uncompiled_checks"] = compile_source(
        CHECKED_SUM, emit_bounds_checks=False).program
    return out


@pytest.mark.benchmark(group="indexed-access")
def test_safe_indexing_with_bounds_checks(benchmark, programs):
    interp = benchmark(_run, programs["checked_sum"])
    emit("§4.1 safe indexing",
         f"bounds checks executed: {interp.bounds_checks} "
         f"(one per access, paper: 4-5x slowdown mechanism)")
    assert interp.bounds_checks >= N


@pytest.mark.benchmark(group="indexed-access")
def test_unsafe_get_unchecked(benchmark, programs):
    interp = benchmark(_run, programs["unchecked_sum"])
    emit("§4.1 get_unchecked",
         f"unchecked accesses: {interp.unchecked_accesses}, "
         f"bounds checks on the access path: 0")
    assert interp.unchecked_accesses >= N


@pytest.mark.benchmark(group="memcpy")
def test_safe_copy_from_slice(benchmark, programs):
    benchmark(_run, programs["checked_copy"])


@pytest.mark.benchmark(group="memcpy")
def test_unsafe_copy_nonoverlapping(benchmark, programs):
    benchmark(_run, programs["unchecked_copy"])


@pytest.mark.benchmark(group="bounds-ablation")
def test_ablation_bounds_checks_on(benchmark, programs):
    benchmark(_run, programs["checked_sum"])


@pytest.mark.benchmark(group="bounds-ablation")
def test_ablation_bounds_checks_off(benchmark, programs):
    """Same source compiled *without* the Len/Lt/Assert sequence — the
    faithful §4.1 comparison (rustc's unchecked access also simply lacks
    the check code).  Executed-step counts make the gap deterministic."""
    interp = benchmark(_run, programs["uncompiled_checks"])
    assert interp.bounds_checks == 0


def test_bounds_check_work_is_deterministic(benchmark, programs):
    """Deterministic form of the §4.1 claim: the checked build executes
    strictly more MIR steps per element than the unchecked build."""
    from repro.mir.interp import Interpreter

    def run_checked():
        checked = Interpreter(programs["checked_sum"],
                              schedule=ScheduleConfig(max_steps=10_000_000))
        return checked.run()

    checked_result = benchmark(run_checked)
    unchecked = Interpreter(programs["uncompiled_checks"],
                            schedule=ScheduleConfig(max_steps=10_000_000))
    unchecked_result = unchecked.run()
    assert checked_result.ok and unchecked_result.ok
    emit("§4.1 deterministic work comparison",
         f"checked build: {checked_result.steps} steps; unchecked build: "
         f"{unchecked_result.steps} steps; ratio "
         f"{checked_result.steps / unchecked_result.steps:.2f}x "
         f"(paper: 4-5x wall-clock on real hardware)")
    assert checked_result.steps > unchecked_result.steps


BENCH_OBS_PATH = bench_path("BENCH_obs.json")

#: Timed (no collector, collector) pairs behind the overhead fraction.
#: Even, so each side runs first in half of them.
OBS_OVERHEAD_PAIRS = 10


def _full_pipeline():
    compiled = compile_source(CHECKED_SUM, name="bench://checked_sum")
    report = AnalysisSession().analyze_compiled(compiled).report
    interp = Interpreter(compiled.program,
                         schedule=ScheduleConfig(max_steps=10_000_000))
    return report, interp.run()


def test_obs_trajectory_artifact():
    """Run the whole pipeline (compile → detectors → interpret) under the
    obs collector and write ``BENCH_obs.json``: what observation itself
    costs and the pipeline's counters, compared between PRs (see
    EXPERIMENTS.md).

    The cost is the same pipeline timed with *no* collector installed
    (the tier-1 fast path) next to the collected run, so a PR that
    bloats the instrumentation fast path shows up in bench-diff as a
    rising overhead fraction.  One untimed run warms up first; then
    ``OBS_OVERHEAD_PAIRS`` pairs alternate which side runs first, and
    the artifact holds each side's median wall and the median per-pair
    fraction.  Per-layer timings are perfbench's job.
    """
    from statistics import median
    from time import perf_counter

    assert obs.get_collector() is None
    _full_pipeline()                                # untimed warm-up

    def bare():
        started = perf_counter()
        _full_pipeline()
        return perf_counter() - started

    def collected():
        started = perf_counter()
        with obs.collecting("bench-obs") as collector:
            report, result = _full_pipeline()
        return perf_counter() - started, collector, report, result

    without, within, fractions = [], [], []
    for pair in range(OBS_OVERHEAD_PAIRS):
        if pair % 2:
            wall, collector, report, result = collected()
            no_collector_wall = bare()
        else:
            no_collector_wall = bare()
            wall, collector, report, result = collected()
        assert result.ok, result.error
        without.append(no_collector_wall)
        within.append(wall)
        # (with - without) / without, within one pair.
        fractions.append((wall - no_collector_wall) / no_collector_wall
                         if no_collector_wall > 0 else 0.0)

    payload = {
        "overhead": {
            "no_collector_wall_s": median(without),
            "with_collector_wall_s": median(within),
            # Noisy on shared hosts, so the assertion is existence/shape
            # only — bench-diff watches trends.
            "collector_overhead_fraction": median(fractions),
            "pairs": OBS_OVERHEAD_PAIRS,
        },
        "counters": dict(collector.counters),
    }
    BENCH_OBS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert payload["overhead"]["no_collector_wall_s"] > 0.0
    assert payload["overhead"]["with_collector_wall_s"] > 0.0
    phases = obs.phase_timings(collector)
    # The collected run must span every front-end phase, the detector
    # pass, and the interpreter.
    for phase in ("compile", "compile.lex", "compile.parse",
                  "compile.hir-table", "compile.mir-lower", "detectors",
                  "interp.run"):
        assert phase in phases, f"missing phase {phase}"
        assert phases[phase] >= 0.0
    assert payload["counters"]["interp.steps"] == result.steps
    assert not report.findings, "benchmark program must be clean"

    assert json.loads(BENCH_OBS_PATH.read_text()) == payload
    emit("obs trajectory",
         f"BENCH_obs.json: collector overhead "
         f"{payload['overhead']['collector_overhead_fraction']:.1%} "
         f"(median of {OBS_OVERHEAD_PAIRS} pairs), "
         f"{len(payload['counters'])} counters; "
         f"compile {phases['compile'] * 1e3:.2f}ms, "
         f"detectors {phases['detectors'] * 1e3:.2f}ms, "
         f"interp {phases['interp.run'] * 1e3:.2f}ms")


def _reference_return_summaries(program, compute_points_to):
    """The pre-engine return-summary fixpoint, kept here as the
    benchmark's reference arm: which argument positions each function's
    return value may point into, iterated to a true fixpoint with every
    round re-running ``compute_points_to`` for every function."""
    from repro.analysis.points_to import return_items

    summaries = {}
    changed = True
    while changed:
        changed = False
        for key, body in program.functions.items():
            items = return_items(body, compute_points_to(body, summaries))
            if items and not items <= summaries.get(key, set()):
                summaries[key] = set(summaries.get(key, set())) | items
                changed = True
    return summaries


def _reference_lock_summaries(graph):
    """The pre-engine lock summaries over a call graph: every function's
    transitively acquired caller-translatable locks, iterated over the
    call sites to a fixpoint (the engine's ``locks`` component subsumes
    them)."""
    from repro.analysis.callgraph import direct_locks

    def translate(lock, site):
        if lock[0] == "static":
            return lock
        if lock[0] == "arg":
            index = lock[1]
            if index < len(site.arg_sources) \
                    and site.arg_sources[index] is not None:
                return ("arg", site.arg_sources[index], lock[2], lock[3])
        return None

    summaries = {key: direct_locks(body)
                 for key, body in graph.program.functions.items()}
    changed = True
    while changed:
        changed = False
        for site in graph.call_sites:
            if site.is_spawn:
                continue
            callee_locks = summaries.get(site.callee, set())
            caller_locks = summaries.setdefault(site.caller, set())
            for lock in callee_locks:
                translated = translate(lock, site)
                if translated is not None and translated not in caller_locks:
                    caller_locks.add(translated)
                    changed = True
    return summaries


BENCH_SUMMARIES_PATH = bench_path("BENCH_summaries.json")


def test_summary_engine_artifact(monkeypatch):
    """Compare the two interprocedural *schedules* over the corpus and
    write ``BENCH_summaries.json``.

    Both arms produce the identical product — the full
    :class:`FunctionSummary` lattice plus one detector-facing points-to
    per body — so the wall comparison is apples-to-apples:

    * **engine** — the production schedule: bottom-up over call-graph
      SCCs, worklist per component with early-exit re-queueing, so each
      acyclic function is summarised exactly once.
    * **legacy** — the pre-engine schedule (what
      :func:`_reference_return_summaries` still does for its one fact
      family): global Gauss-Seidel rounds over *all* functions until no
      summary changes, with no SCC ordering and no change tracking.

    (The benchmark originally timed the return-summary reference itself
    as the legacy arm; that compared the engine's six summary families
    against legacy's one-and-a-half and mostly measured the product gap,
    not the schedule.)

    Each arm compiles its own fresh corpus: derived per-body state
    (scans, constraint skeletons) is cached on the MIR bodies, so a
    shared corpus would hand whichever arm runs second the first arm's
    warm caches.  Points-to constructions are counted by patching the
    shared entry point, making the schedule gap deterministic; the
    reference arm's numbers (:func:`_reference_return_summaries` plus
    :func:`_reference_lock_summaries`) are recorded as context.
    """
    import time

    from repro.analysis import engine as engine_mod
    from repro.analysis import points_to as points_to_mod
    from repro.analysis.engine import SummaryEngine
    from repro.analysis.panic import ensure_unwind_edges
    from repro.corpus.generator import generate_corpus

    corpus = generate_corpus(seed=0, scale=1)

    def fresh_programs():
        # Unwind lowering is a CFG pre-pass every schedule pays
        # identically (the engine constructor runs it idempotently);
        # doing it here keeps the timed region a pure scheduling
        # comparison instead of diluting the gap with a shared constant.
        programs = [compile_source(f.text, name=f.name).program
                    for f in corpus.files]
        for program in programs:
            for body in program.functions.values():
                ensure_unwind_edges(body)
        return programs

    total_functions = sum(len(p.functions) for p in fresh_programs())

    counter = {"n": 0}
    real_compute = points_to_mod.compute_points_to

    def counting_compute(*args, **kwargs):
        counter["n"] += 1
        return real_compute(*args, **kwargs)

    monkeypatch.setattr(points_to_mod, "compute_points_to",
                        counting_compute)
    monkeypatch.setattr(engine_mod, "compute_points_to", counting_compute)

    def measure(runs, trials=3):
        # Trials are interleaved across arms: the host's speed drifts on
        # multi-second scales (CPU quota replenishment, noisy
        # neighbours), so timing one arm's trials back-to-back hands
        # whichever arm runs first the slow phase and lets ordering
        # decide an enforcing comparison.  Round-robin sampling puts
        # every arm in every noise phase; per-round walls are kept so
        # callers can form *paired* ratios (same round, adjacent in
        # time), which cancel the drift far better than a ratio of
        # bests.  Compute counts are deterministic, so one trial's count
        # is every trial's count.
        import gc

        best = [None] * len(runs)
        walls = [[] for _ in runs]
        for _ in range(trials):
            for slot, run in enumerate(runs):
                programs = fresh_programs()
                # The previous arm's corpus (bodies, scans, summaries —
                # full of reference cycles) is garbage by now; collect
                # it OUTSIDE the timed window so its gen-2 pause doesn't
                # land inside whichever arm allocates next.
                gc.collect()
                counter["n"] = 0
                start = time.perf_counter()
                out = run(programs)
                wall = time.perf_counter() - start
                walls[slot].append(wall)
                if best[slot] is None or wall < best[slot][1]:
                    best[slot] = (counter["n"], wall, out)
        return best, walls

    def run_engine(programs):
        result = {}
        for program in programs:
            engine = SummaryEngine(program)
            for key in program.functions:
                engine.summary(key)
            for body in program.functions.values():
                engine.points_to(body)
            result.update(engine.return_summaries())
        return result

    def run_legacy_schedule(programs):
        from repro.analysis.summaries import FunctionSummary
        result = {}
        max_rounds = 0
        for program in programs:
            engine = SummaryEngine(program)
            engine._solved = True        # scheduling is done by hand here
            keys = list(program.functions)
            rounds = 0
            changed = True
            while changed:
                rounds += 1
                assert rounds <= 30, "naive schedule failed to converge"
                changed = False
                for key in keys:
                    body = program.functions[key]
                    pt = engine_mod.compute_points_to(body, engine._view)
                    engine._points_to[key] = pt
                    new = engine._summarize(body, pt, frozenset())
                    if new != engine._summaries.get(key):
                        engine._summaries[key] = new
                        changed = True
            max_rounds = max(max_rounds, rounds)
            for key in keys:
                engine.summary(key)
            for body in program.functions.values():
                engine.points_to(body)
            result.update(engine.return_summaries())
        return result, max_rounds

    def run_reference(programs):
        from repro.analysis.callgraph import build_call_graph
        for program in programs:
            summaries = _reference_return_summaries(
                program, points_to_mod.compute_points_to)
            _reference_lock_summaries(build_call_graph(program))
            for body in program.functions.values():
                counting_compute(body, summaries)

    ((engine_computes, engine_wall, engine_returns),
     (legacy_computes, legacy_wall, (legacy_returns, legacy_rounds)),
     (ref_computes, ref_wall, _)), walls = measure(
        [run_engine, run_legacy_schedule, run_reference])

    # Same products: both schedules converge to the same fixpoint.
    assert engine_returns == legacy_returns
    assert engine_computes < legacy_computes, \
        (engine_computes, legacy_computes)
    assert engine_computes >= total_functions

    # Wall contract.  The load-bearing scheduling claim is the
    # deterministic compute-count gap above; the wall check guards
    # against a gross scheduling regression, not a photo finish.  On a
    # cold process the engine runs ~20% faster, but the scan/intern
    # memos of earlier PRs make the naive schedule's repeat rounds
    # nearly free once caches are warm (e.g. mid-suite), so the arms
    # converge toward parity there.  The contract is therefore a band
    # on the *median paired* ratio — each round's arms run adjacent in
    # time, cancelling the multi-second speed drift of a shared 1-CPU
    # host that a ratio of per-arm bests still sees.
    paired = sorted(e / l for e, l in zip(walls[0], walls[1]))
    wall_ratio = paired[len(paired) // 2]
    assert wall_ratio <= 1.25, (wall_ratio, walls[0], walls[1])

    payload = {
        "corpus": {"files": len(corpus.files), "loc": corpus.total_loc,
                   "functions": total_functions},
        "engine": {"points_to_computes": engine_computes,
                   "wall_s": round(engine_wall, 6)},
        "legacy": {"points_to_computes": legacy_computes,
                   "wall_s": round(legacy_wall, 6),
                   "rounds": legacy_rounds},
        "computes_ratio": round(legacy_computes / engine_computes, 3),
        "wall_ratio": round(wall_ratio, 3),
        "max_wall_ratio": 1.25,
        "return_summary_reference": {
            "points_to_computes": ref_computes,
            "wall_s": round(ref_wall, 6)},
    }
    BENCH_SUMMARIES_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    round_trip = json.loads(BENCH_SUMMARIES_PATH.read_text())
    assert round_trip["engine"]["points_to_computes"] == engine_computes
    emit("summary engine vs legacy schedule",
         f"corpus: {len(corpus.files)} files / {total_functions} fns; "
         f"points-to computes: engine {engine_computes}, legacy "
         f"{legacy_computes} ({payload['computes_ratio']}x); wall: engine "
         f"{engine_wall * 1e3:.1f}ms, legacy {legacy_wall * 1e3:.1f}ms, "
         f"paired ratio {wall_ratio:.3f} ({legacy_rounds} naive rounds)")


def test_intern_table_micro():
    """Intern-table micro-benchmark (tentpole satellite): summary atoms
    recur heavily across a program's summaries, so the per-analysis
    :class:`Interner` must collapse them to canonical objects — that
    identity is what makes the engine's per-iteration summary
    comparisons shortcut instead of re-hashing deep tuple trees.

    Measured facts land in an ``intern`` section of
    ``BENCH_summaries.json``: table size vs. atoms seen (the dedup
    factor) and the hit/miss split from a full corpus-file solve.
    """
    from repro.analysis.engine import SummaryEngine
    from repro.analysis.intern import Interner
    from repro.corpus.generator import generate_corpus

    # Direct table semantics: equal atoms in, one object out.
    table = Interner()
    atoms = [("static", f"LOCK_{i % 8}", (), "mutex") for i in range(256)]
    canon = [table.intern(tuple(a)) for a in atoms]
    assert len(table) == 8
    assert table.misses == 8 and table.hits == 248
    for i in range(8, 256):
        assert canon[i] is canon[i % 8]
    # Interned sets canonicalise as a whole (locksets repeat heavily).
    assert table.intern_set(atoms[:8]) is table.intern_set(atoms[:8])

    # Engine-level: the whole corpus solved as one program.  Hits must
    # dominate misses — the whole point is that atoms recur.
    corpus = generate_corpus(seed=0, scale=1)
    program = compile_source(corpus.combined_source(),
                             name="combined.rs").program
    with obs.collecting() as col:
        engine = SummaryEngine(program)
        for key in program.functions:
            engine.summary(key)
    hits = col.counters["analysis.intern.hits"]
    misses = col.counters["analysis.intern.misses"]
    size = col.gauges["analysis.intern.size"]
    assert misses > 0 and size == misses
    assert hits > misses, (hits, misses)

    # Every shared-access atom handed out by the solved summaries is
    # the canonical object: re-interning it is a pure identity hit.
    check = engine._intern
    before = check.hits
    for summary in engine._summaries.values():
        for access in summary.shared_accesses:
            assert check.intern(access) is access
    assert check.misses == size

    if BENCH_SUMMARIES_PATH.exists():
        payload = json.loads(BENCH_SUMMARIES_PATH.read_text())
        payload["intern"] = {
            "atoms_seen": hits + misses,
            "table_size": int(size),
            "hit_fraction": round(hits / (hits + misses), 4),
        }
        BENCH_SUMMARIES_PATH.write_text(
            json.dumps(payload, indent=2) + "\n")

    emit("intern table",
         f"combined corpus: {hits + misses} atoms interned -> "
         f"{int(size)} canonical ({hits} hits, "
         f"{hits / (hits + misses):.1%} hit rate)")


BENCH_RACE_PATH = bench_path("BENCH_race.json")


def test_race_detector_artifact():
    """Time the lockset data-race detector over the corpus and write
    ``BENCH_race.json`` — wall time plus finding counts, the floor a
    future detector-perf PR optimises against.

    The detector runs twice per file: alone (its marginal cost, the
    interesting number) and as part of the full suite (the share of the
    pipeline it occupies in practice).
    """
    import time

    from repro.corpus.generator import generate_corpus
    from repro.detectors.registry import detector_by_name, run_detectors

    corpus = generate_corpus(seed=0, scale=1)
    compiled = [compile_source(f.text, name=f.name) for f in corpus.files]
    race_detector = detector_by_name("data-race")()

    start = time.perf_counter()
    race_findings = 0
    files_with_races = 0
    for c in compiled:
        report = run_detectors(c.program, detectors=[race_detector],
                               source=c.source)
        if report.findings:
            files_with_races += 1
        race_findings += len(report.findings)
    race_wall = time.perf_counter() - start

    start = time.perf_counter()
    total_findings = 0
    for c in compiled:
        total_findings += len(run_detectors(c.program,
                                            source=c.source).findings)
    suite_wall = time.perf_counter() - start

    injected_races = sum(1 for bug in corpus.injected
                         if bug.template.detector == "data-race")
    assert race_findings >= injected_races, \
        (race_findings, injected_races)

    payload = {
        "corpus": {"files": len(corpus.files), "loc": corpus.total_loc,
                   "injected_races": injected_races},
        "race_detector": {"wall_s": round(race_wall, 6),
                          "findings": race_findings,
                          "files_with_findings": files_with_races},
        "full_suite": {"wall_s": round(suite_wall, 6),
                       "findings": total_findings},
    }
    BENCH_RACE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    round_trip = json.loads(BENCH_RACE_PATH.read_text())
    assert round_trip["race_detector"]["findings"] == race_findings
    emit("lockset race detector over the corpus",
         f"BENCH_race.json: {race_findings} findings "
         f"({injected_races} injected) in {len(corpus.files)} files; "
         f"detector alone {race_wall * 1e3:.1f}ms, full suite "
         f"{suite_wall * 1e3:.1f}ms")
