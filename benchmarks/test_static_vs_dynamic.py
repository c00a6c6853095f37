"""Static detectors vs Miri-style dynamic checking (paper §2.4 / §7).

The paper positions its static detectors against Miri: "The two dynamic
detectors rely on user-provided inputs that can trigger memory bugs."
Here both run over the same injected memory-bug templates: the static
suite sees them from MIR alone; the dynamic checker needs a driver
`main` that reaches the bug.  Both should agree on every template —
and the benchmark times the two pipelines.
"""

import pytest

from conftest import emit

from repro.corpus.inject import BUG_TEMPLATES
from repro.detectors.registry import run_detectors
from repro.driver import compile_source
from repro.mir.interp import ScheduleConfig, run_program

# (template, driver main reaching the bug, expected dynamic outcome)
CASES = [
    ("uaf_drop_deref", "fn main() { bug_X(); }", {"ub"}),
    ("uninit_read", "fn main() { unsafe { let v = bug_X(); } }", {"ub"}),
    ("invalid_free_assign", "fn main() { unsafe { bug_X(); } }", {"ub"}),
    ("double_free_ptr_read",
     "fn main() { bug_X(vec![1, 2, 3]); }", {"ub"}),
    ("overflow_unchecked", "fn main() { let b = bug_X(); }", {"ub"}),
    ("null_deref", "fn main() { bug_X(); }", {"ub"}),
    ("double_lock_match", """
fn main() {
    let inner = RwLock::new(InnerX { m: 1 });
    bug_X(&inner);
}""", {"deadlock"}),
    ("double_lock_if", """
fn main() {
    let m = Mutex::new(1);
    bug_X(&m);
}""", {"deadlock"}),
    ("condvar_no_notify", "fn main() { bug_X(); }", {"deadlock"}),
    ("channel_no_sender", "fn main() { bug_X(); }", {"deadlock"}),
    ("once_recursion", "fn main() { bug_X(); }", {"deadlock"}),
    # The panic-path double free: statically a `panic-safety` finding,
    # dynamically UB *during unwinding* (the landing pad drops the value
    # `ptr::read` already duplicated).
    ("panic_between_read_and_write",
     "fn main() { bug_X(true); }", {"ub"}),
]

#: §6.1's "send on a full bounded channel" bug: the static channel
#: detector does not model buffer capacities, so only the dynamic
#: checker catches it — the honest converse of the static suite's
#: no-input advantage.
DYNAMIC_ONLY_SRC = """
fn main() {
    let (tx, rx) = sync_channel(1);
    tx.send(1);
    tx.send(2);
}
"""


def _sources():
    out = []
    for name, driver, expected in CASES:
        template = BUG_TEMPLATES[name]
        src = template.render("X") + driver.replace("bug_X", "bug_X")
        out.append((name, template, src, expected))
    return out


@pytest.fixture(scope="module")
def compiled_cases():
    return [(name, template, compile_source(src), expected)
            for name, template, src, expected in _sources()]


def test_static_suite_flags_every_template(benchmark, compiled_cases):
    def run_static():
        results = {}
        for name, template, compiled, _expected in compiled_cases:
            report = run_detectors(compiled.program)
            results[name] = {f.detector for f in report.findings}
        return results
    results = benchmark(run_static)
    rows = []
    for name, template, _c, _e in compiled_cases:
        hit = template.detector in results[name]
        rows.append(f"{name:22} static[{template.detector}]: "
                    f"{'HIT' if hit else 'MISS'}")
        assert hit, (name, results[name])
    emit("static detectors over the template suite", "\n".join(rows))


def test_dynamic_checker_agrees(benchmark, compiled_cases):
    def run_dynamic():
        outcomes = {}
        for name, _t, compiled, _e in compiled_cases:
            result = run_program(compiled.program,
                                 schedule=ScheduleConfig(max_steps=300_000))
            outcomes[name] = result.outcome
        return outcomes
    outcomes = benchmark(run_dynamic)
    rows = []
    for name, _t, _c, expected in compiled_cases:
        rows.append(f"{name:22} dynamic: {outcomes[name]} "
                    f"(expected {'/'.join(sorted(expected))})")
        assert outcomes[name] in expected, (name, outcomes[name])
    emit("Miri-style dynamic checking over the same templates "
         "(needs a driver input; static needed none)", "\n".join(rows))


#: Race templates cross-validated separately: the static lockset
#: detector's reports must be *dynamically manifestable* — some
#: interleaving of the same program, driven by the schedule seed, makes
#: the vector-clock race monitor fire on the same shared data.  A
#: statically-reported race no schedule can manifest would go in
#: ``RACE_WHITELIST`` with a justification; today it is empty.
RACE_CASES = ["race_unsync_counter", "race_arc_interior_mut",
              "race_lock_wrong_mutex"]
RACE_SEEDS = range(6)
RACE_WHITELIST: dict = {}


@pytest.fixture(scope="module")
def compiled_race_cases():
    out = []
    for name in RACE_CASES:
        template = BUG_TEMPLATES[name]
        src = template.render("X") + "\nfn main() { bug_X(); }\n"
        out.append((name, template, compile_source(src)))
    return out


def test_static_races_are_dynamically_manifestable(benchmark,
                                                   compiled_race_cases):
    """Every static data-race report on the deterministic templates is
    confirmed by the dynamic race monitor under some schedule seed (or
    is whitelisted as a known over-approximation)."""
    def run_both():
        rows = {}
        for name, _t, compiled in compiled_race_cases:
            report = run_detectors(compiled.program)
            static_hits = [f for f in report.findings
                           if f.detector == "data-race"]
            seeds_hit = []
            for seed in RACE_SEEDS:
                result = run_program(
                    compiled.program,
                    schedule=ScheduleConfig(seed=seed, quantum=2,
                                            max_steps=400_000),
                    detect_races=True)
                if result.races:
                    seeds_hit.append(seed)
            rows[name] = (len(static_hits), seeds_hit)
        return rows
    rows = benchmark(run_both)
    lines = []
    for name, _t, _c in compiled_race_cases:
        static_hits, seeds_hit = rows[name]
        lines.append(f"{name:24} static: {static_hits}  "
                     f"dynamic seeds: {seeds_hit or 'none'}")
        assert static_hits >= 1, f"{name}: static detector missed"
        if name not in RACE_WHITELIST:
            assert seeds_hit, \
                f"{name}: static race never manifested dynamically"
    emit("lockset detector vs vector-clock monitor on the race "
         "templates", "\n".join(lines))


#: Deadlock templates cross-validated like the races: every cycle /
#: blocking shape the lock-graph engine reports statically must
#: *manifest* under some interpreter schedule — a seed (and thread
#: quantum) whose interleaving parks every thread.  The channel shape
#: needs a coarser quantum than the ABBA (the sender must win the lock
#: race only after the receiver has it), hence the (seed, quantum) grid.
DEADLOCK_CASES = ["deadlock_abba_two_threads", "deadlock_condvar_hold",
                  "deadlock_channel_recv"]
DEADLOCK_SCHEDULES = [(seed, quantum)
                      for seed in range(6) for quantum in (2, 5)]


@pytest.fixture(scope="module")
def compiled_deadlock_cases():
    out = []
    for name in DEADLOCK_CASES:
        template = BUG_TEMPLATES[name]
        assert template.dynamic_entry
        src = template.render("X") + "\nfn main() { bug_X(); }\n"
        out.append((name, template, compile_source(src)))
    return out


def test_static_deadlocks_are_dynamically_manifestable(
        benchmark, compiled_deadlock_cases):
    """Each statically-reported deadlock is confirmed by the interpreter:
    some schedule drives the program into the all-threads-blocked
    outcome the finding predicts."""
    def run_both():
        rows = {}
        for name, _t, compiled in compiled_deadlock_cases:
            report = run_detectors(compiled.program)
            static_hits = [f for f in report.findings
                           if f.detector == "deadlock"]
            schedules_hit = []
            for seed, quantum in DEADLOCK_SCHEDULES:
                result = run_program(
                    compiled.program,
                    schedule=ScheduleConfig(seed=seed, quantum=quantum,
                                            max_steps=400_000))
                if result.outcome == "deadlock":
                    schedules_hit.append((seed, quantum))
            rows[name] = (static_hits, schedules_hit)
        return rows
    rows = benchmark(run_both)
    lines = []
    for name, _t, _c in compiled_deadlock_cases:
        static_hits, schedules_hit = rows[name]
        lines.append(f"{name:26} static: {len(static_hits)}  "
                     f"deadlocking schedules: {len(schedules_hit)}"
                     f"/{len(DEADLOCK_SCHEDULES)}")
        assert len(static_hits) == 1, \
            (name, [(f.detector, f.kind) for f in static_hits])
        assert schedules_hit, \
            f"{name}: static deadlock never manifested dynamically"
    emit("lock-graph deadlock engine vs interpreter schedules on the "
         "deadlock templates", "\n".join(lines))


def test_lock_protected_negative_clean_both_ways(benchmark):
    """The lock-protected counterpart is clean statically *and*
    dynamically — the detectors agree on the negative too."""
    from repro.corpus.benign import BENIGN_TEMPLATES
    src = BENIGN_TEMPLATES["locked_shared"]("X") \
        + "\nfn main() { run_guarded_X(); }\n"
    compiled = compile_source(src)
    report = run_detectors(compiled.program)
    assert not report.findings, [f.kind for f in report.findings]

    def run_dynamic():
        races = []
        for seed in RACE_SEEDS:
            result = run_program(
                compiled.program,
                schedule=ScheduleConfig(seed=seed, quantum=2,
                                        max_steps=400_000),
                detect_races=True)
            assert result.ok, result.error
            races.extend(result.races)
        return races
    races = benchmark(run_dynamic)
    emit("lock-protected negative: static findings 0, dynamic races "
         f"{len(races)} across seeds {list(RACE_SEEDS)}", "")
    assert not races


def test_panic_safety_cross_validation(benchmark):
    """The unwind model, validated in both directions.  The buggy
    template's static `panic-safety` finding manifests dynamically: the
    panicking driver reaches UB *during unwinding* (the landing pad
    frees what `ptr::read` duplicated), while the non-panicking driver
    is clean.  The guard-restores twin is clean both ways — its panic
    unwinds without UB and leaks nothing, because the duplication window
    closed before the panic."""
    from repro.corpus.benign import BENIGN_TEMPLATES
    buggy = BUG_TEMPLATES["panic_between_read_and_write"].render("X")
    benign = BENIGN_TEMPLATES["panic_guard_restores"]("X")
    programs = {
        ("buggy", True): compile_source(
            buggy + "\nfn main() { bug_X(true); }\n"),
        ("buggy", False): compile_source(
            buggy + "\nfn main() { bug_X(false); }\n"),
        ("benign", True): compile_source(
            benign + "\nfn main() { guarded_update_X(true); }\n"),
        ("benign", False): compile_source(
            benign + "\nfn main() { guarded_update_X(false); }\n"),
    }

    static = {key: run_detectors(compiled.program)
              for key, compiled in programs.items()}
    for key in (("buggy", True), ("buggy", False)):
        assert any(f.detector == "panic-safety"
                   for f in static[key].findings), key
    for key in (("benign", True), ("benign", False)):
        assert not static[key].findings, \
            [(f.detector, f.kind) for f in static[key].findings]

    def run_dynamic():
        return {key: run_program(compiled.program,
                                 schedule=ScheduleConfig(max_steps=100_000))
                for key, compiled in programs.items()}
    dynamic = benchmark(run_dynamic)
    assert dynamic[("buggy", True)].outcome == "ub", \
        dynamic[("buggy", True)].error
    assert dynamic[("buggy", False)].outcome == "ok"
    assert dynamic[("benign", True)].outcome == "panic", \
        dynamic[("benign", True)].error
    assert dynamic[("benign", True)].leaked == 0
    assert dynamic[("benign", False)].outcome == "ok"
    emit("panic-safety cross-validation",
         "buggy(panic):  static panic-safety HIT, dynamic "
         f"{dynamic[('buggy', True)].outcome} during unwind\n"
         "buggy(clean):  static panic-safety HIT (no input needed), "
         f"dynamic {dynamic[('buggy', False)].outcome}\n"
         "benign(panic): static 0 findings, dynamic "
         f"{dynamic[('benign', True)].outcome} "
         f"(leaked {dynamic[('benign', True)].leaked})\n"
         "benign(clean): static 0 findings, dynamic "
         f"{dynamic[('benign', False)].outcome}")


def test_dynamic_only_bounded_channel(benchmark):
    compiled = compile_source(DYNAMIC_ONLY_SRC)
    static_report = run_detectors(compiled.program)
    result = benchmark(run_program, compiled.program,
                       schedule=ScheduleConfig(max_steps=100_000))
    emit("dynamic-only case: send on a full bounded channel",
         f"static findings: {len(static_report.errors)} (expected 0 — "
         f"capacity is a runtime property); dynamic outcome: "
         f"{result.outcome}")
    assert result.outcome == "deadlock"
    assert not static_report.by_kind("send-full")
