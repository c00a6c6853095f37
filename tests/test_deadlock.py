"""Cross-thread deadlock engine: lock graph, detector, subsumption."""

import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import SummaryEngine
from repro.analysis.lockgraph import DEFAULT_CYCLE_BOUND, elementary_circuits
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.inject import BUG_TEMPLATES
from repro.detectors.registry import run_detectors
from repro.driver import compile_source

ABBA_SPLIT = """
fn grab_both(first: &Mutex<i32>, second: &Mutex<i32>) {
    let a = first.lock().unwrap();
    let b = second.lock().unwrap();
    print(*a + *b);
}
fn bug_abba() {
    let m1 = Arc::new(Mutex::new(1));
    let m2 = Arc::new(Mutex::new(2));
    let c1 = Arc::clone(&m1);
    let c2 = Arc::clone(&m2);
    let h = thread::spawn(move || {
        grab_both(&c2, &c1);
    });
    grab_both(&m1, &m2);
    h.join();
}
"""

STATIC_CROSS_THREAD_ABBA = """
static LA: Mutex<i32> = Mutex::new(0);
static LB: Mutex<i32> = Mutex::new(0);
fn bug_static() {
    let h = thread::spawn(move || {
        let b = LB.lock().unwrap();
        let a = LA.lock().unwrap();
        print(*a + *b);
    });
    let a = LA.lock().unwrap();
    let b = LB.lock().unwrap();
    print(*a + *b);
    h.join();
}
"""

SAME_THREAD_ABBA = """
static SA: Mutex<i32> = Mutex::new(0);
static SB: Mutex<i32> = Mutex::new(0);
fn first_order() {
    let a = SA.lock().unwrap();
    let b = SB.lock().unwrap();
    print(*a + *b);
}
fn second_order() {
    let b = SB.lock().unwrap();
    let a = SA.lock().unwrap();
    print(*a + *b);
}
"""

THREE_LOCK_CYCLE = """
static TA: Mutex<i32> = Mutex::new(0);
static TB: Mutex<i32> = Mutex::new(0);
static TC: Mutex<i32> = Mutex::new(0);
fn bug_three() {
    let h1 = thread::spawn(move || {
        let a = TA.lock().unwrap();
        let b = TB.lock().unwrap();
        print(*a + *b);
    });
    let h2 = thread::spawn(move || {
        let b = TB.lock().unwrap();
        let c = TC.lock().unwrap();
        print(*b + *c);
    });
    let c = TC.lock().unwrap();
    let a = TA.lock().unwrap();
    print(*a + *c);
    h1.join();
    h2.join();
}
"""


# Five locks taken pairwise around a ring, all on the main thread: one
# lock-order cycle one lock longer than the default bound.
FIVE_LOCK_RING = "".join(
    f"static R{i}: Mutex<i32> = Mutex::new(0);\n" for i in range(5)) + "".join(
    f"fn hop{i}() {{\n"
    f"    let a = R{i}.lock().unwrap();\n"
    f"    let b = R{(i + 1) % 5}.lock().unwrap();\n"
    f"    print(*a + *b);\n"
    f"}}\n" for i in range(5))


def _findings(src, **config_kwargs):
    compiled = compile_source(src)
    report = run_detectors(compiled.program,
                           config=AnalysisConfig(**config_kwargs))
    return report.findings


class TestLockGraph:
    def test_abba_graph_shape(self):
        compiled = compile_source(ABBA_SPLIT)
        engine = SummaryEngine(compiled.program, AnalysisConfig())
        graph = engine.lock_graph()
        # Two Arc-allocated mutexes, one edge per direction, two roots
        # (main + the spawn site).
        assert len(graph.nodes) == 2
        assert all(node[0] == "heap" for node in graph.nodes)
        assert len({e.root for e in graph.edges}) == 2
        cycles = graph.deadlock_cycles(4)
        assert len(cycles) == 1
        cycle, witness = cycles[0]
        assert len(cycle) == 2 and len(witness) == 2
        assert witness[0].root != witness[1].root
        # Hold/want chains walk through the shared helper.
        for edge in witness:
            assert edge.hold_chain[-1] == "grab_both"
            assert edge.want_chain[-1] == "grab_both"

    def test_graph_accessor_is_cached(self):
        compiled = compile_source(ABBA_SPLIT)
        engine = SummaryEngine(compiled.program, AnalysisConfig())
        assert engine.lock_graph() is engine.lock_graph()

    def test_same_thread_cycle_has_no_distinct_roots(self):
        compiled = compile_source(SAME_THREAD_ABBA)
        engine = SummaryEngine(compiled.program, AnalysisConfig())
        graph = engine.lock_graph()
        # The order cycle exists in the graph...
        assert graph.cycles(4)
        # ...but no per-thread assignment: both edges run on main.
        assert graph.deadlock_cycles(4) == []

    def test_api_lock_graph_helper(self):
        from repro import api
        graph = api.lock_graph(ABBA_SPLIT)
        assert len(graph.deadlock_cycles(4)) == 1


class TestDeadlockCycleDetector:
    def test_split_abba_invisible_to_old_detectors(self):
        """The acceptance shape: acquisitions split across a helper and
        two threads.  Heap lock identities and per-call-site-consistent
        orders keep every pre-existing detector silent — only the
        cross-thread lock graph reports it."""
        findings = _findings(ABBA_SPLIT)
        assert {f.detector for f in findings} == {"deadlock"}
        finding = findings[0]
        assert finding.kind == "deadlock-cycle"
        assert finding.fn_key == "bug_abba"
        hold_want = [p for p in finding.provenance
                     if p["kind"] == "hold-want"]
        assert len(hold_want) == 2
        threads = {p["thread"] for p in hold_want}
        assert len(threads) == 2 and "main thread" in threads
        for p in hold_want:
            assert p["hold_chain"] and p["want_chain"]
            assert p["hold_chain"][-1] == "grab_both"

    def test_three_lock_three_thread_cycle(self):
        findings = _findings(THREE_LOCK_CYCLE)
        cycle_findings = [f for f in findings
                          if f.kind == "deadlock-cycle"]
        assert len(cycle_findings) == 1
        assert len(cycle_findings[0].metadata["cycle"]) == 3
        assert len(cycle_findings[0].metadata["threads"]) == 3

    def test_cycle_bound_caps_the_search(self):
        compiled = compile_source(THREE_LOCK_CYCLE)
        graph = SummaryEngine(compiled.program, AnalysisConfig()).lock_graph()
        assert [len(cycle) for cycle, _ in graph.deadlock_cycles()] == [3]
        assert not graph.deadlock_cycles(2)

    def test_same_thread_abba_left_to_lock_order(self):
        findings = _findings(SAME_THREAD_ABBA)
        assert {f.detector for f in findings} == {"lock-order"}


def _brute_force_circuits(edges, max_len):
    """Every elementary circuit of length ``2..max_len``, as the node
    sequence that starts at its least node."""
    nodes = sorted({node for edge in edges for node in edge})
    found = set()
    for length in range(2, max_len + 1):
        for path in itertools.permutations(nodes, length):
            if path[0] == min(path) and all(
                    (path[i], path[(i + 1) % length]) in edges
                    for i in range(length)):
                found.add(path)
    return found


def _lock_node(i):
    return ("heap" if i % 2 else "static", f"L{i}", ())


# Self-loops included: neither side counts one as a circuit.
_digraphs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1),
                                st.integers(0, n - 1))))


class TestOneLockGraph:
    """Both lock-graph detectors share one circuit enumerator and one
    bound, over the engine's solved lock-order pairs."""

    @given(_digraphs)
    @settings(max_examples=200, deadline=None)
    def test_enumerator_matches_brute_force(self, index_edges):
        edges = [(_lock_node(a), _lock_node(b))
                 for a, b in sorted(index_edges)]
        for bound in range(2, 7):
            circuits = elementary_circuits(edges, bound)
            assert len(circuits) == len(set(circuits))
            assert set(circuits) == _brute_force_circuits(set(edges), bound)
            assert elementary_circuits(reversed(edges), bound) == circuits

    def test_five_lock_ring_needs_bound_five(self):
        assert DEFAULT_CYCLE_BOUND == 4
        assert not [f for f in _findings(FIVE_LOCK_RING)
                    if f.detector in ("lock-order", "deadlock")]
        # The lock-order detector's edges: the solved global pairs.
        program = compile_source(FIVE_LOCK_RING).program
        engine = SummaryEngine(program, AnalysisConfig())
        edges = {(a[:3], b[:3]) for body in program.bodies()
                 for a, b in engine.summary(body.key).lock_orders}
        assert not elementary_circuits(edges, DEFAULT_CYCLE_BOUND)
        assert [len(cycle) for cycle in elementary_circuits(edges, 5)] == [5]

    @pytest.mark.parametrize("src", [
        BUG_TEMPLATES["lock_order_pair"].render("ablation"),
        SAME_THREAD_ABBA,
    ], ids=["lock_order_pair", "two_function_abba"])
    def test_lock_order_without_interprocedural_summaries(self, src):
        """The ablation's bottom summaries keep each body's own direct
        pairs, so a cycle needing no callee still reaches lock-order."""
        findings = _findings(src, interprocedural=False)
        assert "lock-order" in {f.detector for f in findings}

    def test_ablation_cross_thread_cycle_is_a_deadlock(self):
        """The deadlock detector reads the same direct pairs, so a
        cross-thread cycle over directly locked statics is reported as
        in the default mode, subsuming lock-order's finding."""
        findings = _findings(STATIC_CROSS_THREAD_ABBA, interprocedural=False)
        assert [(f.detector, f.kind) for f in findings] == \
            [("deadlock", "deadlock-cycle")]

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="needs sys.stdlib_module_names")
    def test_runtime_loads_only_stdlib_and_repro(self):
        import repro
        script = (
            "import sys\n"
            "import repro.cli\n"
            "from repro import api\n"
            "from repro.corpus.inject import BUG_TEMPLATES\n"
            "api.analyze(BUG_TEMPLATES['lock_order_pair'].render('x'))\n"
            "allowed = (set(sys.stdlib_module_names)\n"
            "           | set(sys.builtin_module_names)\n"
            "           | {'repro', '__main__'})\n"
            "print(sorted({name.split('.')[0] for name in sys.modules}\n"
            "             - allowed))\n")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        # -S: no site hooks, so only what repro itself imports is loaded.
        run = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True,
            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src_dir))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


class TestSubsumption:
    def test_deadlock_subsumes_lock_order_on_same_cycle(self):
        findings = _findings(STATIC_CROSS_THREAD_ABBA)
        assert {f.detector for f in findings} == {"deadlock"}
        facts = [p for p in findings[0].provenance
                 if p["kind"] == "subsumed_by"]
        assert len(facts) == 1
        assert facts[0]["detector"] == "lock-order"
        assert facts[0]["finding_kind"] == "conflicting-lock-order"



class TestBlockingPatterns:
    def test_recv_deadlock_leaves_no_channel_warning(self):
        # One verdict per wait: the site is the deadlock detector's, and
        # the channel detector run alone does not warn about it either.
        src = BUG_TEMPLATES["deadlock_channel_recv"].render("X")
        findings = _findings(src)
        assert [(f.detector, f.kind) for f in findings] == \
            [("deadlock", "recv-deadlock")]
        assert not _findings(src, detectors=("channel",))

    def test_condvar_hold_lock(self):
        from repro.corpus.inject import BUG_TEMPLATES
        src = BUG_TEMPLATES["deadlock_condvar_hold"].render("X")
        findings = _findings(src)
        assert [(f.detector, f.kind) for f in findings] == \
            [("deadlock", "condvar-hold-lock")]
        assert "META_X" in findings[0].metadata["held"]

    def test_condvar_wait_without_extra_lock_is_clean(self):
        src = """
fn ok_waiter() {
    let state = Arc::new(Mutex::new(0));
    let cv = Arc::new(Condvar::new());
    let state2 = Arc::clone(&state);
    let cv2 = Arc::clone(&cv);
    let h = thread::spawn(move || {
        let g = state2.lock().unwrap();
        cv2.notify_one();
        print(*g);
    });
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*g2);
    h.join();
}
"""
        assert not _findings(src)

    def test_notifier_not_needing_held_lock_is_clean(self):
        # The waiter holds META, but the notifier never touches it — a
        # wakeup remains possible, so no condvar-hold-lock.
        src = """
static META: Mutex<i32> = Mutex::new(0);
fn ok_free_notifier() {
    let state = Arc::new(Mutex::new(0));
    let cv = Arc::new(Condvar::new());
    let state2 = Arc::clone(&state);
    let cv2 = Arc::clone(&cv);
    let h = thread::spawn(move || {
        let g = state2.lock().unwrap();
        cv2.notify_one();
        print(*g);
    });
    let meta = META.lock().unwrap();
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*meta + *g2);
    h.join();
}
"""
        assert not [f for f in _findings(src) if f.detector == "deadlock"]

    def test_recv_without_spawn_is_not_recv_deadlock(self):
        # recv_holding_lock has no thread boundary between sender and
        # receiver: the heuristic channel warning stays, the deadlock
        # engine (which requires cross-thread sends) stays out.
        from repro.corpus.inject import BUG_TEMPLATES
        src = BUG_TEMPLATES["recv_holding_lock"].render("X")
        findings = _findings(src)
        assert {f.detector for f in findings} == {"channel"}

    def test_benign_handoff_is_clean(self):
        from repro.corpus.benign import BENIGN_TEMPLATES
        src = BENIGN_TEMPLATES["handoff_lock_then_send"]("X")
        assert not _findings(src)


class TestCondvarNotifyScan:
    def test_notify_in_dead_closure_does_not_suppress(self):
        src = """
fn bug_dead_notify() {
    let state = Mutex::new(0);
    let cv = Condvar::new();
    let never = || {
        cv.notify_one();
    };
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*g2);
}
"""
        findings = _findings(src)
        assert [(f.detector, f.kind) for f in findings] == \
            [("condvar", "condvar-no-notify")]

    def test_notify_on_other_condvar_does_not_suppress(self):
        src = """
fn bug_wrong_cv() {
    let state = Mutex::new(0);
    let cv_a = Condvar::new();
    let cv_b = Condvar::new();
    let g = state.lock().unwrap();
    let g2 = cv_a.wait(g).unwrap();
    cv_b.notify_one();
    print(*g2);
}
"""
        findings = _findings(src)
        assert [(f.detector, f.kind) for f in findings] == \
            [("condvar", "condvar-no-notify")]

    def test_matching_live_notify_suppresses(self):
        src = """
fn ok_same_cv() {
    let state = Mutex::new(0);
    let cv = Condvar::new();
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    cv.notify_one();
    print(*g2);
}
"""
        assert not _findings(src)

    def test_spawned_notifier_still_counts(self):
        src = """
fn ok_notified() {
    let state = Arc::new(Mutex::new(0));
    let cv = Arc::new(Condvar::new());
    let cv2 = Arc::clone(&cv);
    let h = thread::spawn(move || {
        cv2.notify_one();
    });
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*g2);
    h.join();
}
"""
        assert not [f for f in _findings(src) if f.detector == "condvar"]


class TestWaitWake:
    """The one wait/wake query behind ``condvar``, ``channel`` and the
    deadlock detector's wait kinds."""

    def test_recv_after_every_sender_dropped_is_clean(self):
        # `recv` returns `Err` once every `Sender` is gone: no bug.
        src = """
fn ok_dropped() {
    let (tx, rx) = channel();
    drop(tx);
    let v = rx.recv();
}
"""
        assert not _findings(src)

    def test_send_on_another_channel_does_not_feed_the_recv(self):
        src = """
fn bug_wrong_channel() {
    let (tx_a, rx_a) = channel();
    let (tx_b, rx_b) = channel();
    tx_b.send(1);
    let v = rx_a.recv();
}
"""
        assert [(f.detector, f.kind) for f in _findings(src)] == \
            [("channel", "recv-no-sender")]

    def test_send_in_dead_closure_does_not_feed_the_recv(self):
        src = """
fn bug_dead_send() {
    let (tx, rx) = channel();
    let never = || {
        tx.send(1);
    };
    let v = rx.recv();
}
"""
        assert [(f.detector, f.kind) for f in _findings(src)] == \
            [("channel", "recv-no-sender")]

    def test_template_shape_blocks_and_the_dropped_shape_does_not(self):
        from repro.mir.interp import ScheduleConfig, run_program
        blocking = BUG_TEMPLATES["channel_no_sender"].render("X")
        dropped = blocking.replace("let value = rx.recv();",
                                   "drop(tx);\n    let value = rx.recv();")
        assert dropped != blocking
        outcomes = []
        for src in (blocking, dropped):
            compiled = compile_source(src + "fn main() { bug_X(); }")
            outcomes.append(run_program(
                compiled.program,
                schedule=ScheduleConfig(max_steps=300_000)).outcome)
        assert outcomes == ["deadlock", "ok"]
        assert not _findings(dropped)

    SPAWNED_RECV = """
fn bug_spawned_recv() {
    let (tx, rx) = channel();
    let h = thread::spawn(move || {
        let v = rx.recv();
    });
    h.join();
}
"""

    @staticmethod
    def _outcome(src, entry):
        from repro.mir.interp import ScheduleConfig, run_program
        compiled = compile_source(src + f"fn main() {{ {entry}(); }}")
        return run_program(compiled.program,
                           schedule=ScheduleConfig(max_steps=300_000)).outcome

    def test_spawner_holding_the_sender_across_the_join_blocks(self):
        # The closure's recv waits on a channel whose `Sender` the
        # spawner keeps until after it joins: a hang.
        src = self.SPAWNED_RECV
        assert self._outcome(src, "bug_spawned_recv") == "deadlock"
        assert [(f.detector, f.kind) for f in _findings(src)] == \
            [("channel", "recv-no-sender")]

    def test_spawner_dropping_the_sender_before_the_join_is_clean(self):
        src = self.SPAWNED_RECV.replace(
            "    h.join();", "    drop(tx);\n    h.join();")
        assert src != self.SPAWNED_RECV
        assert self._outcome(src, "bug_spawned_recv") == "ok"
        assert not _findings(src)

    def test_one_liveness_closure_per_analysis(self, monkeypatch):
        from repro import api
        from repro.analysis import lockgraph
        calls = []
        real = lockgraph.live_functions

        def counting(engine):
            calls.append(engine)
            return real(engine)

        # Patch every module that bound the function by name, too.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and getattr(module, "live_functions", None) is real:
                monkeypatch.setattr(module, "live_functions", counting)
        src = (BUG_TEMPLATES["deadlock_condvar_hold"].render("c")
               + BUG_TEMPLATES["deadlock_channel_recv"].render("r"))
        report = api.analyze(src)
        assert {f.kind for f in report.findings} == \
            {"condvar-hold-lock", "recv-deadlock"}
        assert len(calls) == 1

    def test_each_wait_gets_one_counted_verdict(self):
        from repro import obs
        src = (BUG_TEMPLATES["deadlock_condvar_hold"].render("c")
               + BUG_TEMPLATES["channel_no_sender"].render("s")
               + BUG_TEMPLATES["recv_holding_lock"].render("h")
               + BENIGN_TEMPLATES["handoff_lock_then_send"]("b")
               + "fn ok_d() { let (tx, rx) = channel(); drop(tx);"
                 " let v = rx.recv(); }")
        with obs.collecting() as collector:
            _findings(src)
        counters = {name: value for name, value
                    in collector.counters.items()
                    if name.startswith("waits.")}
        assert counters == {
            "waits.wake_blocked": 1, "waits.no_wake": 1,
            "waits.wake_maybe_blocked": 1, "waits.woken": 1,
            "waits.sender_dropped": 1}


class TestDeterminism:
    def test_findings_stable_across_jobs(self):
        compiled = compile_source(ABBA_SPLIT)
        baseline = None
        for jobs in (1, 2):
            report = run_detectors(compiled.program,
                                   config=AnalysisConfig(jobs=jobs))
            payload = [(f.detector, f.kind, f.fn_key, f.span.lo)
                       for f in report.findings]
            if baseline is None:
                baseline = payload
            assert payload == baseline

    def test_lock_order_findings_independent_of_hash_seed(self):
        """Lock identities reach the lock-order graph from sets; the
        detector must not let their hash-seeded iteration order pick the
        lock a cycle is reported from.  Two interpreters with different
        ``PYTHONHASHSEED`` must agree byte for byte."""
        import repro
        script = (
            "import json\n"
            "from repro import api\n"
            "from repro.corpus.generator import generate_corpus\n"
            "from repro.corpus.inject import BUG_TEMPLATES\n"
            "pair = BUG_TEMPLATES['lock_order_pair'].render('seed')\n"
            "crate = generate_corpus(0, 1).combined_source()\n"
            "print(json.dumps([api.analyze(pair, name='pair').to_dict(),\n"
            "                  api.analyze(crate, name='crate').to_dict()]))\n")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        runs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
            for seed in ("1", "2")]
        outputs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        pair, _crate = json.loads(outputs[0])
        assert any(f["detector"] == "lock-order" for f in pair["findings"])
        assert outputs[0] == outputs[1]
