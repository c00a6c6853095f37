"""Tests for the dataflow analyses: CFG, liveness, init, points-to,
storage ranges, guard regions, call graph."""

from collections import Counter

from conftest import compile_, mir_of

from repro.analysis.callgraph import build_call_graph, direct_locks
from repro.analysis.init import compute_init
from repro.analysis.lifetime import (
    compute_guard_regions, compute_storage_ranges, lock_identity,
    resolve_ref_chain,
)
from repro.analysis.liveness import compute_liveness, live_at_statement
from repro.analysis.points_to import compute_points_to
from repro.analysis.scan import cfg_of
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.inject import BUG_TEMPLATES
from repro.api import AnalysisSession
from repro.mir.cfg import Cfg
from repro.mir.nodes import StatementKind, TerminatorKind


def local_named(body, name):
    for local in body.locals:
        if local.name == name:
            return local.index
    raise AssertionError(f"no local named {name}")


class TestCfg:
    def _body(self):
        return mir_of("""
            fn main() {
                let mut x = 0;
                while x < 10 {
                    if x == 5 { x += 2; } else { x += 1; }
                }
            }""")

    def test_preds_and_succs_are_inverse(self):
        cfg = Cfg(self._body())
        for bb in range(cfg.num_blocks):
            for succ in cfg.successors[bb]:
                assert bb in cfg.predecessors[succ]

    def test_rpo_starts_at_entry(self):
        cfg = Cfg(self._body())
        assert cfg.reverse_post_order()[0] == 0

    def test_entry_dominates_all(self):
        cfg = Cfg(self._body())
        for bb in cfg.reachable_blocks():
            assert cfg.dominates(0, bb)

    def test_loop_detected(self):
        cfg = Cfg(self._body())
        assert cfg.back_edges()
        assert cfg.loops()

    def test_straight_line_has_no_loops(self):
        cfg = Cfg(mir_of("fn main() { let x = 1; let y = x + 1; }"))
        assert not cfg.back_edges()

    def test_can_reach(self):
        cfg = Cfg(self._body())
        rpo = cfg.reverse_post_order()
        assert cfg.can_reach(0, rpo[-1])


class TestOneCfgPerBody:
    """Every analysis and detector shares one memoised Cfg per body."""

    def _checked_program(self, monkeypatch):
        built = []
        original = Cfg.__init__

        def counting_init(self, body):
            built.append(id(body))
            original(self, body)

        monkeypatch.setattr(Cfg, "__init__", counting_init)
        source = "\n".join([
            BUG_TEMPLATES["uaf_drop_deref"].render("c1"),
            BUG_TEMPLATES["overflow_unchecked"].render("c2"),
            BUG_TEMPLATES["uninit_pub_exposure"].render("c3"),
            BUG_TEMPLATES["race_arc_interior_mut"].render("c4"),
            BUG_TEMPLATES["panic_between_read_and_write"].render("c5"),
            BENIGN_TEMPLATES["panic_guard_restores"]("c6"),
        ])
        compiled = compile_(source)
        report = AnalysisSession().analyze_compiled(compiled).report
        monkeypatch.setattr(Cfg, "__init__", original)
        return compiled.program.functions.values(), built, report

    def test_at_most_one_cfg_per_body(self, monkeypatch):
        bodies, built, report = self._checked_program(monkeypatch)
        assert len({f.detector for f in report.findings}) >= 4
        per_body = Counter(built)
        assert max(per_body.values()) == 1
        assert set(per_body) <= {id(body) for body in bodies}

    def test_shared_cfg_matches_a_fresh_build_after_unwind_lowering(
            self, monkeypatch):
        bodies, _built, _report = self._checked_program(monkeypatch)
        lowered = [b for b in bodies if any(bb.cleanup for bb in b.blocks)]
        assert lowered
        for body in bodies:
            shared, fresh = cfg_of(body), Cfg(body)
            assert shared.num_blocks == fresh.num_blocks
            assert shared.successors == fresh.successors
            assert shared.predecessors == fresh.predecessors
            assert shared.reverse_post_order() == fresh.reverse_post_order()
            assert shared.immediate_dominators() == \
                fresh.immediate_dominators()


class TestLiveness:
    def test_used_variable_live_before_use(self):
        body = mir_of("fn main() { let x = 1; let y = x + 1; print(y); }")
        exit_states = compute_liveness(body)
        x = local_named(body, "x")
        # x must be live somewhere (between def and use).
        live_anywhere = set()
        for bb in range(len(body.blocks)):
            for state in live_at_statement(body, exit_states, bb):
                live_anywhere |= state
        assert x in live_anywhere

    def test_dead_after_last_use(self):
        body = mir_of("fn main() { let x = 1; print(x); let y = 2; print(y); }")
        exit_states = compute_liveness(body)
        x = local_named(body, "x")
        last_exit = exit_states.get(len(body.blocks) - 1, frozenset())
        assert x not in last_exit


class TestInit:
    def test_assigned_local_is_init(self):
        body = mir_of("fn main() { let x = 1; print(x); }")
        entry = compute_init(body)
        x = local_named(body, "x")
        final_block = len(body.blocks) - 1
        assert ("init", x) in entry.get(final_block, frozenset()) or any(
            ("init", x) in st for st in entry.values())

    def test_moved_local_is_marked(self):
        body = mir_of("""
            fn main() {
                let v: Vec<i32> = Vec::new();
                let w = v;
                print(1);
            }""")
        entry = compute_init(body)
        v = local_named(body, "v")
        assert any(("moved", v) in st for st in entry.values())

    def test_args_init_at_entry(self):
        body = mir_of("fn f(a: i32) { print(a); }", "f")
        entry = compute_init(body)
        assert ("init", 1) in entry[0]


class TestPointsTo:
    def test_ref_points_to_target(self):
        body = mir_of("fn main() { let x = 1; let r = &x; print(*r); }")
        pt = compute_points_to(body)
        x = local_named(body, "x")
        r = local_named(body, "r")
        assert pt.may_point_to_local(r, x)

    def test_cast_preserves_target(self):
        body = mir_of("""
            fn main() {
                let x = 1;
                let p = &x as *const i32 as *mut i32;
            }""")
        pt = compute_points_to(body)
        assert pt.may_point_to_local(local_named(body, "p"),
                                     local_named(body, "x"))

    def test_alloc_site_target(self):
        body = mir_of("fn main() { let b = Box::new(1); }")
        pt = compute_points_to(body)
        b = local_named(body, "b")
        assert any(t[0] == "heap" for t in pt.targets(b))

    def test_as_ptr_points_into_receiver_allocation(self):
        body = mir_of("""
            fn main() {
                let v = vec![1];
                let p = v.as_ptr();
            }""")
        pt = compute_points_to(body)
        p = local_named(body, "p")
        v = local_named(body, "v")
        assert pt.targets(p) & pt.targets(v)

    def test_may_alias_through_copies(self):
        body = mir_of("""
            fn main() {
                let x = 1;
                let p = &x;
                let q = p;
            }""")
        pt = compute_points_to(body)
        assert pt.may_alias(local_named(body, "p"), local_named(body, "q"))

    def test_distinct_targets_do_not_alias(self):
        body = mir_of("""
            fn main() {
                let x = 1;
                let y = 2;
                let p = &x;
                let q = &y;
            }""")
        pt = compute_points_to(body)
        assert not pt.may_alias(local_named(body, "p"),
                                local_named(body, "q"))


class TestStorageRanges:
    def test_scoped_local_not_live_outside(self):
        body = mir_of("""
            fn main() {
                if true {
                    let inner = 1;
                    print(inner);
                }
                let outer = 2;
                print(outer);
            }""")
        ranges = compute_storage_ranges(body)
        inner = local_named(body, "inner")
        # The block where `outer` is assigned must not include `inner`.
        outer = local_named(body, "outer")
        outer_points = {
            (bb, i) for bb, i, s in body.iter_statements()
            if s.kind is StatementKind.ASSIGN and s.place.local == outer}
        for point in outer_points:
            assert not ranges.is_live_at(inner, point)


class TestGuardRegions:
    def test_region_ends_at_guard_drop(self):
        body = mir_of("""
            fn f(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
                print(*g);
                drop(g);
                let x = 1;
            }""", "f")
        regions = compute_guard_regions(body)
        assert len(regions) == 1
        region = regions[0]
        assert region.kind == "mutex"
        # The statement assigning x must be outside the region.
        for bb, i, s in body.iter_statements():
            if s.kind is StatementKind.ASSIGN and \
                    body.locals[s.place.local].name == "x":
                assert (bb, i) not in region.points

    def test_match_scrutinee_region_covers_arms(self):
        body = mir_of("""
            struct Inner { m: i32 }
            fn f(client: &RwLock<Inner>) {
                match client.read().unwrap().m {
                    0 => { let a = 1; }
                    _ => { let b = 2; }
                };
            }""", "f")
        regions = compute_guard_regions(body)
        read = [r for r in regions if r.kind == "read"]
        assert read
        # Arm-body assignments are inside the read region.
        names = {"a", "b"}
        covered = 0
        for bb, i, s in body.iter_statements():
            if s.kind is StatementKind.ASSIGN and \
                    (body.locals[s.place.local].name in names):
                if (bb, i) in read[0].points:
                    covered += 1
        assert covered >= 1

    def test_lock_identity_same_receiver(self):
        body = mir_of("""
            fn f(m: &Mutex<i32>) {
                let a = m.lock().unwrap();
                drop(a);
                let b = m.lock().unwrap();
            }""", "f")
        regions = compute_guard_regions(body)
        assert len(regions) == 2
        assert regions[0].lock_ids & regions[1].lock_ids

    def test_try_lock_excluded_by_default(self):
        body = mir_of("""
            fn f(m: &Mutex<i32>) {
                let a = m.try_lock();
            }""", "f")
        assert compute_guard_regions(body) == []
        assert compute_guard_regions(body, include_try=True)


class TestRefChain:
    def test_resolves_through_ref_and_copy(self):
        body = mir_of("""
            fn f(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
            }""", "f")
        # Find the lock call receiver and resolve it to the arg.
        for _bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func and \
                    "lock" in term.func.name:
                base, proj = resolve_ref_chain(body,
                                               term.args[0].place.local)
                assert base == 1   # the &Mutex argument
                return
        raise AssertionError("no lock call found")


class TestCallGraph:
    def test_edges(self):
        compiled = compile_("""
            fn a() { b(); }
            fn b() { c(); }
            fn c() {}
            fn main() { a(); }""")
        graph = build_call_graph(compiled.program)
        assert "a" in graph.callees("main")
        assert graph.transitive_callees("main") == {"a", "b", "c"}

    def test_spawn_edges_separate(self):
        compiled = compile_("""
            fn main() {
                let h = thread::spawn(move || { work(); });
            }
            fn work() {}""")
        graph = build_call_graph(compiled.program)
        assert graph.spawn_edges["main"]
        assert "main::{closure#0}" not in graph.edges["main"]
        spawned = graph.reachable_from_spawn()
        assert "work" in spawned

    def test_lock_summary_on_arg(self):
        compiled = compile_("""
            fn locks(m: &Mutex<i32>) { let g = m.lock().unwrap(); }
            fn main() {}""")
        graph = build_call_graph(compiled.program)
        assert ("arg", 0, (), "mutex") in graph.lock_summaries["locks"]

    def test_lock_summary_transitive(self):
        compiled = compile_("""
            fn inner(m: &Mutex<i32>) { let g = m.lock().unwrap(); }
            fn outer(m: &Mutex<i32>) { inner(m); }
            fn main() {}""")
        graph = build_call_graph(compiled.program)
        assert ("arg", 0, (), "mutex") in graph.lock_summaries["outer"]

    def test_static_lock_summary(self):
        compiled = compile_("""
            static LOCK: Mutex<i32> = Mutex::new(0);
            fn locks() { let g = LOCK.lock().unwrap(); }
            fn main() {}""")
        graph = build_call_graph(compiled.program)
        assert any(l[0] == "static" and l[1] == "LOCK"
                   for l in graph.lock_summaries["locks"])
