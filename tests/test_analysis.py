"""Tests for the dataflow analyses: CFG, the gen/kill solver, init,
points-to, storage ranges, guard regions, call graph."""

from collections import Counter, deque

from conftest import compile_, mir_of
from hypothesis import given, settings, strategies as st

from repro.analysis.callgraph import build_call_graph, direct_locks
from repro.analysis.dataflow import reach
from repro.analysis.engine import SummaryEngine
from repro.analysis.init import compute_init, init_of
from repro.analysis.lifetime import (
    compute_guard_regions, compute_storage_ranges, lock_identity,
    resolve_ref_chain,
)
from repro.analysis.panic import ensure_unwind_edges
from repro.analysis.points_to import compute_points_to
from repro.analysis.scan import cfg_of
from repro.corpus.benign import BENIGN_TEMPLATES
from repro.corpus.inject import BUG_TEMPLATES
from repro.api import AnalysisSession
from repro.mir.cfg import Cfg
from repro.mir.nodes import (
    BinOpKind, Body, Local, Operand, Place, Rvalue, Statement, StatementKind,
    Terminator, TerminatorKind,
)


def _reached(solution):
    return [state for state in solution.entry if state is not None]


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


class TestInit:
    def test_assigned_local_is_init(self):
        body = mir_of("fn main() { let x = 1; print(x); }")
        init = compute_init(body)
        x = local_named(body, "x")
        final_block = len(body.blocks) - 1
        assert init.is_init(init.entry[final_block] or 0, x) or any(
            init.is_init(st, x) for st in _reached(init))

    def test_moved_local_is_marked(self):
        body = mir_of("""
            fn main() {
                let v: Vec<i32> = Vec::new();
                let w = v;
                print(1);
            }""")
        init = compute_init(body)
        v = local_named(body, "v")
        assert any(init.is_moved(st, v) for st in _reached(init))

    def test_args_init_at_entry(self):
        body = mir_of("fn f(a: i32) { print(a); }", "f")
        init = compute_init(body)
        assert init.is_init(init.entry[0], 1)


class TestPointsTo:
    def test_ref_points_to_target(self):
        body = mir_of("fn main() { let x = 1; let r = &x; print(*r); }")
        pt = compute_points_to(body)
        x = local_named(body, "x")
        r = local_named(body, "r")
        assert x in pt.local_targets(r)

    def test_cast_preserves_target(self):
        body = mir_of("""
            fn main() {
                let x = 1;
                let p = &x as *const i32 as *mut i32;
            }""")
        pt = compute_points_to(body)
        assert local_named(body, "x") in \
            pt.local_targets(local_named(body, "p"))

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
        assert pt.targets(local_named(body, "p")) & \
            pt.targets(local_named(body, "q"))

    def test_distinct_targets_do_not_alias(self):
        body = mir_of("""
            fn main() {
                let x = 1;
                let y = 2;
                let p = &x;
                let q = &y;
            }""")
        pt = compute_points_to(body)
        assert not pt.targets(local_named(body, "p")) & \
            pt.targets(local_named(body, "q"))


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


# ---------------------------------------------------------------------------
# The bitset gen/kill solver against a frozenset reference
# ---------------------------------------------------------------------------

def _reference_solve(body, cfg, boundary, transfer_block):
    """The frozenset worklist solver the bitset one replaced: block-entry
    states of the reachable blocks, joined by union."""
    entry = {}
    if not body.blocks:
        return entry
    entry[0] = boundary
    worklist = deque(cfg.reverse_post_order())
    queued = set(worklist)
    while worklist:
        bb = worklist.popleft()
        queued.discard(bb)
        incoming = [transfer_block(entry[p], p)
                    for p in cfg.predecessors[bb] if p in entry]
        if bb == 0:
            incoming.append(boundary)
        if not incoming:
            continue
        new_state = frozenset().union(*incoming)
        if entry.get(bb) != new_state:
            entry[bb] = new_state
            for succ in cfg.successors[bb]:
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return entry


def _moves(tags, operands):
    for op in operands:
        if op.is_move and op.place is not None and op.place.is_local:
            tags.add(("moved", op.place.local))
            tags.discard(("init", op.place.local))


def _init_statement(state, stmt):
    tags = set(state)
    if stmt.kind is StatementKind.ASSIGN:
        if stmt.rvalue is not None:
            _moves(tags, stmt.rvalue.operands)
        if stmt.place.is_local:
            tags.add(("init", stmt.place.local))
            tags.discard(("moved", stmt.place.local))
    elif stmt.kind is StatementKind.DROP:
        if stmt.place.is_local:
            tags.discard(("init", stmt.place.local))
    elif stmt.kind in (StatementKind.STORAGE_LIVE,
                       StatementKind.STORAGE_DEAD):
        tags.discard(("init", stmt.local))
        tags.discard(("moved", stmt.local))
    return frozenset(tags)


def _init_terminator(state, term):
    tags = set(state)
    if term is not None and term.kind is TerminatorKind.CALL:
        _moves(tags, term.args)
        if term.destination is not None and term.destination.is_local:
            tags.add(("init", term.destination.local))
            tags.discard(("moved", term.destination.local))
    return frozenset(tags)


def _storage_statement(state, stmt):
    if stmt.kind is StatementKind.STORAGE_LIVE:
        return state | {stmt.local}
    if stmt.kind is StatementKind.STORAGE_DEAD:
        return state - {stmt.local}
    return state


def _reference_points(body, boundary, transfer_stmt,
                      transfer_term=lambda state, term: state):
    """Per block: whether it is reached, and the state before each
    statement and then before the terminator (replayed from an empty
    entry when unreached)."""
    def transfer_block(state, bb):
        for stmt in body.blocks[bb].statements:
            state = transfer_stmt(state, stmt)
        return transfer_term(state, body.blocks[bb].terminator)

    entry = _reference_solve(body, Cfg(body), boundary, transfer_block)
    out = []
    for block in body.blocks:
        state = entry.get(block.index, frozenset())
        states = [state]
        for stmt in block.statements:
            state = transfer_stmt(state, stmt)
            states.append(state)
        out.append((block.index in entry, states))
    return out


def _init_tags(init, state):
    return frozenset(
        [("init", l) for l in range(init.num_locals)
         if init.is_init(state, l)]
        + [("moved", l) for l in range(init.num_locals)
           if init.is_moved(state, l)])


def _assert_init_agrees(body, init):
    boundary = frozenset(("init", l.index) for l in body.locals if l.is_arg)
    reference = _reference_points(body, boundary, _init_statement,
                                  _init_terminator)
    for bb, (reached, states) in enumerate(reference):
        assert init.reached(bb) == reached, bb
        replayed = init.states_in_block(bb)
        assert [_init_tags(init, s) for s in replayed] == states, bb
        for index, state in enumerate(replayed):
            assert init.before(bb, index) == state
        for l in range(init.num_locals):
            for state in replayed:
                assert init.moved_out(state, l) == (
                    l in set(init.moved_out_locals(state)))


def _assert_storage_agrees(body):
    boundary = frozenset(l.index for l in body.locals
                         if l.is_arg or l.index == 0)
    reference = _reference_points(body, boundary, _storage_statement)
    ranges = compute_storage_ranges(body)
    for bb, (reached, states) in enumerate(reference):
        for index, state in enumerate(states):
            for local in range(len(body.locals)):
                assert ranges.is_live_at(local, (bb, index)) == (
                    reached and local in state), (bb, index, local)


@st.composite
def _random_bodies(draw):
    """A small MIR body over random blocks: loops (backward targets),
    unreachable blocks (nothing targets them), switch fan-out to one
    target, calls with and without a return edge or destination, and
    projected places (which neither analysis tracks)."""
    num_locals = draw(st.integers(1, 6))
    num_args = draw(st.integers(0, num_locals - 1))
    locals_ = [Local(index=i, is_arg=1 <= i <= num_args)
               for i in range(num_locals)]
    num_blocks = draw(st.integers(1, 7))
    block_ids = st.integers(0, num_blocks - 1)

    def place():
        local = draw(st.integers(0, num_locals - 1))
        return Place(local).field(0) if draw(st.integers(0, 4)) == 0 \
            else Place(local)

    def operand():
        kind = draw(st.sampled_from(["move", "move", "copy", "const"]))
        if kind == "const":
            return Operand.const(1)
        return Operand.move(place()) if kind == "move" \
            else Operand.copy(place())

    def statement():
        kind = draw(st.sampled_from(
            ["assign", "assign", "drop", "live", "dead", "nop"]))
        if kind == "assign":
            arity = draw(st.integers(0, 2))
            rvalue = (Rvalue.ref(place()) if arity == 0
                      else Rvalue.use_(operand()) if arity == 1
                      else Rvalue.binary(BinOpKind.ADD, operand(),
                                         operand()))
            return Statement(StatementKind.ASSIGN, place=place(),
                             rvalue=rvalue)
        if kind == "drop":
            return Statement(StatementKind.DROP, place=place())
        if kind == "nop":
            return Statement(StatementKind.NOP)
        return Statement(StatementKind.STORAGE_LIVE if kind == "live"
                         else StatementKind.STORAGE_DEAD,
                         local=draw(st.integers(0, num_locals - 1)))

    def terminator():
        kind = draw(st.sampled_from(
            ["goto", "switch", "fan-out", "call", "call", "assert",
             "return"]))
        if kind == "goto":
            return Terminator(TerminatorKind.GOTO, target=draw(block_ids))
        if kind in ("switch", "fan-out"):
            if kind == "fan-out":
                targets = [draw(block_ids)] * draw(st.integers(2, 3))
            else:
                targets = draw(st.lists(block_ids, min_size=1, max_size=3))
            return Terminator(
                TerminatorKind.SWITCH_INT, discr=Operand.copy(Place(0)),
                switch_targets=list(enumerate(targets[:-1])),
                otherwise=targets[-1])
        if kind == "call":
            return Terminator(
                TerminatorKind.CALL,
                args=[operand() for _ in range(draw(st.integers(0, 2)))],
                destination=draw(st.sampled_from([None, place()])),
                target=draw(st.one_of(st.none(), block_ids)))
        if kind == "assert":
            return Terminator(TerminatorKind.ASSERT,
                              cond=Operand.copy(Place(0)),
                              target=draw(block_ids))
        return Terminator(TerminatorKind.RETURN)

    body = Body(key="random", locals=locals_, arg_count=num_args)
    for _ in range(num_blocks):
        block = body.new_block()
        block.statements = [statement()
                            for _ in range(draw(st.integers(0, 4)))]
        block.terminator = terminator()
    return body


def _add_random_pads(draw, body):
    """Lower random unwind edges the way ``ensure_unwind_edges`` does:
    ``cleanup`` blocks of ``DROP`` statements ending in ``RESUME``,
    appended after the body's blocks; each may-unwind site (reachable
    or not) points at one of them or at none."""
    sites = [(block.index, block.terminator) for block in body.blocks
             if block.terminator.kind in (TerminatorKind.CALL,
                                          TerminatorKind.ASSERT)]
    num_pads = draw(st.integers(0, 3))
    first_pad = len(body.blocks)
    for _ in range(num_pads):
        pad = body.new_block()
        pad.cleanup = True
        pad.statements = [
            Statement(StatementKind.DROP, place=Place(local))
            for local in draw(st.lists(
                st.integers(0, len(body.locals) - 1), max_size=3))]
        pad.terminator = Terminator(TerminatorKind.RESUME)
    for _bb, term in sites:
        if num_pads:
            term.unwind = draw(st.one_of(
                st.none(), st.integers(first_pad, first_pad + num_pads - 1)))
    return sites, first_pad


class TestBitsetSolver:
    """The int-bitset gen/kill solver agrees with the frozenset
    reference at every program point, for maybe-init/moved and storage
    liveness, including landing pads patched in after solving."""

    @given(_random_bodies())
    @settings(max_examples=200, deadline=None)
    def test_init_and_storage_match_the_reference(self, body):
        _assert_init_agrees(body, compute_init(body))
        _assert_storage_agrees(body)

    @given(_random_bodies(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_patched_landing_pads_match_a_fresh_solve(self, body, data):
        init = init_of(body)            # solved on the pre-pad CFG
        sites, first_pad = _add_random_pads(data.draw, body)
        cfg_of(body).add_landing_pads(body, sites)
        init.add_landing_pads(body, first_pad)
        _assert_init_agrees(body, init)
        _assert_init_agrees(body, compute_init(body))
        _assert_storage_agrees(body)

    def test_unwind_lowering_reuses_the_one_init_solve(self):
        compiled = compile_(BUG_TEMPLATES[
            "panic_between_read_and_write"].render("u1"))
        lowered = 0
        for body in compiled.program.functions.values():
            before = init_of(body)
            ensure_unwind_edges(body)
            if any(block.cleanup for block in body.blocks):
                lowered += 1
                assert init_of(body) is before
                _assert_init_agrees(body, before)
        assert lowered


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

    def test_try_lock_region_covers_only_its_guard(self):
        # A try-lock gets a region, marked `is_try`; it covers a point
        # only once the guard is out of the `Result`.
        body = mir_of("""
            fn f(m: &Mutex<i32>) {
                let r = m.try_lock();
                let x = 1;
                if let Ok(g) = r {
                    let y = 2;
                }
            }""", "f")
        [region] = compute_guard_regions(body)
        assert region.is_try and region.kind == "mutex"
        covered = {body.locals[s.place.local].name: (bb, i) in region.points
                   for bb, i, s in body.iter_statements()
                   if s.kind is StatementKind.ASSIGN
                   and body.locals[s.place.local].name in ("x", "y")}
        assert covered == {"x": False, "y": True}


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
        assert reach(graph.callees("main"), graph.callees) \
            == {"a", "b", "c"}

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
        engine = SummaryEngine(compiled.program)
        assert ("arg", 0, (), "mutex") in engine.summary("locks").locks

    def test_lock_summary_transitive(self):
        compiled = compile_("""
            fn inner(m: &Mutex<i32>) { let g = m.lock().unwrap(); }
            fn outer(m: &Mutex<i32>) { inner(m); }
            fn main() {}""")
        engine = SummaryEngine(compiled.program)
        assert ("arg", 0, (), "mutex") in engine.summary("outer").locks

    def test_static_lock_summary(self):
        compiled = compile_("""
            static LOCK: Mutex<i32> = Mutex::new(0);
            fn locks() { let g = LOCK.lock().unwrap(); }
            fn main() {}""")
        engine = SummaryEngine(compiled.program)
        assert any(l[0] == "static" and l[1] == "LOCK"
                   for l in engine.summary("locks").locks)
