"""Detector tests: every detector on positive and negative cases, plus
the paper's figure patterns end-to-end."""

import pytest

from conftest import check, detectors_named, interp


class TestUseAfterFree:
    def test_drop_then_deref(self):
        report = check("""
            fn main() {
                let v = vec![1, 2, 3];
                let p = v.as_ptr();
                drop(v);
                unsafe { let x = *p; }
            }""")
        assert detectors_named(report, "use-after-free")

    def test_borrow_through_dangling_pointer(self):
        # ``&*p`` dereferences in the rvalue's own place, not an operand.
        report = check("""
            fn main() {
                let v = vec![1, 2, 3];
                let p = v.as_ptr();
                drop(v);
                unsafe { let r = &*p; }
            }""")
        assert detectors_named(report, "use-after-free")

    def test_deref_before_drop_clean(self):
        report = check("""
            fn main() {
                let v = vec![1, 2, 3];
                let p = v.as_ptr();
                unsafe { let x = *p; }
                drop(v);
            }""")
        assert not detectors_named(report, "use-after-free")

    def test_dangling_scoped_pointer(self):
        report = check("""
            fn main() {
                let p = {
                    let x = 5;
                    &x as *const i32
                };
                unsafe { let y = *p; }
            }""")
        assert detectors_named(report, "use-after-free")

    def test_figure7_escape_to_ffi(self):
        report = check("""
            struct BioSlice { v: i32 }
            impl BioSlice {
                fn new(data: i32) -> BioSlice { BioSlice { v: data } }
                fn as_ptr(&self) -> *const BioSlice {
                    &self.v as *const i32 as *const BioSlice
                }
            }
            fn sign(data: Option<i32>) {
                let p = match data {
                    Some(d) => BioSlice::new(d).as_ptr(),
                    None => ptr::null_mut(),
                };
                unsafe { let cms = CMS_sign(p); }
            }""")
        assert detectors_named(report, "use-after-free")

    def test_figure7_fixed_clean(self):
        report = check("""
            struct BioSlice { v: i32 }
            impl BioSlice {
                fn new(data: i32) -> BioSlice { BioSlice { v: data } }
                fn as_ptr(&self) -> *const BioSlice {
                    &self.v as *const i32 as *const BioSlice
                }
            }
            fn sign(data: Option<i32>) {
                let bio = match data {
                    Some(d) => Some(BioSlice::new(d)),
                    None => None,
                };
                let p = bio.map_or(ptr::null_mut(), |b| b.as_ptr());
                unsafe { let cms = CMS_sign(p); }
            }""")
        assert not detectors_named(report, "use-after-free")

    def test_pointer_to_live_arg_clean(self):
        report = check("""
            fn f(v: &Vec<i32>) {
                let p = v.as_ptr();
                unsafe { let x = *p; }
            }""")
        assert not detectors_named(report, "use-after-free")


# ---------------------------------------------------------------------------
# The freed state on the bitset solver vs. the set-based reference
# ---------------------------------------------------------------------------

def _reference_freed(ctx, body, pt, site_chains, init):
    """The set-based worklist ``UseAfterFreeDetector`` solved the freed
    state with before it moved onto ``repro.analysis.dataflow``, kept
    verbatim as a reference: ``(point_states, drop_reasons)`` with one
    frozenset of ``("dropped", local)`` / ``("heap", site)`` facts per
    program point, landing pads included."""
    from collections import deque

    from repro.hir.builtins import BuiltinOp, FuncKind
    from repro.mir.nodes import StatementKind, TerminatorKind

    drop_reasons = {}
    chain_of = {}
    for site, chain in site_chains.items():
        for local in chain:
            chain_of.setdefault(local, []).append(site)

    entry = {0: set()}
    point_states = {}
    worklist = deque([0])
    visited = {}

    while worklist:
        bb = worklist.popleft()
        state = set(entry.get(bb, set()))
        prev = visited.get(bb)
        if prev is not None and state <= prev:
            continue
        visited[bb] = set(state) | (prev or set())
        block = body.blocks[bb]
        init_states = None
        if init.reached(bb):
            init_states = init.states_in_block(bb)
        for i, stmt in enumerate(block.statements):
            point_states[(bb, i)] = frozenset(
                point_states.get((bb, i), frozenset()) | state)
            if stmt.kind is StatementKind.DROP and stmt.place.is_local:
                local = stmt.place.local
                definitely_moved = False
                if init_states is not None:
                    definitely_moved = init.moved_out(init_states[i], local)
                if not definitely_moved:
                    state.add(("dropped", local))
                    for site in chain_of.get(local, []):
                        state.add(("heap", site))
            elif stmt.kind is StatementKind.ASSIGN and stmt.place.is_local:
                state.discard(("dropped", stmt.place.local))
        term = block.terminator
        term_point = (bb, len(block.statements))
        point_states[term_point] = frozenset(
            point_states.get(term_point, frozenset()) | state)
        if term is not None and term.kind is TerminatorKind.CALL \
                and term.func is not None:
            op = term.func.builtin_op
            if op is BuiltinOp.MEM_DROP:
                for arg in term.args:
                    if arg.place is not None and arg.place.is_local:
                        local = arg.place.local
                        state.add(("dropped", local))
                        for site in chain_of.get(local, []):
                            state.add(("heap", site))
            elif op is BuiltinOp.DEALLOC:
                for arg in term.args:
                    if arg.place is None:
                        continue
                    for target in pt.targets(arg.place.local):
                        if target[0] == "heap":
                            state.add(("heap", target[1]))
            elif op is BuiltinOp.MEM_FORGET:
                pass
            elif term.func.kind in (FuncKind.USER, FuncKind.CLOSURE) \
                    and op is not BuiltinOp.THREAD_SPAWN:
                callee = term.func.user_fn
                summary = ctx.summary(callee)
                for j, arg in enumerate(term.args):
                    if arg.place is None or not arg.place.is_local \
                            or not arg.is_move \
                            or not summary.drops_arg(j):
                        continue
                    local = arg.place.local
                    state.add(("dropped", local))
                    drop_reasons[("dropped", local)] = (callee, j)
                    for site in chain_of.get(local, []):
                        state.add(("heap", site))
                        drop_reasons[("heap", site)] = (callee, j)
            if term.destination is not None and term.destination.is_local:
                state.discard(("dropped", term.destination.local))
        if term is not None:
            for succ in term.successors():
                prev_in = entry.get(succ)
                if prev_in is None:
                    entry[succ] = set(state)
                    worklist.append(succ)
                elif not state <= prev_in:
                    prev_in |= state
                    worklist.append(succ)
    return point_states, drop_reasons


#: Shapes the ledger inputs lack: a call destination that was dropped on
#: an earlier loop iteration, and frees in blocks the entry never reaches.
_FREED_STATE_SHAPES = """
fn make() -> Vec<i32> { vec![1] }
fn consume(v: Vec<i32>) { drop(v); }
fn churn(n: i32) {
    let v = vec![1];
    let p = v.as_ptr();
    let mut i = 0;
    while i < n {
        drop(make());
        i = i + 1;
    }
    unsafe { let x = *p; }
}
fn spin() {
    let v = vec![1, 2, 3];
    let p = v.as_ptr();
    loop { }
    consume(v);
    unsafe { let x = *p; }
}
"""


class TestFreedStatePort:
    """``UseAfterFreeDetector.freed_states`` (gen/kill on the bitset
    solver) agrees with the set-based reference at every program point
    outside the landing pads, and records the same ``drop_reasons``, on
    every golden-ledger input and on :data:`_FREED_STATE_SHAPES`."""

    def test_matches_the_reference_on_the_ledger_inputs(self):
        import golden_ledger
        from repro.analysis.scan import scan_of
        from repro.detectors.base import AnalysisContext
        from repro.detectors.use_after_free import (
            _ALLOC_OPS, UseAfterFreeDetector, value_chain,
        )
        from repro.driver import compile_source

        detector = UseAfterFreeDetector()
        bodies = points = reasons = 0
        inputs = golden_ledger.ledger_inputs()
        inputs.append(("shapes", "shapes.rs", _FREED_STATE_SHAPES))
        for _ident, name, text in inputs:
            program = compile_source(text, name=name).program
            ctx = AnalysisContext(program)
            for body in program.bodies():
                scan = scan_of(body)
                if not scan.raw_ptr_locals:
                    continue
                pt = ctx.points_to(body)
                site_chains = {}
                for bb, term in scan.calls_of(*_ALLOC_OPS):
                    if term.destination is not None \
                            and term.destination.is_local:
                        site_chains[f"{body.key}:{bb}"] = value_chain(
                            body, term.destination.local)
                expected, expected_reasons = _reference_freed(
                    ctx, body, pt, site_chains, ctx.init_states(body))
                freed = detector.freed_states(ctx, body, pt)
                facts = [("dropped", local.index) for local in body.locals]
                facts += [("heap", site) for site in freed.heap_bits]
                for block in body.blocks:
                    if block.cleanup:
                        continue
                    for i in range(len(block.statements) + 1):
                        state = freed.before(block.index, i)
                        got = {f for f in facts if freed.holds(state, f)}
                        assert got == expected.get(
                            (block.index, i), frozenset()), \
                            (body.key, block.index, i)
                        points += 1
                assert freed.drop_reasons == expected_reasons, body.key
                bodies += 1
                reasons += len(expected_reasons)
        assert bodies and points and reasons

class TestDoubleLock:
    def test_figure8(self):
        report = check("""
            struct Inner { m: i32 }
            fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
            fn do_request(client: &RwLock<Inner>) {
                match connect(client.read().unwrap().m) {
                    Ok(x) => {
                        let mut inner = client.write().unwrap();
                        inner.m = x;
                    }
                    Err(e) => {}
                };
            }""")
        findings = detectors_named(report, "double-lock")
        assert findings
        assert not findings[0].metadata["interprocedural"]

    def test_figure8_fixed_clean(self):
        report = check("""
            struct Inner { m: i32 }
            fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
            fn do_request(client: &RwLock<Inner>) {
                let result = connect(client.read().unwrap().m);
                match result {
                    Ok(x) => {
                        let mut inner = client.write().unwrap();
                        inner.m = x;
                    }
                    Err(e) => {}
                };
            }""")
        assert not detectors_named(report, "double-lock")

    def test_sequential_locks_clean(self):
        report = check("""
            fn f(m: &Mutex<i32>) {
                let a = {
                    let g = m.lock().unwrap();
                    *g
                };
                let b = {
                    let g = m.lock().unwrap();
                    *g
                };
                print(a + b);
            }""")
        assert not detectors_named(report, "double-lock")

    def test_read_read_allowed(self):
        report = check("""
            fn f(l: &RwLock<i32>) {
                let a = l.read().unwrap();
                let b = l.read().unwrap();
                print(*a + *b);
            }""")
        assert not detectors_named(report, "double-lock")

    def test_read_write_conflicts(self):
        report = check("""
            fn f(l: &RwLock<i32>) {
                let a = l.read().unwrap();
                let mut b = l.write().unwrap();
                *b = *a;
            }""")
        assert detectors_named(report, "double-lock")

    def test_interprocedural(self):
        report = check("""
            fn helper(m: &Mutex<i32>) -> i32 {
                let g = m.lock().unwrap();
                *g
            }
            fn outer(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
                let v = helper(m);
                print(v + *g);
            }""")
        findings = detectors_named(report, "double-lock")
        assert findings
        assert any(f.metadata.get("interprocedural") for f in findings)

    def test_interprocedural_different_lock_clean(self):
        report = check("""
            fn helper(m: &Mutex<i32>) -> i32 {
                let g = m.lock().unwrap();
                *g
            }
            fn outer(a: &Mutex<i32>, b: &Mutex<i32>) {
                let g = a.lock().unwrap();
                let v = helper(b);
                print(v + *g);
            }""")
        assert not detectors_named(report, "double-lock")

    def test_try_lock_not_flagged(self):
        report = check("""
            fn f(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
                let t = m.try_lock();
                print(*g);
            }""")
        assert not detectors_named(report, "double-lock")

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("field", ["m", "n"])
    def test_helper_lock_keeps_the_field_it_was_passed(self, field, hops):
        # `top` holds `s.m` and reaches `lock_it(&s.<field>)` directly or
        # through `mid`: the summaries name the field passed, not all of
        # `s`, so `s.m` re-locks and `s.n` does not.
        call = f"lock_it(&s.{field});" if hops == 1 else "mid(s);"
        report = check(f"""
            struct S {{ m: Mutex<i32>, n: Mutex<i32> }}
            fn lock_it(m: &Mutex<i32>) {{
                let g = m.lock().unwrap();
                print(*g);
            }}
            fn mid(s: &S) {{ lock_it(&s.{field}); }}
            fn top(s: &S) {{
                let g = s.m.lock().unwrap();
                {call}
                print(*g);
            }}""")
        findings = detectors_named(report, "double-lock")
        assert bool(findings) == (field == "m")
        if findings:
            [finding] = findings
            assert finding.fn_key == "top"
            assert finding.metadata["interprocedural"]

    def test_explicit_drop_ends_region(self):
        report = check("""
            fn f(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
                drop(g);
                let h = m.lock().unwrap();
                print(*h);
            }""")
        assert not detectors_named(report, "double-lock")

    def test_if_let_scrutinee_guard(self):
        report = check("""
            fn f(m: &Mutex<i32>) {
                if let Ok(g) = m.lock() {
                    let h = m.lock().unwrap();
                    print(*g + *h);
                }
            }""")
        assert detectors_named(report, "double-lock")


class TestLockOrder:
    def test_abba_cycle(self):
        report = check("""
            static A: Mutex<i32> = Mutex::new(0);
            static B: Mutex<i32> = Mutex::new(0);
            fn first() {
                let a = A.lock().unwrap();
                let b = B.lock().unwrap();
                print(*a + *b);
            }
            fn second() {
                let b = B.lock().unwrap();
                let a = A.lock().unwrap();
                print(*a + *b);
            }""")
        assert detectors_named(report, "lock-order")

    def test_consistent_order_clean(self):
        report = check("""
            static A: Mutex<i32> = Mutex::new(0);
            static B: Mutex<i32> = Mutex::new(0);
            fn first() {
                let a = A.lock().unwrap();
                let b = B.lock().unwrap();
                print(*a + *b);
            }
            fn second() {
                let a = A.lock().unwrap();
                let b = B.lock().unwrap();
                print(*a + *b);
            }""")
        assert not detectors_named(report, "lock-order")


    def test_cycle_through_helpers_passed_static_fields(self):
        # Each order's second lock is taken two calls down, by a helper
        # passed one field of the static: `ab` holds `G.a` and reaches
        # `G.b`, `ba` the reverse.
        report = check("""
            struct S { a: Mutex<i32>, b: Mutex<i32> }
            static G: S = S { a: Mutex::new(0), b: Mutex::new(0) };
            fn lock_it(m: &Mutex<i32>) {
                let g = m.lock().unwrap();
                print(*g);
            }
            fn via_a(s: &S) { lock_it(&s.a); }
            fn via_b(s: &S) { lock_it(&s.b); }
            fn ab() {
                let x = G.a.lock().unwrap();
                via_b(&G);
                print(*x);
            }
            fn ba() {
                let y = G.b.lock().unwrap();
                via_a(&G);
                print(*y);
            }
            fn main() { ab(); ba(); }""")
        [finding] = detectors_named(report, "lock-order")
        assert "static `G`.a -> static `G`.b -> static `G`.a" \
            in finding.message


class TestMemoryMisc:
    def test_double_free_ptr_read(self):
        report = check("""
            fn dup(v: Vec<i32>) {
                let t1 = v;
                unsafe {
                    let t2 = ptr::read(&t1);
                    drop(t2);
                }
            }""")
        assert detectors_named(report, "double-free")

    def test_ptr_read_with_forget_clean(self):
        report = check("""
            fn dup(v: Vec<i32>) {
                let t1 = v;
                unsafe {
                    let t2 = ptr::read(&t1);
                    mem::forget(t1);
                    drop(t2);
                }
            }""")
        assert not detectors_named(report, "double-free")

    def test_figure6_invalid_free(self):
        report = check("""
            struct FILE { buf: Vec<u8> }
            unsafe fn _fdopen() {
                let f = alloc(100) as *mut FILE;
                *f = FILE { buf: vec![0u8; 100] };
            }""")
        assert detectors_named(report, "invalid-free")

    def test_figure6_fixed_with_ptr_write(self):
        report = check("""
            struct FILE { buf: Vec<u8> }
            unsafe fn _fdopen() {
                let f = alloc(100) as *mut FILE;
                ptr::write(f, FILE { buf: vec![0u8; 100] });
            }""")
        assert not detectors_named(report, "invalid-free")

    def test_uninit_read(self):
        report = check("""
            unsafe fn f() -> i32 {
                let p = alloc(16) as *mut i32;
                let v = *p;
                v
            }""")
        assert detectors_named(report, "uninit-read")

    def test_written_alloc_clean(self):
        report = check("""
            unsafe fn f() -> i32 {
                let p = alloc(16) as *mut i32;
                ptr::write(p, 7);
                let v = *p;
                v
            }""")
        assert not detectors_named(report, "uninit-read")


class TestBufferOverflow:
    def test_constant_oob(self):
        report = check("""
            fn f() -> u8 {
                let v = vec![0u8; 8];
                unsafe { *v.get_unchecked(9) }
            }""")
        findings = detectors_named(report, "buffer-overflow")
        assert any(f.metadata.get("definite") for f in findings)

    def test_in_bounds_clean(self):
        report = check("""
            fn f() -> u8 {
                let v = vec![0u8; 8];
                unsafe { *v.get_unchecked(3) }
            }""")
        assert not [f for f in detectors_named(report, "buffer-overflow")
                    if f.metadata.get("definite")]

    def test_unguarded_dynamic_index_warns(self):
        report = check("""
            fn f(i: usize) -> u8 {
                let v = vec![0u8; 8];
                unsafe { *v.get_unchecked(i) }
            }""")
        assert detectors_named(report, "buffer-overflow")

    def test_guarded_dynamic_index_clean(self):
        report = check("""
            fn f(i: usize) -> u8 {
                let v = vec![0u8; 8];
                if i < v.len() {
                    unsafe { return *v.get_unchecked(i); }
                }
                0
            }""")
        assert not detectors_named(report, "buffer-overflow")


class TestConcurrencyMisc:
    def test_condvar_without_notify(self):
        report = check("""
            fn main() {
                let m = Mutex::new(false);
                let cv = Condvar::new();
                let g = m.lock().unwrap();
                let g2 = cv.wait(g).unwrap();
            }""")
        assert detectors_named(report, "condvar")

    def test_condvar_with_notify_clean(self):
        report = check("""
            fn waiter(m: &Mutex<bool>, cv: &Condvar) {
                let g = m.lock().unwrap();
                let g2 = cv.wait(g).unwrap();
            }
            fn signaller(cv: &Condvar) {
                cv.notify_all();
            }""")
        assert not detectors_named(report, "condvar")

    def test_recv_no_sender(self):
        report = check("""
            fn main() {
                let (tx, rx) = channel();
                let v = rx.recv();
            }""")
        assert detectors_named(report, "channel")

    def test_channel_with_sender_clean(self):
        report = check("""
            fn main() {
                let (tx, rx) = channel();
                tx.send(1);
                let v = rx.recv();
            }""")
        assert not detectors_named(report, "channel")

    def test_once_recursion(self):
        report = check("""
            static INIT: Once = Once::new();
            fn main() {
                INIT.call_once(|| {
                    INIT.call_once(|| { print(1); });
                });
            }""")
        assert detectors_named(report, "once-recursion")

    def test_once_simple_clean(self):
        report = check("""
            static INIT: Once = Once::new();
            fn main() {
                INIT.call_once(|| { print(1); });
            }""")
        assert not detectors_named(report, "once-recursion")

    def test_once_recursion_message_is_hash_seed_independent(self):
        # Three helpers re-enter the same Once: the message names the
        # first in sorted order, whatever order string hashing gives.
        import os
        import subprocess
        import sys

        import repro
        source = """
            static INIT: Once = Once::new();
            fn helper_alpha() { INIT.call_once(|| { print(1); }); }
            fn helper_beta() { INIT.call_once(|| { print(2); }); }
            fn helper_gamma() { INIT.call_once(|| { print(3); }); }
            fn main() {
                INIT.call_once(|| {
                    helper_alpha(); helper_beta(); helper_gamma();
                });
            }"""
        script = (f"from repro import api\n"
                  f"for finding in api.analyze({source!r}).findings:\n"
                  f"    if finding.detector == 'once-recursion':\n"
                  f"        print(finding.message)\n")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=src_dir,
                         PYTHONHASHSEED=seed))
            assert run.returncode == 0, run.stderr
            outputs.add(run.stdout)
        assert len(outputs) == 1, outputs
        output = outputs.pop()
        assert output.count("\n") == 1
        assert "via `helper_alpha`" in output


class TestInteriorMutability:
    def test_figure9_check_then_act(self):
        report = check("""
            struct AuthorityRound { proposed: AtomicBool }
            unsafe impl Sync for AuthorityRound {}
            impl AuthorityRound {
                fn generate_seal(&self) -> i32 {
                    if self.proposed.load() { return 0; }
                    self.proposed.store(true);
                    return 1;
                }
            }""")
        assert detectors_named(report, "atomicity-violation")

    def test_figure9_fixed_with_cas(self):
        report = check("""
            struct AuthorityRound { proposed: AtomicBool }
            unsafe impl Sync for AuthorityRound {}
            impl AuthorityRound {
                fn generate_seal(&self) -> i32 {
                    if !self.proposed.compare_and_swap(false, true) {
                        return 1;
                    }
                    return 0;
                }
            }""")
        assert not detectors_named(report, "atomicity-violation")

    def test_figure4_unsync_write(self):
        report = check("""
            struct TestCell { value: i32 }
            unsafe impl Sync for TestCell {}
            impl TestCell {
                fn set(&self, i: i32) {
                    let p = &self.value as *const i32 as *mut i32;
                    unsafe { *p = i; }
                }
            }""")
        assert detectors_named(report, "sync-unsync-write")

    def test_locked_write_clean(self):
        report = check("""
            struct Locked { value: Mutex<i32> }
            unsafe impl Sync for Locked {}
            impl Locked {
                fn set(&self, i: i32) {
                    let mut g = self.value.lock().unwrap();
                    *g = i;
                }
            }""")
        assert not detectors_named(report, "sync-unsync-write")

    def test_non_shared_struct_clean(self):
        report = check("""
            struct Private { value: i32 }
            impl Private {
                fn set(&self, i: i32) {
                    let p = &self.value as *const i32 as *mut i32;
                    unsafe { *p = i; }
                }
            }""")
        assert not detectors_named(report, "sync-unsync-write")

    # The Arc route: no Sync impl, but some local anywhere in the program
    # holds the struct in an `Arc`.
    _SLOT = """
        struct Slot { value: i32 }
        struct Other { value: i32 }
        impl Slot {
            fn set(&self, i: i32) {
                let p = &self.value as *const i32 as *mut i32;
                unsafe { *p = i; }
            }
        }
        """

    def test_arc_shared_struct_reported(self):
        report = check(self._SLOT + """
            fn share() {
                let a: Arc<Slot> = Arc::new(Slot { value: 0 });
                a.set(1);
            }""")
        found = detectors_named(report, "sync-unsync-write")
        assert [f.fn_key for f in found] == ["Slot::set"]
        assert found[0].metadata["struct"] == "Slot"

    def test_arc_of_another_struct_clean(self):
        report = check(self._SLOT + """
            fn share() {
                let a: Arc<Other> = Arc::new(Other { value: 0 });
            }""")
        assert not detectors_named(report, "sync-unsync-write")

    def test_arc_of_boxed_struct_reported(self):
        # peel_wrappers strips the Box: Arc<Box<Slot>> shares the Slot.
        report = check(self._SLOT + """
            fn share() {
                let a: Arc<Box<Slot>> = Arc::new(Box::new(Slot { value: 0 }));
            }""")
        assert detectors_named(report, "sync-unsync-write")

    def test_arc_sharing_is_a_fact_of_one_program(self):
        from repro.api import AnalysisSession
        session = AnalysisSession()
        shared = session.analyze(self._SLOT + """
            fn share() {
                let a: Arc<Slot> = Arc::new(Slot { value: 0 });
            }""")
        assert detectors_named(shared, "sync-unsync-write")
        private = session.analyze(self._SLOT + """
            fn local() {
                let c = Slot { value: 0 };
                c.set(1);
            }""")
        assert not detectors_named(private, "sync-unsync-write")


class TestReportApi:
    def test_dedup(self):
        report = check("""
            fn main() {
                let v = vec![1];
                let p = v.as_ptr();
                drop(v);
                unsafe { let x = *p; }
            }""")
        deduped = report.dedup()
        keys = [f.dedup_key() for f in deduped.findings]
        assert len(keys) == len(set(keys))

    def test_counts(self):
        report = check("""
            fn main() {
                let v = vec![1];
                let p = v.as_ptr();
                drop(v);
                unsafe { let x = *p; }
            }""")
        counts = report.counts()
        assert counts.get("use-after-free", 0) >= 1

    def test_render_mentions_location(self):
        report = check("""
            fn main() {
                let v = vec![1];
                let p = v.as_ptr();
                drop(v);
                unsafe { let x = *p; }
            }""")
        assert "use-after-free" in report.render()


class TestNullDeref:
    def test_definite_null_write(self):
        report = check("""
            fn main() {
                let p: *mut i32 = ptr::null_mut();
                unsafe { *p = 5; }
            }""")
        findings = detectors_named(report, "null-deref")
        assert findings and findings[0].metadata["definite"]

    def test_guarded_with_is_null_clean(self):
        report = check("""
            fn main() {
                let p: *mut i32 = ptr::null_mut();
                unsafe {
                    if !p.is_null() {
                        *p = 5;
                    }
                }
            }""")
        assert not detectors_named(report, "null-deref")

    def test_interprocedural_null_return(self):
        report = check("""
            fn lookup(found: bool) -> *mut i32 {
                ptr::null_mut()
            }
            fn main() {
                let p = lookup(false);
                unsafe { *p = 5; }
            }""")
        assert detectors_named(report, "null-deref")

    def test_possibly_null_is_warning(self):
        report = check("""
            fn main() {
                let x = 1;
                let good = &x as *const i32;
                let p = if x > 0 { good } else { ptr::null() };
                unsafe { let y = *p; }
            }""")
        findings = detectors_named(report, "null-deref")
        assert findings
        assert not findings[0].metadata["definite"]

    def test_valid_pointer_clean(self):
        report = check("""
            fn main() {
                let x = 1;
                let p = &x as *const i32;
                unsafe { let y = *p; }
            }""")
        assert not detectors_named(report, "null-deref")


class TestDanglingReturn:
    def test_return_pointer_to_local(self):
        report = check("""
            fn make() -> *const i32 {
                let x = 5;
                &x as *const i32
            }""")
        assert detectors_named(report, "dangling-return")

    def test_return_pointer_into_arg_clean(self):
        report = check("""
            fn passthrough(v: &Vec<i32>) -> *const i32 {
                v.as_ptr()
            }""")
        assert not detectors_named(report, "dangling-return")

    def test_return_heap_pointer_clean(self):
        report = check("""
            fn make() -> *mut u8 {
                unsafe { alloc(8) }
            }""")
        assert not detectors_named(report, "dangling-return")

    def test_non_pointer_return_ignored(self):
        report = check("fn f() -> i32 { let x = 5; x }")
        assert not detectors_named(report, "dangling-return")


#: The spawner's write after a try-lock, by shape: held only inside
#: `Ok(t) =>`, or unconditionally (the `Result` alone is held).
_TRY_WRITES = {
    "if_let": """
        if let Ok(t) = s.m.try_lock() {
            let p = &s.data as *const i32 as *mut i32;
            unsafe { *p = VALUE; }
        }""",
    "unconditional": """
        let t = s.m.try_lock();
        let p = &s.data as *const i32 as *mut i32;
        unsafe { *p = VALUE; }
        drop(t);""",
}


def _try_lock_program(shape: str, where: str) -> str:
    """A spawner racing a closure that writes under `s2.m.lock()`; the
    spawner's try-lock write is inline in `main` or in `try_bump`."""
    write = _TRY_WRITES[shape]
    helper, spawner_write = "", write.replace("VALUE", "2")
    if where == "callee":
        helper = ("fn try_bump(s: &G, i: i32) {"
                  + write.replace("VALUE", "i") + "\n}")
        spawner_write = "try_bump(&s, 2);"
    return f"""
        struct G {{ m: Mutex<i32>, data: i32 }}
        unsafe impl Sync for G {{}}
        {helper}
        fn main() {{
            let s = Arc::new(G {{ m: Mutex::new(0), data: 0 }});
            let s2 = Arc::clone(&s);
            let h = thread::spawn(move || {{
                let g = s2.m.lock().unwrap();
                let p = &s2.data as *const i32 as *mut i32;
                unsafe {{ *p = 1; }}
                drop(g);
            }});
            {spawner_write}
            h.join();
        }}"""


class TestDataRace:
    def _race_findings(self, template_name):
        from repro.corpus.inject import BUG_TEMPLATES
        report = check(BUG_TEMPLATES[template_name].render("X"))
        return detectors_named(report, "data-race")

    def _assert_provenance(self, finding):
        kinds = [f["kind"] for f in finding.provenance]
        assert "lockset" in kinds
        assert "summary-chain" in kinds
        assert "thread-escape" in kinds

    def test_race_unsync_counter_template(self):
        findings = self._race_findings("race_unsync_counter")
        assert findings, "unsynchronised cross-thread writes must be flagged"
        self._assert_provenance(findings[0])
        # The write goes through the helper: summary-chain is real.
        chain = next(f for f in findings[0].provenance
                     if f["kind"] == "summary-chain")
        assert len(chain["chain"]) > 1

    def test_race_arc_interior_mut_template(self):
        findings = self._race_findings("race_arc_interior_mut")
        assert findings
        self._assert_provenance(findings[0])

    def test_race_lock_wrong_mutex_template(self):
        findings = self._race_findings("race_lock_wrong_mutex")
        assert findings
        self._assert_provenance(findings[0])
        lockset = next(f for f in findings[0].provenance
                       if f["kind"] == "lockset")
        assert lockset["first"] and lockset["second"], \
            "both sides hold locks — just not a common one"

    def test_lock_protected_negative(self):
        from repro.corpus.benign import BENIGN_TEMPLATES
        report = check(BENIGN_TEMPLATES["locked_shared"]("X"))
        assert not report.findings

    def test_protection_through_helper_function(self):
        # The lock is acquired *inside* the helper; only the summary
        # engine's transitive lock effects make the write look protected.
        report = check("""
            struct G { m: Mutex<i32>, data: i32 }
            unsafe impl Sync for G {}
            fn locked_bump(s: &G, i: i32) {
                let g = s.m.lock().unwrap();
                let p = &s.data as *const i32 as *mut i32;
                unsafe { *p = *p + i; }
                drop(g);
            }
            fn main() {
                let s = Arc::new(G { m: Mutex::new(0), data: 0 });
                let s2 = Arc::clone(&s);
                let h = thread::spawn(move || { locked_bump(&s2, 1); });
                locked_bump(&s, 2);
                h.join();
            }""")
        assert not detectors_named(report, "data-race")

    def test_spawner_parameter_lock_keeps_no_arg_id(self):
        # `locked_touch` locks its first argument, which `run` can name
        # only as its own parameter: the spawner side keeps no `arg` lock
        # id for it (an `arg` id means nothing across threads), and the
        # race on the Arc-shared field is still reported.
        report = check("""
            struct C { value: i32 }
            unsafe impl Sync for C {}
            fn locked_touch(m: &Mutex<i32>, c: &C, i: i32) {
                let g = m.lock().unwrap();
                let p = &c.value as *const i32 as *mut i32;
                unsafe { *p = i; }
                drop(g);
            }
            fn run(m: &Mutex<i32>) {
                let c = Arc::new(C { value: 0 });
                let c2 = Arc::clone(&c);
                let h = thread::spawn(move || {
                    let p = &c2.value as *const i32 as *mut i32;
                    unsafe { *p = 1; }
                });
                locked_touch(m, &c, 2);
                h.join();
            }
            fn main() { let m = Mutex::new(0); run(&m); }""")
        [finding] = detectors_named(report, "data-race")
        lockset = next(f for f in finding.provenance
                       if f["kind"] == "lockset")
        assert all(lk[0] != "arg"
                   for lk in lockset["first"] + lockset["second"])
        # The note still names the lock the reader sees in the source.
        assert "the write in `locked_touch` holds " \
            "{`m` (spawner's parameter, not shared)}" in lockset["note"]
        chain = next(f for f in finding.provenance
                     if f["kind"] == "summary-chain")
        assert chain["other_chain"] == ["run", "locked_touch"]

    @pytest.mark.parametrize("where", ["inline", "callee"])
    @pytest.mark.parametrize("shape", sorted(_TRY_WRITES))
    def test_try_lock_protects_only_under_its_guard(self, shape, where):
        # The spawned closure writes under `s2.m.lock()`; the spawner
        # writes after `s.m.try_lock()`, in its own body or in a callee.
        # The try-lock protects the write only where its guard is out of
        # the `Result` (`if let Ok(t)`): the unconditional write also runs
        # when `try_lock` failed, and races.
        report = check(_try_lock_program(shape, where))
        assert bool(detectors_named(report, "data-race")) \
            == (shape == "unconditional")

    @pytest.mark.parametrize("shape", sorted(_TRY_WRITES))
    def test_interpreter_agrees_on_try_lock_shapes(self, shape):
        raced = [bool(interp(_try_lock_program(shape, "inline"),
                             seed=seed, quantum=quantum,
                             detect_races=True).races)
                 for seed in range(3) for quantum in (1, 2, 3)]
        if shape == "unconditional":
            assert any(raced), "no schedule witnessed the race"
        else:
            assert not any(raced)

    def test_deep_field_race_through_callee(self):
        # The spawner's write sits five fields deep, inside a callee: the
        # summary projection bound does not hide it from the spawner side.
        report = check("""
            struct E { v: i32 }
            struct D { e: E }
            struct C { d: D }
            struct B { c: C }
            struct A { b: B }
            unsafe impl Sync for A {}
            fn touch(a: &A, i: i32) {
                let p = &a.b.c.d.e.v as *const i32 as *mut i32;
                unsafe { *p = i; }
            }
            fn main() {
                let s = Arc::new(A { b: B { c: C { d: D {
                    e: E { v: 0 } } } } });
                let s2 = Arc::clone(&s);
                let h = thread::spawn(move || {
                    let p = &s2.b.c.d.e.v as *const i32 as *mut i32;
                    unsafe { *p = 1; }
                });
                touch(&s, 2);
                h.join();
            }""")
        [finding] = detectors_named(report, "data-race")
        shared = next(f for f in finding.provenance
                      if f["kind"] == "shared-location")
        assert shared["location"][2] == ["b", "c", "d", "e", "v"]

    def test_one_side_unlocked_race(self):
        report = check("""
            struct G { m: Mutex<i32>, data: i32 }
            unsafe impl Sync for G {}
            fn bump(s: &G, i: i32) {
                let p = &s.data as *const i32 as *mut i32;
                unsafe { *p = *p + i; }
            }
            fn main() {
                let s = Arc::new(G { m: Mutex::new(0), data: 0 });
                let s2 = Arc::clone(&s);
                let h = thread::spawn(move || {
                    let g = s2.m.lock().unwrap();
                    bump(&s2, 1);
                    drop(g);
                });
                bump(&s, 2);
                h.join();
            }""")
        assert detectors_named(report, "data-race")

    def test_guard_deref_writes_invisible(self):
        # Mutex<i32> used properly: writes through the guard are
        # structurally protected and produce nothing.
        report = check("""
            fn main() {
                let m = Arc::new(Mutex::new(0));
                let m2 = Arc::clone(&m);
                let h = thread::spawn(move || {
                    let mut g = m2.lock().unwrap();
                    *g += 1;
                });
                let mut g = m.lock().unwrap();
                *g += 1;
                drop(g);
                h.join();
            }""")
        assert not detectors_named(report, "data-race")

    def test_access_before_spawn_not_concurrent(self):
        report = check("""
            struct C { value: i32 }
            unsafe impl Sync for C {}
            fn touch(c: &C, i: i32) {
                let p = &c.value as *const i32 as *mut i32;
                unsafe { *p = i; }
            }
            fn main() {
                let c = Arc::new(C { value: 0 });
                let c2 = Arc::clone(&c);
                touch(&c, 2);
                let h = thread::spawn(move || { touch(&c2, 1); });
                h.join();
            }""")
        assert not detectors_named(report, "data-race")

    def test_no_spawn_no_findings(self):
        report = check("""
            struct C { value: i32 }
            unsafe impl Sync for C {}
            fn touch(c: &C, i: i32) {
                let p = &c.value as *const i32 as *mut i32;
                unsafe { *p = i; }
            }
            fn main() {
                let c = Arc::new(C { value: 0 });
                touch(&c, 1);
                touch(&c, 2);
            }""")
        assert not detectors_named(report, "data-race")

    def test_two_spawned_threads_race(self):
        report = check("""
            struct C { value: i32 }
            unsafe impl Sync for C {}
            fn touch(c: &C, i: i32) {
                let p = &c.value as *const i32 as *mut i32;
                unsafe { *p = i; }
            }
            fn main() {
                let c = Arc::new(C { value: 0 });
                let a = Arc::clone(&c);
                let b = Arc::clone(&c);
                let h1 = thread::spawn(move || { touch(&a, 1); });
                let h2 = thread::spawn(move || { touch(&b, 2); });
                h1.join();
                h2.join();
            }""")
        assert detectors_named(report, "data-race")
