"""Interpreter tests: language semantics, dynamic UB detection, and the
concurrency runtime."""

import pytest

from conftest import interp

from repro.mir.values import UBKind


class TestBasicEvaluation:
    def test_arithmetic_and_print(self):
        r = interp('fn main() { println!("{}", 2 + 3 * 4); }')
        assert r.ok and r.stdout == ["14"]

    def test_function_calls(self):
        r = interp("""
            fn square(x: i32) -> i32 { x * x }
            fn main() { println!("{}", square(7)); }""")
        assert r.stdout == ["49"]

    def test_recursion(self):
        r = interp("""
            fn fib(n: i32) -> i32 {
                if n < 2 { return n; }
                fib(n - 1) + fib(n - 2)
            }
            fn main() { println!("{}", fib(10)); }""")
        assert r.stdout == ["55"]

    def test_loops_and_mutation(self):
        r = interp("""
            fn main() {
                let mut total = 0;
                for i in 0..10 { total += i; }
                let mut n = total;
                while n > 40 { n -= 1; }
                println!("{} {}", total, n);
            }""")
        assert r.stdout == ["45 40"]

    def test_break_continue(self):
        r = interp("""
            fn main() {
                let mut acc = 0;
                for i in 0..10 {
                    if i % 2 == 0 { continue; }
                    if i > 6 { break; }
                    acc += i;
                }
                println!("{}", acc);
            }""")
        assert r.stdout == ["9"]   # 1 + 3 + 5

    def test_match_enum(self):
        r = interp("""
            enum Shape { Circle(i32), Square(i32), Empty }
            fn area(s: Shape) -> i32 {
                match s {
                    Shape::Circle(r) => 3 * r * r,
                    Shape::Square(w) => w * w,
                    Shape::Empty => 0,
                }
            }
            fn main() {
                println!("{} {} {}", area(Shape::Circle(2)),
                         area(Shape::Square(3)), area(Shape::Empty));
            }""")
        assert r.stdout == ["12 9 0"]

    def test_structs_and_methods(self):
        r = interp("""
            struct Rect { w: i32, h: i32 }
            impl Rect {
                fn new(w: i32, h: i32) -> Rect { Rect { w: w, h: h } }
                fn area(&self) -> i32 { self.w * self.h }
                fn grow(&mut self, by: i32) { self.w += by; }
            }
            fn main() {
                let mut r = Rect::new(3, 4);
                r.grow(1);
                println!("{}", r.area());
            }""")
        assert r.stdout == ["16"]

    def test_vec_operations(self):
        r = interp("""
            fn main() {
                let mut v = Vec::new();
                for i in 0..5 { v.push(i * i); }
                let mut total = 0;
                for i in 0..v.len() { total += v[i]; }
                println!("{} {} {}", v.len(), total, v.pop().unwrap());
            }""")
        assert r.stdout == ["5 30 16"]

    def test_hashmap(self):
        r = interp("""
            fn main() {
                let mut m = HashMap::new();
                m.insert("a", 1);
                m.insert("b", 2);
                let total = m.get("a").unwrap();
                println!("{} {}", *total, m.contains_key("c"));
            }""")
        assert r.stdout == ["1 false"]

    def test_option_methods(self):
        r = interp("""
            fn main() {
                let some: Option<i32> = Some(4);
                let nothing: Option<i32> = None;
                println!("{} {} {}", some.unwrap_or(0), nothing.unwrap_or(9),
                         some.is_some());
            }""")
        assert r.stdout == ["4 9 true"]

    def test_closures(self):
        r = interp("""
            fn main() {
                let base = 10;
                let add = move |x: i32| x + base;
                println!("{}", add(5));
            }""")
        assert r.stdout == ["15"]

    def test_box_rc(self):
        r = interp("""
            fn main() {
                let b = Box::new(21);
                let r = Rc::new(2);
                let r2 = Rc::clone(&r);
                println!("{}", *b * *r2);
            }""")
        assert r.stdout == ["42"]

    def test_statics(self):
        r = interp("""
            static BASE: i32 = 40;
            fn main() { println!("{}", BASE + 2); }""")
        assert r.stdout == ["42"]

    def test_string_ops(self):
        r = interp("""
            fn main() {
                let s = String::from("hello");
                println!("{} {}", s.len(), s);
            }""")
        assert r.stdout == ["5 hello"]


class TestPanics:
    def test_index_out_of_bounds_panics(self):
        r = interp("fn main() { let v = vec![1]; let x = v[3]; }")
        assert r.outcome == "panic"
        assert "out of bounds" in str(r.error)

    def test_unwrap_none_panics(self):
        r = interp("""
            fn main() {
                let n: Option<i32> = None;
                let x = n.unwrap();
            }""")
        assert r.outcome == "panic"

    def test_divide_by_zero_panics(self):
        r = interp("fn main() { let x = 1 / 0; }")
        assert r.outcome == "panic"

    def test_explicit_panic(self):
        r = interp('fn main() { panic!("boom"); }')
        assert r.outcome == "panic"
        assert "boom" in str(r.error)

    def test_assert_failure(self):
        r = interp("fn main() { assert!(1 == 2); }")
        assert r.outcome == "panic"

    def test_refcell_double_borrow_mut_panics(self):
        r = interp("""
            fn main() {
                let cell = RefCell::new(1);
                let a = cell.borrow_mut();
                let b = cell.borrow_mut();
            }""")
        assert r.outcome == "panic"
        assert "Borrow" in str(r.error)


class TestDynamicUB:
    def test_use_after_free(self):
        r = interp("""
            fn main() {
                let v = vec![1, 2, 3];
                let p = v.as_ptr();
                drop(v);
                unsafe { let x = *p; }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.USE_AFTER_FREE

    def test_double_free_via_ptr_read(self):
        r = interp("""
            fn main() {
                let b = Box::new(5);
                unsafe {
                    let b2 = ptr::read(&b);
                    drop(b2);
                }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.DOUBLE_FREE

    def test_uninit_read(self):
        r = interp("""
            fn main() {
                unsafe {
                    let p = alloc(8) as *mut i32;
                    let x = *p;
                }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.UNINIT_READ

    def test_invalid_free_assignment(self):
        r = interp("""
            struct FILE { buf: Vec<u8> }
            fn main() {
                unsafe {
                    let f = alloc(64) as *mut FILE;
                    *f = FILE { buf: vec![0u8; 8] };
                }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.INVALID_FREE

    def test_get_unchecked_oob(self):
        r = interp("""
            fn main() {
                let v = vec![1, 2];
                unsafe { let x = *v.get_unchecked(9); }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.OUT_OF_BOUNDS

    def test_null_deref(self):
        r = interp("""
            fn main() {
                let p: *const i32 = ptr::null();
                unsafe { let x = *p; }
            }""")
        assert r.outcome == "ub"
        assert r.error.kind is UBKind.NULL_DEREF

    def test_dangling_stack_pointer(self):
        r = interp("""
            fn main() {
                let p = {
                    let x = 5;
                    &x as *const i32
                };
                unsafe { let y = *p; }
            }""")
        assert r.outcome == "ub"

    def test_ptr_write_then_read_ok(self):
        r = interp("""
            fn main() {
                unsafe {
                    let p = alloc(8) as *mut i32;
                    ptr::write(p, 11);
                    println!("{}", *p);
                }
            }""")
        assert r.ok and r.stdout == ["11"]


class TestConcurrency:
    def test_spawn_join(self):
        r = interp("""
            fn main() {
                let data = Arc::new(Mutex::new(0));
                let d2 = Arc::clone(&data);
                let h = thread::spawn(move || {
                    let mut g = d2.lock().unwrap();
                    *g += 5;
                });
                h.join();
                println!("{}", *data.lock().unwrap());
            }""")
        assert r.ok and r.stdout == ["5"]

    def test_many_workers(self):
        r = interp("""
            fn main() {
                let total = Arc::new(Mutex::new(0));
                let t1 = Arc::clone(&total);
                let t2 = Arc::clone(&total);
                let h1 = thread::spawn(move || {
                    let mut g = t1.lock().unwrap();
                    *g += 1;
                });
                let h2 = thread::spawn(move || {
                    let mut g = t2.lock().unwrap();
                    *g += 2;
                });
                h1.join();
                h2.join();
                println!("{}", *total.lock().unwrap());
            }""")
        assert r.stdout == ["3"]

    def test_self_double_lock_deadlocks(self):
        r = interp("""
            fn main() {
                let m = Mutex::new(0);
                let a = m.lock().unwrap();
                let b = m.lock().unwrap();
            }""")
        assert r.outcome == "deadlock"

    def test_figure8_deadlocks_dynamically(self):
        r = interp("""
            struct Inner { m: i32 }
            fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
            fn main() {
                let client = RwLock::new(Inner { m: 5 });
                match connect(client.read().unwrap().m) {
                    Ok(x) => {
                        let mut inner = client.write().unwrap();
                        inner.m = x;
                    }
                    Err(e) => {}
                };
            }""")
        assert r.outcome == "deadlock"

    def test_figure8_fixed_runs(self):
        r = interp("""
            struct Inner { m: i32 }
            fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
            fn main() {
                let client = RwLock::new(Inner { m: 5 });
                let result = connect(client.read().unwrap().m);
                match result {
                    Ok(x) => {
                        let mut inner = client.write().unwrap();
                        inner.m = x;
                    }
                    Err(e) => {}
                };
                println!("{}", client.read().unwrap().m);
            }""")
        assert r.ok and r.stdout == ["5"]

    def test_condvar_signalling(self):
        r = interp("""
            fn main() {
                let flag = Arc::new(Mutex::new(false));
                let cv = Arc::new(Condvar::new());
                let f2 = Arc::clone(&flag);
                let c2 = Arc::clone(&cv);
                let h = thread::spawn(move || {
                    let mut g = f2.lock().unwrap();
                    *g = true;
                    c2.notify_one();
                });
                let mut g = flag.lock().unwrap();
                while !*g {
                    g = cv.wait(g).unwrap();
                }
                println!("done");
                h.join();
            }""")
        assert r.ok and r.stdout == ["done"]

    def test_condvar_missed_signal_deadlocks(self):
        r = interp("""
            fn main() {
                let m = Mutex::new(false);
                let cv = Condvar::new();
                let g = m.lock().unwrap();
                let g2 = cv.wait(g).unwrap();
            }""")
        assert r.outcome == "deadlock"

    def test_channel_roundtrip(self):
        r = interp("""
            fn main() {
                let (tx, rx) = channel();
                let h = thread::spawn(move || {
                    for i in 0..4 { tx.send(i * 10); }
                });
                let mut total = 0;
                for i in 0..4 { total += rx.recv().unwrap(); }
                h.join();
                println!("{}", total);
            }""")
        assert r.stdout == ["60"]

    def test_recv_after_senders_dropped_errors(self):
        r = interp("""
            fn main() {
                let (tx, rx) = channel();
                drop(tx);
                match rx.recv() {
                    Ok(v) => println!("got {}", v),
                    Err(e) => println!("closed"),
                };
            }""")
        assert r.ok and r.stdout == ["closed"]

    def test_bounded_channel_blocks_until_recv(self):
        r = interp("""
            fn main() {
                let (tx, rx) = sync_channel(1);
                let h = thread::spawn(move || {
                    tx.send(1);
                    tx.send(2);
                    tx.send(3);
                });
                let mut total = 0;
                for i in 0..3 { total += rx.recv().unwrap(); }
                h.join();
                println!("{}", total);
            }""")
        assert r.stdout == ["6"]

    def test_thread_panic_poisons_mutex(self):
        r = interp("""
            fn main() {
                let data = Arc::new(Mutex::new(0));
                let d2 = Arc::clone(&data);
                let h = thread::spawn(move || {
                    let g = d2.lock().unwrap();
                    panic!("dying with the lock");
                });
                h.join();
                match data.lock() {
                    Ok(g) => println!("ok"),
                    Err(e) => println!("poisoned"),
                };
            }""")
        assert r.ok and r.stdout == ["poisoned"]

    def test_once_runs_once(self):
        r = interp("""
            static INIT: Once = Once::new();
            fn main() {
                INIT.call_once(|| { println!("init"); });
                INIT.call_once(|| { println!("init"); });
                println!("done");
            }""")
        assert r.stdout == ["init", "done"]

    def test_once_recursion_deadlocks(self):
        r = interp("""
            static INIT: Once = Once::new();
            fn main() {
                INIT.call_once(|| {
                    INIT.call_once(|| { println!("inner"); });
                });
            }""")
        assert r.outcome == "deadlock"

    def test_atomics(self):
        r = interp("""
            fn main() {
                let flag = AtomicBool::new(false);
                let first = !flag.compare_and_swap(false, true);
                let second = !flag.compare_and_swap(false, true);
                println!("{} {}", first, second);
            }""")
        assert r.stdout == ["true false"]

    def test_race_detection(self):
        r = interp("""
            struct Shared { value: i32 }
            unsafe impl Sync for Shared {}
            impl Shared {
                fn set(&self, i: i32) {
                    let p = &self.value as *const i32 as *mut i32;
                    unsafe { *p = i; }
                }
            }
            fn main() {
                let s = Arc::new(Shared { value: 0 });
                let s2 = Arc::clone(&s);
                let h = thread::spawn(move || { s2.set(1); });
                s.set(2);
                h.join();
            }""", detect_races=True, quantum=2)
        assert r.races, "unsynchronised cross-thread writes must be flagged"

    def test_locked_writes_not_raced(self):
        r = interp("""
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
            }""", detect_races=True, quantum=2)
        assert not r.races


class TestSchedules:
    def test_deterministic_for_fixed_seed(self):
        src = """
            fn main() {
                let total = Arc::new(Mutex::new(0));
                let t2 = Arc::clone(&total);
                let h = thread::spawn(move || {
                    let mut g = t2.lock().unwrap();
                    *g += 1;
                });
                h.join();
                println!("{}", *total.lock().unwrap());
            }"""
        a = interp(src, seed=3)
        b = interp(src, seed=3)
        assert a.outcome == b.outcome and a.stdout == b.stdout

    def test_step_limit(self):
        r = interp("fn main() { loop { let x = 1; } }", max_steps=5000)
        assert r.outcome == "limit"


class TestRefCellAcrossThreads:
    """The paper's §6.2: four studied bugs are RefCell double-borrows
    across threads, caught by Rust's runtime checks — and by ours."""

    def test_cross_thread_borrow_mut_panics(self):
        r = interp("""
            struct Holder { cell: RefCell<i32> }
            unsafe impl Sync for Holder {}
            fn main() {
                let h = Arc::new(Holder { cell: RefCell::new(0) });
                let h2 = Arc::clone(&h);
                let t = thread::spawn(move || {
                    let mut a = h2.cell.borrow_mut();
                    *a += 1;
                    thread::yield_now();
                    *a += 1;
                });
                let mut b = h.cell.borrow_mut();
                *b += 10;
                drop(b);
                t.join();
            }""", quantum=1, seed=2)
        # With quantum 1 both threads interleave inside the borrows: one of
        # them must hit BorrowMutError (possibly the spawned one, making
        # join observe a panic) — or, under a lucky schedule, both succeed.
        assert r.outcome in ("ok", "panic")

    def test_same_thread_borrow_then_borrow_mut_panics(self):
        r = interp("""
            fn main() {
                let cell = RefCell::new(1);
                let shared = cell.borrow();
                let exclusive = cell.borrow_mut();
            }""")
        assert r.outcome == "panic"
        assert "Borrow" in str(r.error)

    def test_sequential_borrows_fine(self):
        r = interp("""
            fn main() {
                let cell = RefCell::new(1);
                {
                    let mut w = cell.borrow_mut();
                    *w = 5;
                }
                let r = cell.borrow();
                println!("{}", *r);
            }""")
        assert r.ok and r.stdout == ["5"]


class TestMemSwapReplace:
    def test_mem_replace(self):
        r = interp("""
            fn main() {
                let mut v = vec![1, 2];
                let old = mem::replace(&mut v, vec![9]);
                println!("{} {}", old.len(), v.len());
            }""")
        assert r.ok and r.stdout == ["2 1"]

    def test_mem_swap(self):
        r = interp("""
            fn main() {
                let mut a = 1;
                let mut b = 2;
                mem::swap(&mut a, &mut b);
                println!("{} {}", a, b);
            }""")
        assert r.ok and r.stdout == ["2 1"]


class TestLockRuntimeEdgeCases:
    """Regression tests for the code-review findings."""

    def test_reentrant_read_guards_counted(self):
        # Dropping one of two same-thread read guards must NOT release
        # the lock: a subsequent write acquisition still self-deadlocks.
        r = interp("""
            fn main() {
                let l = RwLock::new(1);
                let a = l.read().unwrap();
                let b = l.read().unwrap();
                drop(a);
                let w = l.write().unwrap();
            }""")
        assert r.outcome == "deadlock"

    def test_both_read_guards_dropped_allows_write(self):
        r = interp("""
            fn main() {
                let l = RwLock::new(1);
                let a = l.read().unwrap();
                let b = l.read().unwrap();
                drop(a);
                drop(b);
                let mut w = l.write().unwrap();
                *w = 2;
                println!("{}", *w);
            }""")
        assert r.ok and r.stdout == ["2"]

    def test_vecdeque_fifo(self):
        r = interp("""
            fn main() {
                let mut q = VecDeque::new();
                q.push_back(1);
                q.push_back(2);
                q.push_back(3);
                println!("{} {}", q.pop_front().unwrap(),
                         q.pop_back().unwrap());
            }""")
        assert r.ok and r.stdout == ["1 3"]

    def test_blocking_static_initializer_reports(self):
        from repro.driver import compile_source
        from repro.mir.interp import run_program
        src = """
        static BAD: Mutex<i32> = Mutex::new(helper());
        fn helper() -> i32 {
            let (tx, rx) = channel();
            drop(tx);
            loop { let x = 1; }
        }
        fn main() {}
        """
        from repro.mir.interp import ScheduleConfig
        result = run_program(compile_source(src).program,
                             schedule=ScheduleConfig(max_steps=5000))
        # Must terminate with an error, not hang.
        assert result.outcome in ("ub", "panic", "deadlock", "limit")


class TestLanguageEdges:
    def test_shadowing(self):
        r = interp("""
            fn main() {
                let x = 1;
                let x = x + 1;
                let x = x * 10;
                println!("{}", x);
            }""")
        assert r.ok and r.stdout == ["20"]

    def test_nested_enum_match(self):
        r = interp("""
            fn main() {
                let v: Option<Option<i32>> = Some(Some(5));
                let out = match v {
                    Some(Some(n)) => n,
                    Some(None) => -1,
                    None => -2,
                };
                println!("{}", out);
            }""")
        assert r.ok and r.stdout == ["5"]

    def test_tuple_destructuring_and_index(self):
        r = interp("""
            fn main() {
                let pair = (3, 4);
                let (a, b) = pair;
                println!("{} {} {}", a, b, pair.0 + pair.1);
            }""")
        assert r.ok and r.stdout == ["3 4 7"]

    def test_block_expression_value(self):
        r = interp("""
            fn main() {
                let x = {
                    let a = 2;
                    let b = 3;
                    a * b
                };
                println!("{}", x);
            }""")
        assert r.ok and r.stdout == ["6"]

    def test_early_return_in_nested_scope(self):
        r = interp("""
            fn pick(flag: bool) -> i32 {
                let v = vec![1, 2, 3];
                if flag {
                    return v.len();
                }
                0
            }
            fn main() {
                println!("{} {}", pick(true), pick(false));
            }""")
        assert r.ok and r.stdout == ["3 0"]

    def test_send_on_full_bounded_channel_deadlocks_without_receiver(self):
        # The paper's §6.1: "one bug ... caused by a thread being blocked
        # when sending to a full channel".  Dynamic-only: the static
        # channel detector does not model buffer capacities.
        r = interp("""
            fn main() {
                let (tx, rx) = sync_channel(1);
                tx.send(1);
                tx.send(2);
            }""")
        assert r.outcome == "deadlock"


class TestMutableStatics:
    """Table 4's "Global" sharing class: mutable statics accessed in
    unsafe code, shared across functions (and threads)."""

    def test_static_mut_shared_across_functions(self):
        r = interp("""
            static mut COUNTER: i32 = 0;
            fn bump() {
                unsafe { COUNTER += 1; }
            }
            fn main() {
                bump();
                bump();
                unsafe { println!("{}", COUNTER); }
            }""")
        assert r.ok and r.stdout == ["2"]

    def test_static_mut_shared_across_threads(self):
        r = interp("""
            static mut FLAG: i32 = 0;
            fn main() {
                let h = thread::spawn(move || {
                    unsafe { FLAG = 7; }
                });
                h.join();
                unsafe { println!("{}", FLAG); }
            }""")
        assert r.ok and r.stdout == ["7"]

    def test_static_mutex_shared_across_threads(self):
        r = interp("""
            static TOTAL: Mutex<i32> = Mutex::new(0);
            fn main() {
                let h = thread::spawn(move || {
                    let mut g = TOTAL.lock().unwrap();
                    *g += 2;
                });
                h.join();
                println!("{}", *TOTAL.lock().unwrap());
            }""")
        assert r.ok and r.stdout == ["2"]


class TestForeignCalls:
    """Foreign code is not modelled: computing with the result of an
    ``extern`` function ends the run with an outcome, never a raw
    Python error."""

    def test_arithmetic_on_a_foreign_result_ends_the_run(self):
        r = interp("""
            extern "C" { fn c_get(x: i32) -> i32; }
            fn main() { let v = unsafe { c_get(1) }; let w = v + 1; print(w); }
            """)
        assert r.outcome == "limit"
        assert "`c_get`" in str(r.error)
        assert r.stdout == []

    def test_branching_on_a_foreign_result_ends_the_run(self):
        r = interp("""
            extern "C" { fn c_get(x: i32) -> i32; }
            fn main() {
                let v = unsafe { c_get(1) };
                if v > 0 { print(1); }
            }""")
        assert r.outcome == "limit" and "`c_get`" in str(r.error)

    def test_an_unresolved_callee_is_foreign_code(self):
        r = interp("""
            fn main() { let v = ext_get(1); let w = v + 1; print(w); }
            """)
        assert r.outcome == "limit"
        assert "`ext_get`" in str(r.error)
        assert r.stdout == []
        r = interp("fn main() { ext_put(1); let _v = ext_get(2); print(3); }")
        assert r.ok and r.stdout == ["3"]

    def test_unit_and_unused_foreign_calls_run_on(self):
        r = interp("""
            extern "C" { fn c_put(x: i32); fn c_get(x: i32) -> i32; }
            fn main() {
                unsafe { c_put(1) };
                let _v = unsafe { c_get(2) };
                print(3);
            }""")
        assert r.ok and r.stdout == ["3"]
