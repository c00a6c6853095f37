"""Benign code templates: the "rest of the application" around injected
bugs.

These exercise the same feature vocabulary the studied applications use —
containers, locking done right, interior-unsafe done right (§4.3's good
practices), FFI wrappers with checked inputs, worker threads — and must
produce **zero findings**, so they double as the false-positive meter for
the detector evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict


def _safe_counter(u: str) -> str:
    return f"""
struct Counter{u} {{ hits: i32, misses: i32 }}
impl Counter{u} {{
    fn new() -> Counter{u} {{ Counter{u} {{ hits: 0, misses: 0 }} }}
    fn record(&mut self, hit: bool) {{
        if hit {{ self.hits += 1; }} else {{ self.misses += 1; }}
    }}
    fn total(&self) -> i32 {{ self.hits + self.misses }}
}}
fn use_counter_{u}() -> i32 {{
    let mut c = Counter{u}::new();
    for i in 0..8 {{
        c.record(i % 2 == 0);
    }}
    c.total()
}}
"""


def _proper_locking(u: str) -> str:
    return f"""
fn transfer_{u}(from: &Mutex<i32>, amount: i32) -> i32 {{
    let balance = {{
        let mut g = from.lock().unwrap();
        *g -= amount;
        *g
    }};
    balance
}}
fn read_twice_{u}(m: &Mutex<i32>) -> i32 {{
    let first = {{
        let g = m.lock().unwrap();
        *g
    }};
    let second = {{
        let g = m.lock().unwrap();
        *g
    }};
    first + second
}}
"""


def _good_interior_unsafe(u: str) -> str:
    return f"""
struct RawBuf{u} {{ data: Vec<u8>, len: usize }}
impl RawBuf{u} {{
    fn new(size: usize) -> RawBuf{u} {{
        RawBuf{u} {{ data: vec![0u8; size], len: size }}
    }}
    fn read(&self, index: usize) -> u8 {{
        if index >= self.len {{
            return 0;
        }}
        unsafe {{ *self.data.get_unchecked(index) }}
    }}
}}
fn use_rawbuf_{u}() -> u8 {{
    let buf = RawBuf{u}::new(32);
    buf.read(5)
}}
"""


def _checked_interior_unsafe(u: str) -> str:
    # The no-bug mirror of `unchecked_index_passthrough`: the same raw
    # pointer arithmetic behind the same public wrapper shape, but the
    # helper bounds-checks the index before the unsafe region, so
    # `unchecked-unsafe-input` must stay silent (§4.3 good practice).
    return f"""
struct Window{u} {{ base: *mut u8, len: usize }}
impl Window{u} {{
    fn read_raw(&self, index: usize) -> u8 {{
        if index >= self.len {{
            return 0;
        }}
        unsafe {{ *self.base.add(index) }}
    }}
    pub fn read_{u}(&self, index: usize) -> u8 {{
        self.read_raw(index)
    }}
}}
"""


def _checked_ffi(u: str) -> str:
    return f"""
fn checked_call_{u}(input: Option<i32>) -> i32 {{
    match input {{
        Some(value) => {{
            if value > 0 {{
                unsafe {{ external_compute_{u}(value) }}
            }} else {{
                0
            }}
        }}
        None => 0,
    }}
}}
"""


def _worker_threads(u: str) -> str:
    return f"""
fn spawn_workers_{u}() -> i32 {{
    let total = Arc::new(Mutex::new(0));
    let t2 = Arc::clone(&total);
    let h = thread::spawn(move || {{
        let mut g = t2.lock().unwrap();
        *g += 10;
    }});
    h.join();
    let g = total.lock().unwrap();
    *g
}}
"""


def _locked_shared(u: str) -> str:
    # The no-race mirror of the race templates: the same raw-pointer
    # write pattern, but both threads take the *same* mutex around it, so
    # the lockset detector must stay silent.
    return f"""
struct Guarded{u} {{ m: Mutex<i32>, data: i32 }}
unsafe impl Sync for Guarded{u} {{}}
fn bump_guarded_{u}(s: &Guarded{u}, i: i32) {{
    let p = &s.data as *const i32 as *mut i32;
    unsafe {{ *p = *p + i; }}
}}
fn run_guarded_{u}() {{
    let s = Arc::new(Guarded{u} {{ m: Mutex::new(0), data: 0 }});
    let s2 = Arc::clone(&s);
    let h = thread::spawn(move || {{
        let g = s2.m.lock().unwrap();
        bump_guarded_{u}(&s2, 1);
        drop(g);
    }});
    let g = s.m.lock().unwrap();
    bump_guarded_{u}(&s, 2);
    drop(g);
    h.join();
}}
"""


def _channel_pipeline(u: str) -> str:
    return f"""
fn pipeline_{u}() -> i32 {{
    let (tx, rx) = channel();
    let h = thread::spawn(move || {{
        for i in 0..4 {{
            tx.send(i);
        }}
    }});
    let mut sum = 0;
    for i in 0..4 {{
        sum += rx.recv().unwrap();
    }}
    h.join();
    sum
}}
"""


def _handoff_lock_then_send(u: str) -> str:
    # The safe twin of `deadlock_channel_recv`: the spawned sender takes
    # the lock, sends, and the guard drops when the closure ends — while
    # the receiver recvs holding *nothing* and only locks afterwards.
    # No lock is held across the blocking recv, so the handoff always
    # completes.
    return f"""
static JOURNAL_{u}: Mutex<i32> = Mutex::new(0);
fn handoff_{u}() {{
    let (tx, rx) = channel();
    let h = thread::spawn(move || {{
        let g = JOURNAL_{u}.lock().unwrap();
        tx.send(*g);
    }});
    let v = rx.recv().unwrap();
    let g = JOURNAL_{u}.lock().unwrap();
    print(*g + v);
    h.join();
}}
"""


def _vec_pipeline(u: str) -> str:
    return f"""
fn process_{u}(items: &Vec<i32>) -> i32 {{
    let mut total = 0;
    for i in 0..items.len() {{
        total += items[i];
    }}
    total
}}
fn build_and_process_{u}() -> i32 {{
    let mut items = Vec::new();
    for i in 0..12 {{
        items.push(i * 2);
    }}
    process_{u}(&items)
}}
"""


def _state_machine(u: str) -> str:
    return f"""
enum State{u} {{ Idle, Running(i32), Done }}
fn step_{u}(state: State{u}) -> i32 {{
    match state {{
        State{u}::Idle => 0,
        State{u}::Running(progress) => progress,
        State{u}::Done => 100,
    }}
}}
fn drive_{u}() -> i32 {{
    let a = step_{u}(State{u}::Idle);
    let b = step_{u}(State{u}::Running(40));
    let c = step_{u}(State{u}::Done);
    a + b + c
}}
"""


def _cache_map(u: str) -> str:
    return f"""
fn cached_lookup_{u}() -> i32 {{
    let mut cache = HashMap::new();
    cache.insert("alpha", 1);
    cache.insert("beta", 2);
    let mut total = 0;
    if let Some(v) = cache.get("alpha") {{
        total += *v;
    }}
    match cache.get("gamma") {{
        Some(v) => total += *v,
        None => total += 0,
    }}
    total
}}
"""


def _refcounted_tree(u: str) -> str:
    return f"""
struct Node{u} {{ value: i32 }}
fn share_{u}() -> i32 {{
    let root = Rc::new(Node{u} {{ value: 7 }});
    let alias = Rc::clone(&root);
    root.value + alias.value
}}
"""


def _atomic_counter(u: str) -> str:
    return f"""
fn count_atomic_{u}() -> i32 {{
    let flag = AtomicBool::new(false);
    if !flag.compare_and_swap(false, true) {{
        return 1;
    }}
    return 0;
}}
"""


def _panic_guard_restores(u: str) -> str:
    # The no-bug mirror of `panic_between_read_and_write`: the guard
    # takes the value out and restores it before anything can panic, so
    # the duplication window is closed by the time the fallible check
    # runs — `panic-safety` (and the unwind path itself) must stay
    # clean.
    return f"""
fn guarded_update_{u}(flag: bool) -> i32 {{
    let mut slot = vec![1, 2, 3];
    unsafe {{
        ptr::write(&mut slot, ptr::read(&slot));
    }}
    if flag {{
        panic!("update rejected after restore");
    }}
    slot.len()
}}
"""


BENIGN_TEMPLATES: Dict[str, Callable[[str], str]] = {
    "safe_counter": _safe_counter,
    "proper_locking": _proper_locking,
    "good_interior_unsafe": _good_interior_unsafe,
    "checked_interior_unsafe": _checked_interior_unsafe,
    "checked_ffi": _checked_ffi,
    "worker_threads": _worker_threads,
    "locked_shared": _locked_shared,
    "channel_pipeline": _channel_pipeline,
    "handoff_lock_then_send": _handoff_lock_then_send,
    "vec_pipeline": _vec_pipeline,
    "state_machine": _state_machine,
    "cache_map": _cache_map,
    "refcounted_tree": _refcounted_tree,
    "atomic_counter": _atomic_counter,
    "panic_guard_restores": _panic_guard_restores,
}

#: Benign templates using channels / condvars — kept out of files that
#: carry channel/condvar bug injections so program-level detectors stay
#: meaningful.
CHANNEL_BENIGN = {"channel_pipeline", "handoff_lock_then_send"}
