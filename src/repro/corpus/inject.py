"""Bug-injection templates.

Each :class:`BugTemplate` emits a MiniRust snippet containing exactly one
instance of a studied bug pattern, parameterised by a unique name so that
detector findings can be matched back to injections.  The patterns mirror
the paper's figures and bug taxonomies:

=====================  =====================================  ============
template               paper source                           detector
=====================  =====================================  ============
double_lock_match      Figure 8 (TiKV)                        double-lock
double_lock_if         §6.1 "first lock is in an if"          double-lock
double_lock_callee     §7.2 inter-procedural case             double-lock
lock_order_pair        §6.1 conflicting orders                lock-order
condvar_no_notify      §6.1 Condvar bugs (8/10)               condvar
channel_no_sender      §6.1 channel bugs                      channel
once_recursion         §6.1 Once bug                          once-recursion
deadlock_abba_two_threads    §6.1 cross-thread ABBA           deadlock
deadlock_condvar_hold  §6.1 wait holding an unrelated lock    deadlock
deadlock_channel_recv  §6.1 recv holding the sender's lock    deadlock
uaf_drop_deref         Figure 7 shape                         use-after-free
uaf_escape_ffi         Figure 7 (CMS_sign)                    use-after-free
uaf_free_in_callee     §7.1 inter-procedural free             use-after-free
double_free_ptr_read   §5.1 ptr::read duplication             double-free
invalid_free_assign    Figure 6 (Redox)                       invalid-free
uninit_read            §5.1 uninitialised reads               uninit-read
overflow_unchecked     §5.1 17/21 buffer overflows            buffer-overflow
atomic_check_act       Figure 9 (Ethereum)                    atomicity-violation
sync_unsync_write      Figure 4 / Suggestion 8                sync-unsync-write
race_unsync_counter    §5.3 shared-memory races               data-race
race_arc_interior_mut  §5.3 Arc + interior mutability         data-race
race_lock_wrong_mutex  §6.1 wrong-lock protection             data-race
unsafe_leak_raw_return §5.3 raw pointer escapes safe API      unsafe-leak
unchecked_index_passthrough  §5.3 unvalidated interior input  unchecked-unsafe-input
panic_between_read_and_write §5.1 panic while ptr::read open   panic-safety
double_drop_in_drop_impl     §5.1 Drop impl double drop        bad-drop
uninit_pub_exposure          §5.3 uninit bytes escape pub API  uninit-exposure
=====================  =====================================  ============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.study.taxonomy import BugKind


@dataclass(frozen=True)
class BugTemplate:
    name: str
    kind: BugKind
    detector: str           # detector expected to report it
    render: Callable[[str], str] = None
    #: Whether the template provides a runnable entry for dynamic checking.
    dynamic_entry: bool = False


@dataclass
class InjectedBug:
    template: BugTemplate
    fn_name: str
    file_name: str
    project: str


# ---------------------------------------------------------------------------
# Template bodies.  Every template takes a unique suffix `u`.
# ---------------------------------------------------------------------------

def _double_lock_match(u: str) -> str:
    return f"""
struct Inner{u} {{ m: i32 }}
fn connect{u}(m: i32) -> Result<i32, i32> {{ Ok(m) }}
fn bug_{u}(client: &RwLock<Inner{u}>) {{
    match connect{u}(client.read().unwrap().m) {{
        Ok(x) => {{
            let mut inner = client.write().unwrap();
            inner.m = x;
        }}
        Err(e) => {{}}
    }};
}}
"""


def _double_lock_if(u: str) -> str:
    # Plain `if` conditions drop their temporaries before the block runs
    # (so `if *m.lock().unwrap() > 0` is NOT a double lock in stable Rust);
    # the paper's if-shaped double locks are the `if let` form, whose
    # scrutinee temporaries live to the end of the whole expression.
    return f"""
fn bug_{u}(counter: &Mutex<i32>) {{
    if let Ok(g) = counter.lock() {{
        let mut g2 = counter.lock().unwrap();
        *g2 = *g + 1;
    }}
}}
"""


def _double_lock_callee(u: str) -> str:
    return f"""
fn helper_{u}(m: &Mutex<i32>) -> i32 {{
    let g = m.lock().unwrap();
    *g
}}
fn bug_{u}(m: &Mutex<i32>) {{
    let g = m.lock().unwrap();
    let v = helper_{u}(m);
    print(v + *g);
}}
"""


def _lock_order_pair(u: str) -> str:
    return f"""
static LOCK_A_{u}: Mutex<i32> = Mutex::new(0);
static LOCK_B_{u}: Mutex<i32> = Mutex::new(0);
fn bug_{u}_first() {{
    let a = LOCK_A_{u}.lock().unwrap();
    let b = LOCK_B_{u}.lock().unwrap();
    print(*a + *b);
}}
fn bug_{u}_second() {{
    let b = LOCK_B_{u}.lock().unwrap();
    let a = LOCK_A_{u}.lock().unwrap();
    print(*a + *b);
}}
"""


def _condvar_no_notify(u: str) -> str:
    return f"""
fn bug_{u}() {{
    let state = Mutex::new(false);
    let cv = Condvar::new();
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*g2);
}}
"""


def _channel_no_sender(u: str) -> str:
    # The receiver's own `tx` stays alive and nothing sends on it, so
    # `recv` blocks forever; had every `Sender` been dropped, `recv`
    # would return `Err` instead.
    return f"""
fn bug_{u}() {{
    let (tx, rx) = channel();
    let value = rx.recv();
    match value {{
        Ok(v) => print(v),
        Err(e) => print(0),
    }};
}}
"""


def _once_recursion(u: str) -> str:
    return f"""
static INIT_{u}: Once = Once::new();
fn bug_{u}() {{
    INIT_{u}.call_once(|| {{
        INIT_{u}.call_once(|| {{
            print(1);
        }});
    }});
}}
"""


def _uaf_drop_deref(u: str) -> str:
    return f"""
fn bug_{u}() {{
    let buffer = vec![1, 2, 3];
    let p = buffer.as_ptr();
    drop(buffer);
    unsafe {{
        let x = *p;
        print(x);
    }}
}}
"""


def _uaf_escape_ffi(u: str) -> str:
    return f"""
struct Slice{u} {{ v: i32 }}
impl Slice{u} {{
    fn new(data: i32) -> Slice{u} {{ Slice{u} {{ v: data }} }}
    fn as_ptr(&self) -> *const Slice{u} {{
        &self.v as *const i32 as *const Slice{u}
    }}
}}
fn bug_{u}(data: Option<i32>) {{
    let p = match data {{
        Some(d) => Slice{u}::new(d).as_ptr(),
        None => ptr::null_mut(),
    }};
    unsafe {{
        let out = ffi_sign_{u}(p);
    }}
}}
"""


def _uaf_free_in_callee(u: str) -> str:
    # The free is two calls deep: bug_ moves the buffer into sink_, which
    # forwards it to sink_inner_, where it dies.  Only the summary
    # engine's may-drop chain sees that the pointer is dangling.
    return f"""
fn sink_inner_{u}(v: Vec<i32>) {{
    print(1);
}}
fn sink_{u}(v: Vec<i32>) {{
    sink_inner_{u}(v);
}}
fn bug_{u}() {{
    let buffer = vec![1, 2, 3];
    let p = buffer.as_ptr();
    sink_{u}(buffer);
    unsafe {{
        let x = *p;
        print(x);
    }}
}}
"""


def _double_free_ptr_read(u: str) -> str:
    return f"""
fn bug_{u}(v: Vec<i32>) {{
    let t1 = v;
    unsafe {{
        let t2 = ptr::read(&t1);
        drop(t2);
    }}
}}
"""


def _invalid_free_assign(u: str) -> str:
    return f"""
struct File{u} {{ buf: Vec<u8> }}
unsafe fn bug_{u}() {{
    let f = alloc(64) as *mut File{u};
    *f = File{u} {{ buf: vec![0u8; 64] }};
}}
"""


def _uninit_read(u: str) -> str:
    return f"""
unsafe fn bug_{u}() -> i32 {{
    let p = alloc(16) as *mut i32;
    let value = *p;
    value
}}
"""


def _overflow_unchecked(u: str) -> str:
    return f"""
fn bug_{u}() -> u8 {{
    let table = vec![0u8; 16];
    unsafe {{
        let x = table.get_unchecked(20);
        *x
    }}
}}
"""


def _atomic_check_act(u: str) -> str:
    return f"""
struct Seal{u} {{ proposed: AtomicBool }}
unsafe impl Sync for Seal{u} {{}}
impl Seal{u} {{
    fn bug_{u}(&self) -> i32 {{
        if self.proposed.load() {{ return 0; }}
        self.proposed.store(true);
        return 1;
    }}
}}
"""


def _sync_unsync_write(u: str) -> str:
    return f"""
struct Cell{u} {{ value: i32 }}
unsafe impl Sync for Cell{u} {{}}
impl Cell{u} {{
    fn bug_{u}(&self, i: i32) {{
        let p = &self.value as *const i32 as *mut i32;
        unsafe {{ *p = i; }}
    }}
}}
"""


def _null_deref(u: str) -> str:
    return f"""
fn lookup_{u}(found: bool) -> *mut i32 {{
    ptr::null_mut()
}}
fn bug_{u}() {{
    let entry = lookup_{u}(false);
    unsafe {{ *entry = 1; }}
}}
"""


def _race_unsync_counter(u: str) -> str:
    # The §5.3 staple: a struct force-marked Sync shared through Arc,
    # written from two threads through a helper with no lock anywhere.
    return f"""
struct Counter{u} {{ value: i32 }}
unsafe impl Sync for Counter{u} {{}}
fn touch_{u}(c: &Counter{u}, i: i32) {{
    let p = &c.value as *const i32 as *mut i32;
    unsafe {{ *p = *p + i; }}
}}
fn bug_{u}() {{
    let c = Arc::new(Counter{u} {{ value: 0 }});
    let c2 = Arc::clone(&c);
    let h = thread::spawn(move || {{
        touch_{u}(&c2, 1);
    }});
    touch_{u}(&c, 2);
    h.join();
}}
"""


def _race_arc_interior_mut(u: str) -> str:
    # Arc + UnsafeCell: both threads get a raw pointer into the same
    # allocation through UnsafeCell::get and write unsynchronised.
    return f"""
struct Shared{u} {{ cell: UnsafeCell<i32> }}
unsafe impl Sync for Shared{u} {{}}
fn bug_{u}() {{
    let s = Arc::new(Shared{u} {{ cell: UnsafeCell::new(0) }});
    let s2 = Arc::clone(&s);
    let h = thread::spawn(move || {{
        let p = s2.cell.get();
        unsafe {{ *p = *p + 1; }}
    }});
    let p = s.cell.get();
    unsafe {{ *p = *p + 2; }}
    h.join();
}}
"""


def _race_lock_wrong_mutex(u: str) -> str:
    # Both sides lock — but different mutexes, so the locksets at the
    # two writes are disjoint and the data field is unprotected.
    return f"""
struct State{u} {{ ma: Mutex<i32>, mb: Mutex<i32>, data: i32 }}
unsafe impl Sync for State{u} {{}}
fn bump_{u}(s: &State{u}, i: i32) {{
    let p = &s.data as *const i32 as *mut i32;
    unsafe {{ *p = *p + i; }}
}}
fn bug_{u}() {{
    let s = Arc::new(State{u} {{
        ma: Mutex::new(0), mb: Mutex::new(0), data: 0 }});
    let s2 = Arc::clone(&s);
    let h = thread::spawn(move || {{
        let g = s2.ma.lock().unwrap();
        bump_{u}(&s2, 1);
        drop(g);
    }});
    let g = s.mb.lock().unwrap();
    bump_{u}(&s, 2);
    drop(g);
    h.join();
}}
"""


def _unsafe_leak_raw_return(u: str) -> str:
    # §5.3: an interior-unsafe helper mints a raw pointer and a safe
    # *public* wrapper hands it straight to callers — the unsafe
    # obligation escapes its encapsulation boundary with no contract.
    return f"""
fn make_{u}() -> *mut u8 {{
    unsafe {{ alloc(16) }}
}}
pub fn bug_{u}() -> *mut u8 {{
    make_{u}()
}}
"""


def _unchecked_index_passthrough(u: str) -> str:
    # §5.3 improper input validation, split interprocedurally: the public
    # wrapper forwards a caller-controlled index into a private helper
    # whose unsafe pointer arithmetic never bounds-checks it.
    return f"""
struct Table{u} {{ data: *mut u8, len: usize }}
impl Table{u} {{
    fn get_raw(&self, index: usize) -> u8 {{
        unsafe {{ *self.data.add(index) }}
    }}
    pub fn bug_{u}(&self, index: usize) -> u8 {{
        self.get_raw(index)
    }}
}}
"""


def _recv_holding_lock(u: str) -> str:
    return f"""
static STATE_{u}: Mutex<i32> = Mutex::new(0);
fn consumer_{u}(rx: &Receiver<i32>) {{
    let g = STATE_{u}.lock().unwrap();
    let v = rx.recv().unwrap();
    print(*g + v);
}}
fn producer_{u}(tx: &Sender<i32>) {{
    let g = STATE_{u}.lock().unwrap();
    tx.send(*g);
}}
"""


def _deadlock_abba_two_threads(u: str) -> str:
    # The cross-thread ABBA deadlock, split so no single function (and no
    # single thread) shows both orders: the acquisitions live in a shared
    # helper taking both locks as arguments, and the two threads pass the
    # Arc-cloned mutexes in opposite orders.  Invisible to the per-thread
    # lock-order detector (the lock identities are heap allocation sites,
    # not statics, and each call site is consistent with itself) — only
    # the cross-thread lock graph sees the cycle.
    return f"""
fn grab_both_{u}(first: &Mutex<i32>, second: &Mutex<i32>) {{
    let a = first.lock().unwrap();
    let b = second.lock().unwrap();
    print(*a + *b);
}}
fn bug_{u}() {{
    let m1 = Arc::new(Mutex::new(1));
    let m2 = Arc::new(Mutex::new(2));
    let c1 = Arc::clone(&m1);
    let c2 = Arc::clone(&m2);
    let h = thread::spawn(move || {{
        grab_both_{u}(&c2, &c1);
    }});
    grab_both_{u}(&m1, &m2);
    h.join();
}}
"""


def _deadlock_condvar_hold(u: str) -> str:
    # §6.1 condvar-hold: the waiter parks holding an *unrelated* lock
    # (the wait only releases its own guard), and the one notifier must
    # take that lock before it can signal — the wakeup can never happen.
    return f"""
static META_{u}: Mutex<i32> = Mutex::new(0);
fn bug_{u}() {{
    let state = Arc::new(Mutex::new(0));
    let cv = Arc::new(Condvar::new());
    let state2 = Arc::clone(&state);
    let cv2 = Arc::clone(&cv);
    let h = thread::spawn(move || {{
        let m = META_{u}.lock().unwrap();
        let g = state2.lock().unwrap();
        cv2.notify_one();
        print(*m + *g);
    }});
    let meta = META_{u}.lock().unwrap();
    let g = state.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
    print(*meta + *g2);
    h.join();
}}
"""


def _deadlock_channel_recv(u: str) -> str:
    # §6.1 channel deadlock: the receiver blocks in ``recv()`` holding
    # the lock its only (cross-thread) sender must acquire before it can
    # send — the receiver waits for a message only a blocked thread can
    # produce.
    return f"""
static GATE_{u}: Mutex<i32> = Mutex::new(0);
fn bug_{u}() {{
    let (tx, rx) = channel();
    let h = thread::spawn(move || {{
        let g = GATE_{u}.lock().unwrap();
        tx.send(*g);
    }});
    let gate = GATE_{u}.lock().unwrap();
    let v = rx.recv().unwrap();
    print(*gate + v);
    h.join();
}}
"""


def _panic_between_read_and_write(u: str) -> str:
    # The CVE-class exception-safety shape: `ptr::read` duplicates the
    # value, a fallible operation runs, `ptr::write` restores.  On the
    # panic path the write-back never happens — unwinding drops both the
    # original (by scope obligation) and the duplicate: double free.
    return f"""
fn bug_{u}(flag: bool) -> i32 {{
    let mut slot = vec![1, 2, 3];
    unsafe {{
        let tmp = ptr::read(&slot);
        if flag {{
            panic!("mid-update");
        }}
        ptr::write(&mut slot, tmp);
    }}
    slot.len()
}}
"""


def _double_drop_in_drop_impl(u: str) -> str:
    # A destructor that `ptr::read`s a field and lets the duplicate
    # drop: after `fn drop` returns, the compiler's drop glue frees the
    # field a second time (the uid lives in the struct name, so the
    # finding's `Holder_<uid>::drop` key matches the injection).
    return f"""
struct Holder_{u} {{ data: Vec<i32> }}
impl Drop for Holder_{u} {{
    fn drop(&mut self) {{
        unsafe {{
            let dup = ptr::read(&self.data);
            drop(dup);
        }}
    }}
}}
fn make_holder_{u}() {{
    let h = Holder_{u} {{ data: vec![1, 2, 3] }};
}}
"""


def _uninit_pub_exposure(u: str) -> str:
    # A safe public constructor hands out a pointer to bytes it never
    # initialised — the uninitialised-buffer advisory shape.
    return f"""
pub fn bug_{u}() -> *mut i32 {{
    unsafe {{ alloc(16) as *mut i32 }}
}}
"""


BUG_TEMPLATES: Dict[str, BugTemplate] = {
    "double_lock_match": BugTemplate("double_lock_match", BugKind.BLOCKING,
                                     "double-lock", _double_lock_match),
    "double_lock_if": BugTemplate("double_lock_if", BugKind.BLOCKING,
                                  "double-lock", _double_lock_if),
    "double_lock_callee": BugTemplate("double_lock_callee", BugKind.BLOCKING,
                                      "double-lock", _double_lock_callee),
    "lock_order_pair": BugTemplate("lock_order_pair", BugKind.BLOCKING,
                                   "lock-order", _lock_order_pair),
    "condvar_no_notify": BugTemplate("condvar_no_notify", BugKind.BLOCKING,
                                     "condvar", _condvar_no_notify),
    "channel_no_sender": BugTemplate("channel_no_sender", BugKind.BLOCKING,
                                     "channel", _channel_no_sender),
    "once_recursion": BugTemplate("once_recursion", BugKind.BLOCKING,
                                  "once-recursion", _once_recursion),
    "recv_holding_lock": BugTemplate("recv_holding_lock", BugKind.BLOCKING,
                                     "channel", _recv_holding_lock),
    "deadlock_abba_two_threads": BugTemplate(
        "deadlock_abba_two_threads", BugKind.BLOCKING, "deadlock",
        _deadlock_abba_two_threads, dynamic_entry=True),
    "deadlock_condvar_hold": BugTemplate(
        "deadlock_condvar_hold", BugKind.BLOCKING, "deadlock",
        _deadlock_condvar_hold, dynamic_entry=True),
    "deadlock_channel_recv": BugTemplate(
        "deadlock_channel_recv", BugKind.BLOCKING, "deadlock",
        _deadlock_channel_recv, dynamic_entry=True),
    "uaf_drop_deref": BugTemplate("uaf_drop_deref", BugKind.MEMORY,
                                  "use-after-free", _uaf_drop_deref),
    "uaf_escape_ffi": BugTemplate("uaf_escape_ffi", BugKind.MEMORY,
                                  "use-after-free", _uaf_escape_ffi),
    "uaf_free_in_callee": BugTemplate("uaf_free_in_callee", BugKind.MEMORY,
                                      "use-after-free", _uaf_free_in_callee),
    "double_free_ptr_read": BugTemplate("double_free_ptr_read",
                                        BugKind.MEMORY, "double-free",
                                        _double_free_ptr_read),
    "invalid_free_assign": BugTemplate("invalid_free_assign", BugKind.MEMORY,
                                       "invalid-free", _invalid_free_assign),
    "uninit_read": BugTemplate("uninit_read", BugKind.MEMORY, "uninit-read",
                               _uninit_read),
    "null_deref": BugTemplate("null_deref", BugKind.MEMORY, "null-deref",
                              _null_deref),
    "overflow_unchecked": BugTemplate("overflow_unchecked", BugKind.MEMORY,
                                      "buffer-overflow", _overflow_unchecked),
    "atomic_check_act": BugTemplate("atomic_check_act", BugKind.NON_BLOCKING,
                                    "atomicity-violation", _atomic_check_act),
    "sync_unsync_write": BugTemplate("sync_unsync_write",
                                     BugKind.NON_BLOCKING,
                                     "sync-unsync-write", _sync_unsync_write),
    "race_unsync_counter": BugTemplate("race_unsync_counter",
                                       BugKind.NON_BLOCKING, "data-race",
                                       _race_unsync_counter,
                                       dynamic_entry=True),
    "race_arc_interior_mut": BugTemplate("race_arc_interior_mut",
                                         BugKind.NON_BLOCKING, "data-race",
                                         _race_arc_interior_mut,
                                         dynamic_entry=True),
    "race_lock_wrong_mutex": BugTemplate("race_lock_wrong_mutex",
                                         BugKind.NON_BLOCKING, "data-race",
                                         _race_lock_wrong_mutex,
                                         dynamic_entry=True),
    "unsafe_leak_raw_return": BugTemplate("unsafe_leak_raw_return",
                                          BugKind.MEMORY, "unsafe-leak",
                                          _unsafe_leak_raw_return),
    "unchecked_index_passthrough": BugTemplate(
        "unchecked_index_passthrough", BugKind.MEMORY,
        "unchecked-unsafe-input", _unchecked_index_passthrough),
    "panic_between_read_and_write": BugTemplate(
        "panic_between_read_and_write", BugKind.MEMORY, "panic-safety",
        _panic_between_read_and_write),
    "double_drop_in_drop_impl": BugTemplate(
        "double_drop_in_drop_impl", BugKind.MEMORY, "bad-drop",
        _double_drop_in_drop_impl),
    "uninit_pub_exposure": BugTemplate(
        "uninit_pub_exposure", BugKind.MEMORY, "uninit-exposure",
        _uninit_pub_exposure),
}

MEMORY_TEMPLATES = [t for t in BUG_TEMPLATES.values()
                    if t.kind is BugKind.MEMORY]
BLOCKING_TEMPLATES = [t for t in BUG_TEMPLATES.values()
                      if t.kind is BugKind.BLOCKING]
NONBLOCKING_TEMPLATES = [t for t in BUG_TEMPLATES.values()
                         if t.kind is BugKind.NON_BLOCKING]
