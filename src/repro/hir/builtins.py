"""Built-in function and method signatures, with semantic operation tags.

The detectors and the interpreter do not care about the full std library —
they care about a vocabulary of *semantically meaningful operations*: lock
acquisitions, channel operations, raw-pointer reads/writes, allocation,
spawning.  :class:`BuiltinOp` is that vocabulary; resolution maps a call
site to a :class:`FuncRef` carrying the tag plus the inferred result type.

This mirrors how the paper's detectors special-case ``lock()`` / ``read()``
/ ``write()`` call sites (§7.2) and ``ptr``/``mem`` intrinsics (§5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.lang.types import BOOL, UNIT, UNKNOWN, USIZE, Ty, TyKind


class BuiltinOp(enum.Enum):
    # Construction
    BOX_NEW = "Box::new"
    RC_NEW = "Rc::new"
    ARC_NEW = "Arc::new"
    VEC_NEW = "Vec::new"
    VEC_WITH_CAPACITY = "Vec::with_capacity"
    VEC_MACRO = "vec!"
    MUTEX_NEW = "Mutex::new"
    RWLOCK_NEW = "RwLock::new"
    REFCELL_NEW = "RefCell::new"
    CELL_NEW = "Cell::new"
    UNSAFECELL_NEW = "UnsafeCell::new"
    CONDVAR_NEW = "Condvar::new"
    ONCE_NEW = "Once::new"
    ATOMIC_NEW = "Atomic::new"
    STRING_NEW = "String::new"
    HASHMAP_NEW = "HashMap::new"
    CHANNEL_NEW = "mpsc::channel"
    SYNC_CHANNEL_NEW = "mpsc::sync_channel"
    SOME = "Some"
    NONE = "None"
    OK = "Ok"
    ERR = "Err"

    # Option / Result
    UNWRAP = "unwrap"
    EXPECT = "expect"
    IS_SOME = "is_some"
    IS_NONE = "is_none"
    IS_OK = "is_ok"
    IS_ERR = "is_err"
    MAP = "map"
    MAP_OR = "map_or"
    AND_THEN = "and_then"
    UNWRAP_OR = "unwrap_or"
    OK_METHOD = "ok"
    TAKE = "take"

    # Clone & conversion
    CLONE = "clone"
    ARC_CLONE = "Arc::clone"
    RC_CLONE = "Rc::clone"
    TO_STRING = "to_string"
    INTO = "into"
    AS_REF = "as_ref"
    AS_MUT = "as_mut"
    DEREF = "deref"
    DOWNGRADE = "downgrade"
    UPGRADE = "upgrade"

    # Vec / slice
    VEC_PUSH = "push"
    VEC_POP = "pop"
    VEC_LEN = "len"
    VEC_IS_EMPTY = "is_empty"
    VEC_GET = "get"
    VEC_GET_MUT = "get_mut"
    VEC_GET_UNCHECKED = "get_unchecked"
    VEC_GET_UNCHECKED_MUT = "get_unchecked_mut"
    VEC_INSERT = "insert"
    VEC_REMOVE = "remove"
    VEC_CLEAR = "clear"
    VEC_AS_PTR = "as_ptr"
    VEC_AS_MUT_PTR = "as_mut_ptr"
    VEC_SET_LEN = "set_len"
    VEC_FROM_RAW_PARTS = "Vec::from_raw_parts"
    VEC_ITER = "iter"
    VEC_CONTAINS = "contains"
    VEC_EXTEND = "extend"
    SLICE_COPY_FROM_SLICE = "copy_from_slice"
    VEC_CAPACITY = "capacity"
    VEC_RESERVE = "reserve"
    VEC_TRUNCATE = "truncate"
    FIRST = "first"
    LAST = "last"

    # HashMap
    MAP_INSERT = "map_insert"
    MAP_GET = "map_get"
    MAP_REMOVE = "map_remove"
    MAP_CONTAINS_KEY = "contains_key"
    MAP_ENTRY = "entry"

    # Locking (paper §6.1)
    MUTEX_LOCK = "Mutex::lock"
    MUTEX_TRY_LOCK = "Mutex::try_lock"
    RWLOCK_READ = "RwLock::read"
    RWLOCK_WRITE = "RwLock::write"
    RWLOCK_TRY_READ = "RwLock::try_read"
    RWLOCK_TRY_WRITE = "RwLock::try_write"
    REFCELL_BORROW = "RefCell::borrow"
    REFCELL_BORROW_MUT = "RefCell::borrow_mut"
    GUARD_UNLOCK = "drop_guard"

    # Condvar / Once (paper §6.1)
    CONDVAR_WAIT = "Condvar::wait"
    CONDVAR_NOTIFY_ONE = "Condvar::notify_one"
    CONDVAR_NOTIFY_ALL = "Condvar::notify_all"
    ONCE_CALL_ONCE = "Once::call_once"

    # Channels (paper §6.1)
    CHANNEL_SEND = "send"
    CHANNEL_RECV = "recv"
    CHANNEL_TRY_RECV = "try_recv"

    # Atomics (paper §6.2)
    ATOMIC_LOAD = "load"
    ATOMIC_STORE = "store"
    ATOMIC_CAS = "compare_and_swap"
    ATOMIC_CAE = "compare_exchange"
    ATOMIC_FETCH_ADD = "fetch_add"
    ATOMIC_FETCH_SUB = "fetch_sub"
    ATOMIC_SWAP = "swap"

    # Cell
    CELL_GET = "Cell::get"
    CELL_SET = "Cell::set"
    UNSAFECELL_GET = "UnsafeCell::get"

    # Threads
    THREAD_SPAWN = "thread::spawn"
    THREAD_JOIN = "join"
    THREAD_SLEEP = "thread::sleep"
    THREAD_YIELD = "thread::yield_now"

    # Raw memory (paper §5.1)
    PTR_READ = "ptr::read"
    PTR_WRITE = "ptr::write"
    PTR_COPY = "ptr::copy"
    PTR_COPY_NONOVERLAPPING = "ptr::copy_nonoverlapping"
    PTR_NULL = "ptr::null"
    PTR_NULL_MUT = "ptr::null_mut"
    PTR_OFFSET = "offset"
    PTR_ADD = "add"
    PTR_IS_NULL = "is_null"
    ALLOC = "alloc"
    DEALLOC = "dealloc"
    MEM_DROP = "mem::drop"
    MEM_FORGET = "mem::forget"
    MEM_REPLACE = "mem::replace"
    MEM_SWAP = "mem::swap"
    MEM_TRANSMUTE = "mem::transmute"
    MEM_UNINITIALIZED = "mem::uninitialized"
    MEM_ZEROED = "mem::zeroed"
    MEM_SIZE_OF = "mem::size_of"
    MAYBE_UNINIT = "MaybeUninit::uninit"
    MAYBE_UNINIT_ASSUME = "assume_init"

    # Iteration support
    ITER_NEXT = "Iterator::next"

    # I/O & misc
    PRINT = "print"
    PANIC = "panic"
    ASSERT = "assert"
    FORMAT = "format"
    STRING_FROM = "String::from"
    FROM_UTF8_UNCHECKED = "String::from_utf8_unchecked"
    UNIMPLEMENTED = "unimplemented"
    PROCESS_EXIT = "process::exit"
    GETMNTENT = "libc::getmntent"       # the paper's §6.2 OS-resource example
    FFI = "ffi_call"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


class FuncKind(enum.Enum):
    USER = "user"
    BUILTIN = "builtin"
    CLOSURE = "closure"
    UNKNOWN = "unknown"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


@dataclass(slots=True, unsafe_hash=True)
class FuncRef:
    """Resolved callee of a MIR ``Call`` terminator."""

    kind: FuncKind
    name: str
    builtin_op: Optional[BuiltinOp] = None
    user_fn: Optional[str] = None       # key into Program.functions
    is_unsafe: bool = False             # unsafe fn (needs unsafe block)

    @staticmethod
    def builtin(op: BuiltinOp, name: str = "", is_unsafe: bool = False) -> "FuncRef":
        return FuncRef(FuncKind.BUILTIN, name or op.value, op,
                       is_unsafe=is_unsafe)

    @staticmethod
    def user(key: str, is_unsafe: bool = False) -> "FuncRef":
        return FuncRef(FuncKind.USER, key, user_fn=key, is_unsafe=is_unsafe)

    @staticmethod
    def closure(key: str) -> "FuncRef":
        return FuncRef(FuncKind.CLOSURE, key, user_fn=key)

    @staticmethod
    def unknown(name: str) -> "FuncRef":
        return FuncRef(FuncKind.UNKNOWN, name)

    def __str__(self) -> str:
        return self.name


# Methods considered unsafe to call (require an unsafe block in Rust).
_UNSAFE_BUILTIN_OPS = {
    BuiltinOp.VEC_GET_UNCHECKED, BuiltinOp.VEC_GET_UNCHECKED_MUT,
    BuiltinOp.VEC_SET_LEN, BuiltinOp.VEC_FROM_RAW_PARTS,
    BuiltinOp.PTR_READ, BuiltinOp.PTR_WRITE, BuiltinOp.PTR_COPY,
    BuiltinOp.PTR_COPY_NONOVERLAPPING, BuiltinOp.PTR_OFFSET, BuiltinOp.PTR_ADD,
    BuiltinOp.ALLOC, BuiltinOp.DEALLOC, BuiltinOp.MEM_TRANSMUTE,
    BuiltinOp.MEM_UNINITIALIZED, BuiltinOp.MEM_ZEROED,
    BuiltinOp.MAYBE_UNINIT_ASSUME, BuiltinOp.FROM_UTF8_UNCHECKED,
    BuiltinOp.UNSAFECELL_GET, BuiltinOp.GETMNTENT, BuiltinOp.FFI,
}


def _unsafe(op: BuiltinOp) -> bool:
    return op in _UNSAFE_BUILTIN_OPS


# ---------------------------------------------------------------------------
# Free-function (path-call) resolution
# ---------------------------------------------------------------------------

# Maps the *suffix* of a called path to (op, result-type builder).  The
# builder receives the generic args attached to the path (may be empty) and
# the argument types.
def _const_ty(ty: Ty):
    return lambda generics, args: ty

def _first_arg_wrapped(name: str):
    def build(generics, args: Sequence[Ty]) -> Ty:
        inner = args[0] if args else (generics[0] if generics else UNKNOWN)
        return Ty.builtin(name, (inner,))
    return build

def _generic_or_unknown(generics, args):
    return generics[0] if generics else UNKNOWN


_PATH_CALLS = {
    "Box::new": (BuiltinOp.BOX_NEW, _first_arg_wrapped("Box")),
    "Rc::new": (BuiltinOp.RC_NEW, _first_arg_wrapped("Rc")),
    "Arc::new": (BuiltinOp.ARC_NEW, _first_arg_wrapped("Arc")),
    "Mutex::new": (BuiltinOp.MUTEX_NEW, _first_arg_wrapped("Mutex")),
    "RwLock::new": (BuiltinOp.RWLOCK_NEW, _first_arg_wrapped("RwLock")),
    "RefCell::new": (BuiltinOp.REFCELL_NEW, _first_arg_wrapped("RefCell")),
    "Cell::new": (BuiltinOp.CELL_NEW, _first_arg_wrapped("Cell")),
    "UnsafeCell::new": (BuiltinOp.UNSAFECELL_NEW, _first_arg_wrapped("UnsafeCell")),
    "Condvar::new": (BuiltinOp.CONDVAR_NEW, _const_ty(Ty.builtin("Condvar"))),
    "Once::new": (BuiltinOp.ONCE_NEW, _const_ty(Ty.builtin("Once"))),
    "String::new": (BuiltinOp.STRING_NEW, _const_ty(Ty.string())),
    "String::from": (BuiltinOp.STRING_FROM, _const_ty(Ty.string())),
    "String::from_utf8_unchecked": (BuiltinOp.FROM_UTF8_UNCHECKED,
                                    _const_ty(Ty.string())),
    "HashMap::new": (BuiltinOp.HASHMAP_NEW,
                     lambda g, a: Ty.builtin("HashMap", tuple(g[:2]) or (UNKNOWN, UNKNOWN))),
    "Vec::new": (BuiltinOp.VEC_NEW,
                 lambda g, a: Ty.builtin("Vec", (g[0],) if g else (UNKNOWN,))),
    "VecDeque::new": (BuiltinOp.VEC_NEW,
                      lambda g, a: Ty.builtin("VecDeque",
                                              (g[0],) if g else (UNKNOWN,))),
    "Vec::with_capacity": (BuiltinOp.VEC_WITH_CAPACITY,
                           lambda g, a: Ty.builtin("Vec", (g[0],) if g else (UNKNOWN,))),
    "Vec::from_raw_parts": (BuiltinOp.VEC_FROM_RAW_PARTS,
                            lambda g, a: Ty.builtin(
                                "Vec",
                                (a[0].referent,) if a and a[0].is_raw_ptr else (UNKNOWN,))),
    "Arc::clone": (BuiltinOp.ARC_CLONE,
                   lambda g, a: a[0].peel_refs() if a else UNKNOWN),
    "Rc::clone": (BuiltinOp.RC_CLONE,
                  lambda g, a: a[0].peel_refs() if a else UNKNOWN),
    "Arc::downgrade": (BuiltinOp.DOWNGRADE,
                       lambda g, a: Ty.builtin("Weak", (UNKNOWN,))),
    "thread::spawn": (BuiltinOp.THREAD_SPAWN,
                      _const_ty(Ty.builtin("JoinHandle", (UNKNOWN,)))),
    "thread::sleep": (BuiltinOp.THREAD_SLEEP, _const_ty(UNIT)),
    "thread::yield_now": (BuiltinOp.THREAD_YIELD, _const_ty(UNIT)),
    "mpsc::channel": (BuiltinOp.CHANNEL_NEW,
                      lambda g, a: Ty.tuple_((
                          Ty.builtin("Sender", (g[0],) if g else (UNKNOWN,)),
                          Ty.builtin("Receiver", (g[0],) if g else (UNKNOWN,))))),
    "mpsc::sync_channel": (BuiltinOp.SYNC_CHANNEL_NEW,
                           lambda g, a: Ty.tuple_((
                               Ty.builtin("SyncSender", (g[0],) if g else (UNKNOWN,)),
                               Ty.builtin("Receiver", (g[0],) if g else (UNKNOWN,))))),
    "channel": (BuiltinOp.CHANNEL_NEW,
                lambda g, a: Ty.tuple_((
                    Ty.builtin("Sender", (g[0],) if g else (UNKNOWN,)),
                    Ty.builtin("Receiver", (g[0],) if g else (UNKNOWN,))))),
    "sync_channel": (BuiltinOp.SYNC_CHANNEL_NEW,
                     lambda g, a: Ty.tuple_((
                         Ty.builtin("SyncSender", (g[0],) if g else (UNKNOWN,)),
                         Ty.builtin("Receiver", (g[0],) if g else (UNKNOWN,))))),
    "ptr::read": (BuiltinOp.PTR_READ,
                  lambda g, a: a[0].referent if a else _generic_or_unknown(g, a)),
    "ptr::write": (BuiltinOp.PTR_WRITE, _const_ty(UNIT)),
    "ptr::copy": (BuiltinOp.PTR_COPY, _const_ty(UNIT)),
    "ptr::copy_nonoverlapping": (BuiltinOp.PTR_COPY_NONOVERLAPPING, _const_ty(UNIT)),
    "ptr::null": (BuiltinOp.PTR_NULL,
                  lambda g, a: Ty.raw_ptr(g[0] if g else UNKNOWN, False)),
    "ptr::null_mut": (BuiltinOp.PTR_NULL_MUT,
                      lambda g, a: Ty.raw_ptr(g[0] if g else UNKNOWN, True)),
    "mem::drop": (BuiltinOp.MEM_DROP, _const_ty(UNIT)),
    "drop": (BuiltinOp.MEM_DROP, _const_ty(UNIT)),
    "mem::forget": (BuiltinOp.MEM_FORGET, _const_ty(UNIT)),
    "mem::replace": (BuiltinOp.MEM_REPLACE,
                     lambda g, a: a[0].referent if a else UNKNOWN),
    "mem::swap": (BuiltinOp.MEM_SWAP, _const_ty(UNIT)),
    "mem::transmute": (BuiltinOp.MEM_TRANSMUTE, _generic_or_unknown),
    "mem::uninitialized": (BuiltinOp.MEM_UNINITIALIZED, _generic_or_unknown),
    "mem::zeroed": (BuiltinOp.MEM_ZEROED, _generic_or_unknown),
    "mem::size_of": (BuiltinOp.MEM_SIZE_OF, _const_ty(USIZE)),
    "MaybeUninit::uninit": (BuiltinOp.MAYBE_UNINIT,
                            lambda g, a: Ty.builtin("MaybeUninit",
                                                    (g[0],) if g else (UNKNOWN,))),
    "alloc": (BuiltinOp.ALLOC, _const_ty(Ty.raw_ptr(Ty.int("u8"), True))),
    "alloc::alloc": (BuiltinOp.ALLOC, _const_ty(Ty.raw_ptr(Ty.int("u8"), True))),
    "dealloc": (BuiltinOp.DEALLOC, _const_ty(UNIT)),
    "alloc::dealloc": (BuiltinOp.DEALLOC, _const_ty(UNIT)),
    "print": (BuiltinOp.PRINT, _const_ty(UNIT)),
    "process::exit": (BuiltinOp.PROCESS_EXIT, _const_ty(Ty.never())),
    "libc::getmntent": (BuiltinOp.GETMNTENT,
                        _const_ty(Ty.raw_ptr(UNKNOWN, True))),
    "Some": (BuiltinOp.SOME,
             lambda g, a: Ty.builtin("Option", (a[0],) if a else (UNKNOWN,))),
    "Ok": (BuiltinOp.OK,
           lambda g, a: Ty.builtin("Result", ((a[0],) if a else (UNKNOWN,)) + (UNKNOWN,))),
    "Err": (BuiltinOp.ERR,
            lambda g, a: Ty.builtin("Result", (UNKNOWN,) + ((a[0],) if a else (UNKNOWN,)))),
}

# Atomic constructors: AtomicBool::new etc.
for _atomic in ("AtomicBool", "AtomicUsize", "AtomicIsize", "AtomicI32",
                "AtomicU32", "AtomicI64", "AtomicU64", "AtomicPtr"):
    _PATH_CALLS[f"{_atomic}::new"] = (
        BuiltinOp.ATOMIC_NEW,
        (lambda name: lambda g, a: Ty.builtin(name))(_atomic))


def resolve_builtin_call(path_str: str, generics: Sequence[Ty],
                         arg_tys: Sequence[Ty]):
    """Resolve a free-function call path.

    Returns ``(FuncRef, result_ty)`` or ``None`` when the path is not a
    known builtin.  Matches on the longest path suffix so that
    ``std::sync::Mutex::new`` and ``Mutex::new`` both resolve.
    """
    parts = path_str.split("::")
    for start in range(len(parts)):
        suffix = "::".join(parts[start:])
        entry = _PATH_CALLS.get(suffix)
        if entry is not None:
            op, build = entry
            ref = FuncRef.builtin(op, suffix, is_unsafe=_unsafe(op))
            return ref, build(list(generics), list(arg_tys))
    return None


# ---------------------------------------------------------------------------
# Method resolution
# ---------------------------------------------------------------------------

def _elem_of(recv: Ty) -> Ty:
    base = recv.peel_refs()
    if base.kind in (TyKind.SLICE, TyKind.ARRAY) or \
            (base.kind is TyKind.BUILTIN and base.name in ("Vec", "VecDeque")):
        return base.arg()
    return UNKNOWN


def resolve_method(recv_ty: Ty, method: str, arg_tys: Sequence[Ty]):
    """Resolve a method call on a *builtin* receiver type.

    Returns ``(FuncRef, result_ty)`` or ``None`` when the receiver is a
    user ADT (handled by impl lookup) or the method is not recognised.
    """
    base = recv_ty.peel_borrows()
    name = base.name
    kind = base.kind

    # -- locking -----------------------------------------------------------
    if name == "Mutex":
        if method == "lock":
            guard = Ty.builtin("MutexGuard", base.args or (UNKNOWN,))
            return (FuncRef.builtin(BuiltinOp.MUTEX_LOCK),
                    Ty.builtin("Result", (guard, UNKNOWN)))
        if method == "try_lock":
            guard = Ty.builtin("MutexGuard", base.args or (UNKNOWN,))
            return (FuncRef.builtin(BuiltinOp.MUTEX_TRY_LOCK),
                    Ty.builtin("Result", (guard, UNKNOWN)))
    if name == "RwLock":
        guard_name = {"read": "RwLockReadGuard", "try_read": "RwLockReadGuard",
                      "write": "RwLockWriteGuard", "try_write": "RwLockWriteGuard"}
        ops = {"read": BuiltinOp.RWLOCK_READ, "try_read": BuiltinOp.RWLOCK_TRY_READ,
               "write": BuiltinOp.RWLOCK_WRITE, "try_write": BuiltinOp.RWLOCK_TRY_WRITE}
        if method in ops:
            guard = Ty.builtin(guard_name[method], base.args or (UNKNOWN,))
            return (FuncRef.builtin(ops[method]),
                    Ty.builtin("Result", (guard, UNKNOWN)))
    if name == "RefCell":
        if method == "borrow":
            return (FuncRef.builtin(BuiltinOp.REFCELL_BORROW),
                    Ty.builtin("Ref", base.args or (UNKNOWN,)))
        if method == "borrow_mut":
            return (FuncRef.builtin(BuiltinOp.REFCELL_BORROW_MUT),
                    Ty.builtin("RefMut", base.args or (UNKNOWN,)))
    if name == "Cell":
        if method == "get":
            return FuncRef.builtin(BuiltinOp.CELL_GET), base.arg()
        if method == "set":
            return FuncRef.builtin(BuiltinOp.CELL_SET), UNIT
    if name == "UnsafeCell" and method == "get":
        return (FuncRef.builtin(BuiltinOp.UNSAFECELL_GET),
                Ty.raw_ptr(base.arg(), True))

    # -- condvar / once ------------------------------------------------------
    if name == "Condvar":
        if method == "wait":
            return (FuncRef.builtin(BuiltinOp.CONDVAR_WAIT),
                    Ty.builtin("Result", (arg_tys[0] if arg_tys else UNKNOWN,
                                          UNKNOWN)))
        if method == "notify_one":
            return FuncRef.builtin(BuiltinOp.CONDVAR_NOTIFY_ONE), UNIT
        if method == "notify_all":
            return FuncRef.builtin(BuiltinOp.CONDVAR_NOTIFY_ALL), UNIT
    if name == "Once" and method == "call_once":
        return FuncRef.builtin(BuiltinOp.ONCE_CALL_ONCE), UNIT

    # -- channels -------------------------------------------------------------
    if name in ("Sender", "SyncSender") and method == "send":
        return (FuncRef.builtin(BuiltinOp.CHANNEL_SEND),
                Ty.builtin("Result", (UNIT, UNKNOWN)))
    if name == "Receiver":
        if method == "recv":
            return (FuncRef.builtin(BuiltinOp.CHANNEL_RECV),
                    Ty.builtin("Result", (base.arg(), UNKNOWN)))
        if method == "try_recv":
            return (FuncRef.builtin(BuiltinOp.CHANNEL_TRY_RECV),
                    Ty.builtin("Result", (base.arg(), UNKNOWN)))

    # -- atomics -----------------------------------------------------------------
    if base.is_atomic:
        value_ty = BOOL if name == "AtomicBool" else USIZE
        atomic_methods = {
            "load": (BuiltinOp.ATOMIC_LOAD, value_ty),
            "store": (BuiltinOp.ATOMIC_STORE, UNIT),
            "compare_and_swap": (BuiltinOp.ATOMIC_CAS, value_ty),
            "compare_exchange": (BuiltinOp.ATOMIC_CAE,
                                 Ty.builtin("Result", (value_ty, value_ty))),
            "fetch_add": (BuiltinOp.ATOMIC_FETCH_ADD, value_ty),
            "fetch_sub": (BuiltinOp.ATOMIC_FETCH_SUB, value_ty),
            "swap": (BuiltinOp.ATOMIC_SWAP, value_ty),
        }
        if method in atomic_methods:
            op, ret = atomic_methods[method]
            return FuncRef.builtin(op), ret

    # -- thread handle --------------------------------------------------------
    if name == "JoinHandle" and method == "join":
        return (FuncRef.builtin(BuiltinOp.THREAD_JOIN),
                Ty.builtin("Result", (base.arg(), UNKNOWN)))

    # -- Option / Result -------------------------------------------------------
    if name in ("Option", "Result"):
        payload = base.arg()
        simple = {
            "unwrap": (BuiltinOp.UNWRAP, payload),
            "expect": (BuiltinOp.EXPECT, payload),
            "is_some": (BuiltinOp.IS_SOME, BOOL),
            "is_none": (BuiltinOp.IS_NONE, BOOL),
            "is_ok": (BuiltinOp.IS_OK, BOOL),
            "is_err": (BuiltinOp.IS_ERR, BOOL),
            "unwrap_or": (BuiltinOp.UNWRAP_OR, payload),
            "ok": (BuiltinOp.OK_METHOD, Ty.builtin("Option", (payload,))),
            "take": (BuiltinOp.TAKE, base),
            "map": (BuiltinOp.MAP, Ty.builtin("Option", (UNKNOWN,))),
            "map_or": (BuiltinOp.MAP_OR, UNKNOWN),
            "and_then": (BuiltinOp.AND_THEN, Ty.builtin("Option", (UNKNOWN,))),
            "as_ref": (BuiltinOp.AS_REF,
                       Ty.builtin(name, (Ty.ref(payload),) + base.args[1:])),
            "as_mut": (BuiltinOp.AS_MUT,
                       Ty.builtin(name, (Ty.ref(payload, True),) + base.args[1:])),
        }
        if method in simple:
            op, ret = simple[method]
            return FuncRef.builtin(op), ret

    # -- Vec / slices ------------------------------------------------------------
    elem = _elem_of(recv_ty)
    if kind in (TyKind.SLICE, TyKind.ARRAY) or name in ("Vec", "VecDeque"):
        vec_methods = {
            "push": (BuiltinOp.VEC_PUSH, UNIT),
            "push_back": (BuiltinOp.VEC_PUSH, UNIT),
            "pop": (BuiltinOp.VEC_POP, Ty.builtin("Option", (elem,))),
            "pop_front": (BuiltinOp.VEC_POP, Ty.builtin("Option", (elem,))),
            "pop_back": (BuiltinOp.VEC_POP, Ty.builtin("Option", (elem,))),
            "len": (BuiltinOp.VEC_LEN, USIZE),
            "capacity": (BuiltinOp.VEC_CAPACITY, USIZE),
            "is_empty": (BuiltinOp.VEC_IS_EMPTY, BOOL),
            "get": (BuiltinOp.VEC_GET,
                    Ty.builtin("Option", (Ty.ref(elem),))),
            "get_mut": (BuiltinOp.VEC_GET_MUT,
                        Ty.builtin("Option", (Ty.ref(elem, True),))),
            "get_unchecked": (BuiltinOp.VEC_GET_UNCHECKED, Ty.ref(elem)),
            "get_unchecked_mut": (BuiltinOp.VEC_GET_UNCHECKED_MUT,
                                  Ty.ref(elem, True)),
            "first": (BuiltinOp.FIRST, Ty.builtin("Option", (Ty.ref(elem),))),
            "last": (BuiltinOp.LAST, Ty.builtin("Option", (Ty.ref(elem),))),
            "insert": (BuiltinOp.VEC_INSERT, UNIT),
            "remove": (BuiltinOp.VEC_REMOVE, elem),
            "clear": (BuiltinOp.VEC_CLEAR, UNIT),
            "truncate": (BuiltinOp.VEC_TRUNCATE, UNIT),
            "reserve": (BuiltinOp.VEC_RESERVE, UNIT),
            "as_ptr": (BuiltinOp.VEC_AS_PTR, Ty.raw_ptr(elem, False)),
            "as_mut_ptr": (BuiltinOp.VEC_AS_MUT_PTR, Ty.raw_ptr(elem, True)),
            "set_len": (BuiltinOp.VEC_SET_LEN, UNIT),
            "iter": (BuiltinOp.VEC_ITER, recv_ty),
            "iter_mut": (BuiltinOp.VEC_ITER, recv_ty),
            "contains": (BuiltinOp.VEC_CONTAINS, BOOL),
            "extend": (BuiltinOp.VEC_EXTEND, UNIT),
            "copy_from_slice": (BuiltinOp.SLICE_COPY_FROM_SLICE, UNIT),
        }
        if method in vec_methods:
            op, ret = vec_methods[method]
            return FuncRef.builtin(op, name=method,
                                   is_unsafe=_unsafe(op)), ret

    # -- HashMap / BTreeMap --------------------------------------------------------
    if name in ("HashMap", "BTreeMap"):
        key_ty = base.arg(0)
        val_ty = base.arg(1)
        map_methods = {
            "insert": (BuiltinOp.MAP_INSERT, Ty.builtin("Option", (val_ty,))),
            "get": (BuiltinOp.MAP_GET, Ty.builtin("Option", (Ty.ref(val_ty),))),
            "get_mut": (BuiltinOp.MAP_GET,
                        Ty.builtin("Option", (Ty.ref(val_ty, True),))),
            "remove": (BuiltinOp.MAP_REMOVE, Ty.builtin("Option", (val_ty,))),
            "contains_key": (BuiltinOp.MAP_CONTAINS_KEY, BOOL),
            "len": (BuiltinOp.VEC_LEN, USIZE),
            "is_empty": (BuiltinOp.VEC_IS_EMPTY, BOOL),
            "iter": (BuiltinOp.VEC_ITER, recv_ty),
            "clear": (BuiltinOp.VEC_CLEAR, UNIT),
        }
        if method in map_methods:
            op, ret = map_methods[method]
            return FuncRef.builtin(op), ret

    # -- raw pointers ---------------------------------------------------------------
    if base.is_raw_ptr:
        if method in ("offset", "add", "sub", "wrapping_add", "wrapping_offset"):
            op = BuiltinOp.PTR_OFFSET if method == "offset" else BuiltinOp.PTR_ADD
            return FuncRef.builtin(op, is_unsafe=_unsafe(op)), base
        if method == "is_null":
            return FuncRef.builtin(BuiltinOp.PTR_IS_NULL), BOOL
        if method == "read":
            return FuncRef.builtin(BuiltinOp.PTR_READ, is_unsafe=True), base.referent
        if method == "write":
            return FuncRef.builtin(BuiltinOp.PTR_WRITE, is_unsafe=True), UNIT
        if method == "as_ptr":
            return FuncRef.builtin(BuiltinOp.VEC_AS_PTR), base

    # -- MaybeUninit ----------------------------------------------------------------
    if name == "MaybeUninit":
        if method == "assume_init":
            return (FuncRef.builtin(BuiltinOp.MAYBE_UNINIT_ASSUME, is_unsafe=True),
                    base.arg())
        if method == "as_mut_ptr":
            return (FuncRef.builtin(BuiltinOp.VEC_AS_MUT_PTR),
                    Ty.raw_ptr(base.arg(), True))

    # -- Weak -------------------------------------------------------------------------
    if name == "Weak" and method == "upgrade":
        return (FuncRef.builtin(BuiltinOp.UPGRADE),
                Ty.builtin("Option", (Ty.builtin("Arc", base.args),)))

    # -- explicit unlock (the paper's Suggestion 7, implemented) ------------
    if base.is_guard and method == "unlock":
        return FuncRef.builtin(BuiltinOp.GUARD_UNLOCK), UNIT

    # -- universal methods ------------------------------------------------------------
    if method == "clone":
        return FuncRef.builtin(BuiltinOp.CLONE), base
    if method == "to_string":
        return FuncRef.builtin(BuiltinOp.TO_STRING), Ty.string()
    if method == "into":
        return FuncRef.builtin(BuiltinOp.INTO), UNKNOWN
    if method == "deref":
        return FuncRef.builtin(BuiltinOp.DEREF), Ty.ref(base.arg())
    if method == "next":
        return (FuncRef.builtin(BuiltinOp.ITER_NEXT),
                Ty.builtin("Option", (_elem_of(recv_ty),)))
    if name == "String":
        str_methods = {
            "len": (BuiltinOp.VEC_LEN, USIZE),
            "is_empty": (BuiltinOp.VEC_IS_EMPTY, BOOL),
            "push": (BuiltinOp.VEC_PUSH, UNIT),
            "as_ptr": (BuiltinOp.VEC_AS_PTR, Ty.raw_ptr(Ty.int("u8"), False)),
        }
        if method in str_methods:
            op, ret = str_methods[method]
            return FuncRef.builtin(op), ret
    return None


# Macro names lowered to builtin calls by the MIR builder.
MACRO_OPS = {
    "println": BuiltinOp.PRINT,
    "print": BuiltinOp.PRINT,
    "eprintln": BuiltinOp.PRINT,
    "eprint": BuiltinOp.PRINT,
    "panic": BuiltinOp.PANIC,
    "unreachable": BuiltinOp.PANIC,
    "unimplemented": BuiltinOp.UNIMPLEMENTED,
    "todo": BuiltinOp.UNIMPLEMENTED,
    "format": BuiltinOp.FORMAT,
    "vec": BuiltinOp.VEC_MACRO,
    "assert": BuiltinOp.ASSERT,
    "assert_eq": BuiltinOp.ASSERT,
    "assert_ne": BuiltinOp.ASSERT,
    "debug_assert": BuiltinOp.ASSERT,
    "write": BuiltinOp.FORMAT,
    "writeln": BuiltinOp.FORMAT,
}
