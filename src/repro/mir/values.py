"""Runtime value and memory model for the Miri-like interpreter.

Everything addressable lives in an :class:`Allocation` (stack slots for
locals, heap blocks for ``Box``/``Vec``/``Arc``/... contents), exactly so
that the interpreter can detect the undefined behaviours the paper
catalogues: use-after-free (access to a ``freed`` allocation), double free
(freeing twice), uninitialised reads, and out-of-bounds accesses.

Pointers and references are :class:`Pointer` values carrying an allocation
id plus a projection path; dereferencing validates the allocation state
first.  Handle values (:class:`VecValue`, :class:`BoxValue`, ...) own
their backing allocation and free it when dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class UBKind(enum.Enum):
    USE_AFTER_FREE = "use-after-free"
    DOUBLE_FREE = "double-free"
    INVALID_FREE = "invalid-free"
    UNINIT_READ = "uninit-read"
    OUT_OF_BOUNDS = "out-of-bounds"
    NULL_DEREF = "null-deref"
    DANGLING_STACK = "dangling-stack"


class InterpError(Exception):
    """Base of all interpreter-raised conditions."""


class UBError(InterpError):
    """Undefined behaviour detected (what Miri would flag)."""

    def __init__(self, kind: UBKind, message: str, span=None,
                 fn_key: str = "") -> None:
        self.kind = kind
        self.message = message
        self.span = span
        self.fn_key = fn_key
        super().__init__(f"{kind.value}: {message}")


class RuntimePanic(InterpError):
    """A Rust panic (bounds check, unwrap of None, explicit panic!)."""

    def __init__(self, message: str, span=None, fn_key: str = "") -> None:
        self.message = message
        self.span = span
        self.fn_key = fn_key
        super().__init__(f"panic: {message}")


class DeadlockError(InterpError):
    """Every runnable thread is blocked."""

    def __init__(self, message: str, waiting: Optional[Dict] = None) -> None:
        self.waiting = waiting or {}
        super().__init__(f"deadlock: {message}")


#: Sentinel stored in never-written memory.
class _Uninit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<uninit>"


#: Sentinel stored in moved-out slots.
class _Moved:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<moved>"


UNINIT = _Uninit()
MOVED = _Moved()


class AllocState(enum.Enum):
    LIVE = "live"
    FREED = "freed"
    DEAD_STACK = "dead-stack"      # StorageDead ran (stack slot)


@dataclass
class Allocation:
    alloc_id: int
    value: Any = UNINIT
    state: AllocState = AllocState.LIVE
    kind: str = "heap"             # "heap" | "stack" | "static"
    label: str = ""                # debugging: "main::_3", "Box@bb2", ...

    @property
    def live(self) -> bool:
        return self.state is AllocState.LIVE


class Memory:
    """The allocation store shared by every thread."""

    def __init__(self) -> None:
        self._allocations: Dict[int, Allocation] = {}
        self._next_id = 1
        self.frees = 0
        self.allocs = 0

    def allocate(self, value: Any = UNINIT, kind: str = "heap",
                 label: str = "") -> int:
        alloc_id = self._next_id
        self._next_id += 1
        self._allocations[alloc_id] = Allocation(alloc_id, value, kind=kind,
                                                 label=label)
        self.allocs += 1
        return alloc_id

    def get(self, alloc_id: int) -> Allocation:
        alloc = self._allocations.get(alloc_id)
        if alloc is None:
            raise UBError(UBKind.USE_AFTER_FREE,
                          f"access to unknown allocation {alloc_id}")
        return alloc

    def check_live(self, alloc_id: int, what: str = "memory") -> Allocation:
        alloc = self.get(alloc_id)
        if alloc.state is AllocState.FREED:
            raise UBError(UBKind.USE_AFTER_FREE,
                          f"{what} accessed after its allocation "
                          f"({alloc.label or alloc_id}) was freed")
        if alloc.state is AllocState.DEAD_STACK:
            raise UBError(UBKind.DANGLING_STACK,
                          f"{what} accessed after the stack slot "
                          f"({alloc.label or alloc_id}) went out of scope")
        return alloc

    def free(self, alloc_id: int, what: str = "allocation") -> None:
        alloc = self.get(alloc_id)
        if alloc.state is AllocState.FREED:
            raise UBError(UBKind.DOUBLE_FREE,
                          f"{what} ({alloc.label or alloc_id}) freed twice")
        alloc.state = AllocState.FREED
        self.frees += 1

    def mark_dead_stack(self, alloc_id: int) -> None:
        alloc = self._allocations.get(alloc_id)
        if alloc is not None and alloc.state is AllocState.LIVE:
            alloc.state = AllocState.DEAD_STACK

    def revive_stack(self, alloc_id: int) -> None:
        """StorageLive on a previously dead slot (loop re-entry)."""
        alloc = self._allocations.get(alloc_id)
        if alloc is not None:
            alloc.state = AllocState.LIVE
            alloc.value = UNINIT

    def live_count(self) -> int:
        return sum(1 for a in self._allocations.values() if a.live)


# ---------------------------------------------------------------------------
# Value kinds
# ---------------------------------------------------------------------------

@dataclass
class Pointer:
    """A reference or raw pointer: allocation + projection path.

    ``path`` elements are ints (list/tuple/field indices) or strings
    (struct field names).
    """

    alloc_id: int
    path: Tuple = ()
    mutable: bool = False
    null: bool = False

    @staticmethod
    def null_ptr() -> "Pointer":
        return Pointer(alloc_id=0, null=True)

    def extend(self, element) -> "Pointer":
        return Pointer(self.alloc_id, self.path + (element,), self.mutable)

    def __repr__(self) -> str:
        suffix = "".join(f".{p}" for p in self.path)
        return f"ptr(a{self.alloc_id}{suffix})"


@dataclass
class StructValue:
    name: str
    fields: List[Any] = field(default_factory=list)
    field_names: List[str] = field(default_factory=list)

    def index_of(self, name: str) -> Optional[int]:
        try:
            return self.field_names.index(name)
        except ValueError:
            return None

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v!r}" for n, v in
                          zip(self.field_names, self.fields))
        return f"{self.name} {{ {inner} }}"


@dataclass
class EnumValue:
    variant_index: int
    payload: List[Any] = field(default_factory=list)
    name: str = ""

    def __repr__(self) -> str:
        if self.payload:
            return f"{self.name or 'variant'}#{self.variant_index}({self.payload})"
        return f"{self.name or 'variant'}#{self.variant_index}"


def some(value) -> EnumValue:
    return EnumValue(1, [value], "Option::Some")


def none() -> EnumValue:
    return EnumValue(0, [], "Option::None")


def ok(value) -> EnumValue:
    return EnumValue(0, [value], "Result::Ok")


def err(value) -> EnumValue:
    return EnumValue(1, [value], "Result::Err")


@dataclass
class TupleValue:
    elements: List[Any] = field(default_factory=list)


@dataclass
class VecValue:
    """Handle owning a heap buffer allocation holding a Python list."""

    buffer: int


@dataclass
class StringValue:
    text: str = ""


@dataclass
class BoxValue:
    target: int         # allocation holding the boxed value


@dataclass
class ForeignValue:
    """The value a call into foreign code returns, which the interpreter
    does not model.  It may be moved, stored and printed; computing or
    branching on it ends the run with :meth:`refusal`."""

    name: str           # the foreign function

    def refusal(self) -> InterpError:
        return InterpError(f"the result of foreign function `{self.name}` "
                           "is used, and foreign code is not modelled")

    def __str__(self) -> str:
        return f"<result of {self.name}>"


@dataclass
class RcValue:
    """Rc/Arc handle: shared target allocation + shared refcount box."""

    target: int
    counter: List[int]  # single-element shared counter
    is_arc: bool = False
    weak: bool = False


@dataclass
class MutexValue:
    """Mutex/RwLock handle: the inner value lives in its own allocation;
    the lock state lives in the runtime's lock table keyed by lock_id."""

    inner: int
    lock_id: int
    kind: str = "mutex"           # "mutex" | "rwlock" | "refcell"
    poisoned: bool = False


@dataclass
class GuardValue:
    """MutexGuard / RwLock guard / RefCell Ref: releases on drop."""

    lock_id: int
    inner: int                    # allocation of the protected value
    mode: str = "write"           # "read" | "write"
    released: bool = False


@dataclass
class CondvarValue:
    condvar_id: int


@dataclass
class OnceValue:
    once_id: int


@dataclass
class ChannelEnd:
    channel_id: int
    is_sender: bool


@dataclass
class AtomicValue:
    cell: List                    # single-element shared cell


@dataclass
class ClosureValue:
    key: str
    captures: List[Any] = field(default_factory=list)


@dataclass
class ThreadHandle:
    thread_id: int


@dataclass
class MapValue:
    buffer: int                   # allocation holding a Python dict


@dataclass
class RangeValue:
    lo: int
    hi: Optional[int]
    inclusive: bool = False


def deep_copy(value):
    """Structural copy for Copy-semantics reads (leaves handles shared —
    a handle copy *is* the aliasing bug the detectors look for)."""
    if isinstance(value, StructValue):
        return StructValue(value.name, [deep_copy(v) for v in value.fields],
                           list(value.field_names))
    if isinstance(value, EnumValue):
        return EnumValue(value.variant_index,
                         [deep_copy(v) for v in value.payload], value.name)
    if isinstance(value, TupleValue):
        return TupleValue([deep_copy(v) for v in value.elements])
    if isinstance(value, list):
        return [deep_copy(v) for v in value]
    return value
