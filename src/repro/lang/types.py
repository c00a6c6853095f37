"""Semantic types for MiniRust.

The type system is deliberately *gradual*: anything the checker cannot
resolve becomes :data:`UNKNOWN` and flows through silently.  The paper's
detectors are approximate MIR analyses; they need reliable answers to
questions like "is this local a ``MutexGuard``?", "is this a raw pointer,
and to what?", "does this type own heap memory (needs drop)?" — not full
Hindley-Milner inference.

Types are slotted value dataclasses: equality and hashing are structural,
and a type is never mutated after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class TyKind(enum.Enum):
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    CHAR = "char"
    STR = "str"
    STRING = "String"
    UNIT = "unit"
    NEVER = "never"
    REF = "ref"
    RAW_PTR = "raw_ptr"
    ADT = "adt"              # user-defined struct/enum
    BUILTIN = "builtin"      # std container / sync primitive
    TUPLE = "tuple"
    SLICE = "slice"
    ARRAY = "array"
    FN = "fn"
    CLOSURE = "closure"
    TYPE_PARAM = "param"
    UNKNOWN = "unknown"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


# Built-in generic container / sync names recognised by the checker.  These
# are the types the paper's bug patterns revolve around (§2.3, §6).
BUILTIN_GENERICS = {
    "Box", "Rc", "Arc", "Vec", "VecDeque", "Option", "Result", "Cell",
    "RefCell", "UnsafeCell", "Mutex", "RwLock", "MutexGuard",
    "RwLockReadGuard", "RwLockWriteGuard", "Ref", "RefMut", "Sender",
    "Receiver", "SyncSender", "JoinHandle", "Weak", "HashMap", "BTreeMap",
    "HashSet", "ManuallyDrop", "MaybeUninit", "NonNull",
}

# Non-generic built-ins.
BUILTIN_UNITS = {
    "Condvar", "Once", "Barrier", "AtomicBool", "AtomicUsize", "AtomicIsize",
    "AtomicI32", "AtomicU32", "AtomicI64", "AtomicU64", "AtomicPtr",
    "Thread", "Duration", "Instant", "Ordering", "String", "PoisonError",
}

INT_TYPES = {
    "i8", "i16", "i32", "i64", "i128", "isize",
    "u8", "u16", "u32", "u64", "u128", "usize",
}

# Built-ins that own heap storage and therefore run drop glue.
_OWNING_BUILTINS = {
    "Box", "Rc", "Arc", "Vec", "VecDeque", "String", "Mutex", "RwLock",
    "RefCell", "Cell", "UnsafeCell", "Sender", "Receiver", "SyncSender",
    "HashMap", "BTreeMap", "HashSet", "Option", "Result", "JoinHandle",
    "Weak",
}

# Lock-guard types: their death releases a lock (the paper's §6.1 focus).
GUARD_BUILTINS = {"MutexGuard", "RwLockReadGuard", "RwLockWriteGuard",
                  "Ref", "RefMut"}

# Builtins providing interior mutability (paper §2.3).
INTERIOR_MUTABLE_BUILTINS = {"Cell", "RefCell", "UnsafeCell", "Mutex",
                             "RwLock", "AtomicBool", "AtomicUsize",
                             "AtomicIsize", "AtomicI32", "AtomicU32",
                             "AtomicI64", "AtomicU64", "AtomicPtr"}


@dataclass(slots=True, unsafe_hash=True)
class Ty:
    """A semantic type.  ``args`` carries generic parameters for ADTs and
    builtins, the referent for refs/pointers, element types, etc."""

    kind: TyKind
    name: str = ""
    args: Tuple["Ty", ...] = ()
    mutable: bool = False          # for REF / RAW_PTR

    # -- constructors -------------------------------------------------------

    @staticmethod
    def int(name: str = "i32") -> "Ty":
        return Ty(TyKind.INT, name)

    @staticmethod
    def float(name: str = "f64") -> "Ty":
        return Ty(TyKind.FLOAT, name)

    @staticmethod
    def bool_() -> "Ty":
        return Ty(TyKind.BOOL, "bool")

    @staticmethod
    def unit() -> "Ty":
        return Ty(TyKind.UNIT, "()")

    @staticmethod
    def never() -> "Ty":
        return Ty(TyKind.NEVER, "!")

    @staticmethod
    def str_() -> "Ty":
        return Ty(TyKind.STR, "str")

    @staticmethod
    def string() -> "Ty":
        return Ty(TyKind.STRING, "String")

    @staticmethod
    def char_() -> "Ty":
        return Ty(TyKind.CHAR, "char")

    @staticmethod
    def ref(referent: "Ty", mutable: bool = False) -> "Ty":
        return Ty(TyKind.REF, "&mut" if mutable else "&", (referent,), mutable)

    @staticmethod
    def raw_ptr(pointee: "Ty", mutable: bool = False) -> "Ty":
        return Ty(TyKind.RAW_PTR, "*mut" if mutable else "*const",
                  (pointee,), mutable)

    @staticmethod
    def adt(name: str, args: Tuple["Ty", ...] = ()) -> "Ty":
        return Ty(TyKind.ADT, name, tuple(args))

    @staticmethod
    def builtin(name: str, args: Tuple["Ty", ...] = ()) -> "Ty":
        return Ty(TyKind.BUILTIN, name, tuple(args))

    @staticmethod
    def tuple_(elements: Tuple["Ty", ...]) -> "Ty":
        return Ty(TyKind.TUPLE, "tuple", tuple(elements))

    @staticmethod
    def slice(element: "Ty") -> "Ty":
        return Ty(TyKind.SLICE, "slice", (element,))

    @staticmethod
    def array(element: "Ty") -> "Ty":
        return Ty(TyKind.ARRAY, "array", (element,))

    @staticmethod
    def fn(params: Tuple["Ty", ...], ret: "Ty") -> "Ty":
        return Ty(TyKind.FN, "fn", tuple(params) + (ret,))

    @staticmethod
    def closure(name: str = "<closure>") -> "Ty":
        return Ty(TyKind.CLOSURE, name)

    @staticmethod
    def param(name: str) -> "Ty":
        return Ty(TyKind.TYPE_PARAM, name)

    # -- queries --------------------------------------------------------------

    @property
    def is_unknown(self) -> bool:
        return self.kind is TyKind.UNKNOWN

    @property
    def is_ref(self) -> bool:
        return self.kind is TyKind.REF

    @property
    def is_raw_ptr(self) -> bool:
        return self.kind is TyKind.RAW_PTR

    @property
    def is_pointer_like(self) -> bool:
        return self.kind in (TyKind.REF, TyKind.RAW_PTR)

    @property
    def referent(self) -> "Ty":
        """Target type of a ref / raw pointer (UNKNOWN otherwise)."""
        if self.is_pointer_like and self.args:
            return self.args[0]
        return UNKNOWN

    @property
    def is_scalar(self) -> bool:
        return self.kind in (TyKind.INT, TyKind.FLOAT, TyKind.BOOL,
                             TyKind.CHAR)

    @property
    def is_copy(self) -> bool:
        """Approximates Rust's ``Copy``: scalars, shared refs, raw pointers,
        tuples of Copy."""
        if self.is_scalar or self.kind is TyKind.UNIT:
            return True
        if self.kind is TyKind.RAW_PTR:
            return True
        if self.kind is TyKind.REF:
            return not self.mutable
        if self.kind is TyKind.TUPLE:
            return all(e.is_copy for e in self.args)
        return False

    @property
    def needs_drop(self) -> bool:
        """Does dropping a value of this type run meaningful drop glue?"""
        if self.kind is TyKind.STRING:
            return True
        if self.kind is TyKind.BUILTIN:
            return self.name in _OWNING_BUILTINS or self.is_guard
        if self.kind is TyKind.ADT:
            return True        # conservative: user ADTs may own memory
        if self.kind in (TyKind.TUPLE, TyKind.ARRAY, TyKind.SLICE):
            return any(a.needs_drop for a in self.args)
        return False

    @property
    def is_guard(self) -> bool:
        """Is this a lock guard whose drop releases a lock / borrow flag?"""
        return self.kind is TyKind.BUILTIN and self.name in GUARD_BUILTINS

    @property
    def is_lock(self) -> bool:
        return self.kind is TyKind.BUILTIN and self.name in ("Mutex", "RwLock")

    @property
    def is_interior_mutable(self) -> bool:
        if self.kind is TyKind.BUILTIN:
            return self.name in INTERIOR_MUTABLE_BUILTINS
        return False

    @property
    def is_atomic(self) -> bool:
        return self.kind is TyKind.BUILTIN and self.name.startswith("Atomic")

    def peel_refs(self) -> "Ty":
        """Strip all layers of & / &mut / raw pointers."""
        ty = self
        while ty.is_pointer_like:
            ty = ty.referent
        return ty

    def peel_borrows(self) -> "Ty":
        """Strip & / &mut layers only (raw pointers are kept — method
        resolution on `*const T` must still see the pointer)."""
        ty = self
        while ty.kind is TyKind.REF:
            ty = ty.referent
        return ty

    def peel_wrappers(self, wrappers: Tuple[str, ...] = ("Arc", "Rc", "Box")) -> "Ty":
        """Strip smart-pointer wrappers: ``Arc<Mutex<T>>`` → ``Mutex<T>``."""
        ty = self
        while (ty.kind is TyKind.BUILTIN and ty.name in wrappers and ty.args):
            ty = ty.args[0]
        return ty

    def arg(self, index: int = 0) -> "Ty":
        if index < len(self.args):
            return self.args[index]
        return UNKNOWN

    def __str__(self) -> str:
        if self.kind is TyKind.REF:
            return ("&mut " if self.mutable else "&") + str(self.referent)
        if self.kind is TyKind.RAW_PTR:
            return ("*mut " if self.mutable else "*const ") + str(self.referent)
        if self.kind is TyKind.TUPLE:
            return "(" + ", ".join(str(a) for a in self.args) + ")"
        if self.kind is TyKind.SLICE:
            return "[" + str(self.arg()) + "]"
        if self.kind is TyKind.ARRAY:
            return "[" + str(self.arg()) + "; _]"
        if self.kind is TyKind.FN:
            params = ", ".join(str(a) for a in self.args[:-1])
            return f"fn({params}) -> {self.args[-1]}"
        if self.args:
            return self.name + "<" + ", ".join(str(a) for a in self.args) + ">"
        return self.name or self.kind.value


UNKNOWN = Ty(TyKind.UNKNOWN, "?")
UNIT = Ty.unit()
BOOL = Ty.bool_()
I32 = Ty.int("i32")
USIZE = Ty.int("usize")
NEVER = Ty.never()


@dataclass
class StructInfo:
    """Resolved layout of a user struct: field name → (index, type)."""

    name: str
    fields: List[Tuple[str, Ty]] = field(default_factory=list)
    is_tuple: bool = False
    # Trait implementations seen for this struct (Sync, Send, Drop, ...).
    traits: Dict[str, bool] = field(default_factory=dict)
    # True when `unsafe impl Sync/Send` appeared (paper §4 / §6.2).
    unsafe_sync: bool = False
    unsafe_send: bool = False

    def field_ty(self, name: str) -> Ty:
        for f_name, f_ty in self.fields:
            if f_name == name:
                return f_ty
        return UNKNOWN

    def field_index(self, name: str) -> Optional[int]:
        for i, (f_name, _) in enumerate(self.fields):
            if f_name == name:
                return i
        return None


@dataclass
class EnumInfo:
    """Resolved layout of a user enum."""

    name: str
    variants: List[Tuple[str, List[Ty]]] = field(default_factory=list)

    def variant_index(self, name: str) -> Optional[int]:
        for i, (v_name, _) in enumerate(self.variants):
            if v_name == name:
                return i
        return None

    def variant_payload(self, name: str) -> List[Ty]:
        for v_name, payload in self.variants:
            if v_name == name:
                return payload
        return []
