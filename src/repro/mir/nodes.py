"""MIR data structures.

Layout of a lowered program::

    Program
      functions: {key: Body}
      item_table: ItemTable (HIR)
    Body
      locals: [Local]          _0 = return place, _1.._n = arguments
      blocks: [BasicBlock]
    BasicBlock
      statements: [Statement]  Assign / StorageLive / StorageDead / Drop / Nop
      terminator: Terminator   Goto / SwitchInt / Call / Return / Assert / ...

Every statement and terminator records whether it was lowered from inside
an ``unsafe`` region (block, unsafe fn body, or unsafe callee), which is
what the paper's Table 2 classification and "focus fuzzing on unsafe code"
suggestion (§7.1) need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hir.builtins import FuncRef
from repro.lang.source import Span
from repro.lang.types import UNKNOWN, Ty


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class ProjectionElem:
    """One projection step: deref, field access, or index."""

    kind: str                      # "deref" | "field" | "index"
    field_index: int = 0
    field_name: str = ""
    index_local: Optional[int] = None   # for "index": local holding the index
    index_const: Optional[int] = None   # or a constant index

    @staticmethod
    def deref() -> "ProjectionElem":
        return ProjectionElem("deref")

    @staticmethod
    def fld(index: int, name: str = "") -> "ProjectionElem":
        return ProjectionElem("field", field_index=index, field_name=name)

    @staticmethod
    def index(local: Optional[int] = None,
              const: Optional[int] = None) -> "ProjectionElem":
        return ProjectionElem("index", index_local=local, index_const=const)

    def __str__(self) -> str:
        if self.kind == "deref":
            return "*"
        if self.kind == "field":
            return f".{self.field_name or self.field_index}"
        if self.index_local is not None:
            return f"[_{self.index_local}]"
        return f"[{self.index_const}]"


@dataclass(slots=True, unsafe_hash=True)
class Place:
    """A memory location: a local with zero or more projections."""

    local: int
    projection: Tuple[ProjectionElem, ...] = ()

    def deref(self) -> "Place":
        return Place(self.local, self.projection + (ProjectionElem.deref(),))

    def field(self, index: int, name: str = "") -> "Place":
        return Place(self.local,
                     self.projection + (ProjectionElem.fld(index, name),))

    def index_by(self, local: Optional[int] = None,
                 const: Optional[int] = None) -> "Place":
        return Place(self.local,
                     self.projection + (ProjectionElem.index(local, const),))

    @property
    def is_local(self) -> bool:
        return not self.projection

    @property
    def has_deref(self) -> bool:
        return any(p.kind == "deref" for p in self.projection)

    def render(self) -> str:
        out = f"_{self.local}"
        for proj in self.projection:
            if proj.kind == "deref":
                out = f"(*{out})"
            else:
                out = out + str(proj)
        return out

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# Operands and constants
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Constant:
    value: object
    ty: Ty = UNKNOWN

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return f"const {self.value}"


@dataclass(slots=True, unsafe_hash=True)
class Operand:
    """Copy(place) | Move(place) | Const(constant)."""

    kind: str                      # "copy" | "move" | "const"
    place: Optional[Place] = None
    constant: Optional[Constant] = None

    @staticmethod
    def copy(place: Place) -> "Operand":
        return Operand("copy", place=place)

    @staticmethod
    def move(place: Place) -> "Operand":
        return Operand("move", place=place)

    @staticmethod
    def const(value: object, ty: Ty = UNKNOWN) -> "Operand":
        return Operand("const", constant=Constant(value, ty))

    @property
    def is_move(self) -> bool:
        return self.kind == "move"

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    def __str__(self) -> str:
        if self.kind == "const":
            return str(self.constant)
        prefix = "move " if self.kind == "move" else ""
        return prefix + str(self.place)


# ---------------------------------------------------------------------------
# Rvalues
# ---------------------------------------------------------------------------

class RvalueKind(enum.Enum):
    USE = "use"
    REF = "ref"
    ADDRESS_OF = "address_of"
    BINARY = "binary"
    UNARY = "unary"
    CAST = "cast"
    AGGREGATE = "aggregate"
    LEN = "len"
    DISCRIMINANT = "discriminant"
    REPEAT = "repeat"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    REM = "%"
    BIT_AND = "&"
    BIT_OR = "|"
    BIT_XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


class UnOpKind(enum.Enum):
    NEG = "-"
    NOT = "!"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


class CastKind(enum.Enum):
    NUMERIC = "numeric"
    REF_TO_RAW = "ref_to_raw"       # &T as *const T  (unsafe boundary)
    RAW_TO_RAW = "raw_to_raw"       # *const T as *mut T
    RAW_TO_INT = "raw_to_int"
    INT_TO_RAW = "int_to_raw"
    UNSIZE = "unsize"               # &Vec<T> → &[T]
    OTHER = "other"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


class AggregateKind(enum.Enum):
    TUPLE = "tuple"
    STRUCT = "struct"
    ENUM = "enum"          # variant aggregate (Option::Some etc.)
    ARRAY = "array"
    CLOSURE = "closure"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


@dataclass(slots=True, unsafe_hash=True)
class Rvalue:
    kind: RvalueKind
    operands: Tuple[Operand, ...] = ()
    place: Optional[Place] = None          # for REF / ADDRESS_OF / LEN / DISCRIMINANT
    bin_op: Optional[BinOpKind] = None
    un_op: Optional[UnOpKind] = None
    cast_kind: Optional[CastKind] = None
    cast_ty: Ty = UNKNOWN
    mutable: bool = False                  # for REF / ADDRESS_OF
    aggregate_kind: Optional[AggregateKind] = None
    aggregate_name: str = ""               # struct/enum name, variant, closure key
    variant_index: Optional[int] = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def use_(operand: Operand) -> "Rvalue":
        return Rvalue(RvalueKind.USE, (operand,))

    @staticmethod
    def ref(place: Place, mutable: bool = False) -> "Rvalue":
        return Rvalue(RvalueKind.REF, place=place, mutable=mutable)

    @staticmethod
    def address_of(place: Place, mutable: bool = False) -> "Rvalue":
        return Rvalue(RvalueKind.ADDRESS_OF, place=place, mutable=mutable)

    @staticmethod
    def binary(op: BinOpKind, left: Operand, right: Operand) -> "Rvalue":
        return Rvalue(RvalueKind.BINARY, (left, right), bin_op=op)

    @staticmethod
    def unary(op: UnOpKind, operand: Operand) -> "Rvalue":
        return Rvalue(RvalueKind.UNARY, (operand,), un_op=op)

    @staticmethod
    def cast(operand: Operand, kind: CastKind, ty: Ty) -> "Rvalue":
        return Rvalue(RvalueKind.CAST, (operand,), cast_kind=kind, cast_ty=ty)

    @staticmethod
    def aggregate(kind: AggregateKind, operands: Tuple[Operand, ...],
                  name: str = "", variant_index: Optional[int] = None) -> "Rvalue":
        return Rvalue(RvalueKind.AGGREGATE, tuple(operands),
                      aggregate_kind=kind, aggregate_name=name,
                      variant_index=variant_index)

    @staticmethod
    def len_(place: Place) -> "Rvalue":
        return Rvalue(RvalueKind.LEN, place=place)

    @staticmethod
    def discriminant(place: Place) -> "Rvalue":
        return Rvalue(RvalueKind.DISCRIMINANT, place=place)

    @staticmethod
    def repeat(operand: Operand, count: Operand) -> "Rvalue":
        return Rvalue(RvalueKind.REPEAT, (operand, count))

    def __str__(self) -> str:
        if self.kind is RvalueKind.USE:
            return str(self.operands[0])
        if self.kind is RvalueKind.REF:
            return ("&mut " if self.mutable else "&") + str(self.place)
        if self.kind is RvalueKind.ADDRESS_OF:
            return ("&raw mut " if self.mutable else "&raw const ") + str(self.place)
        if self.kind is RvalueKind.BINARY:
            return f"{self.bin_op.value}({self.operands[0]}, {self.operands[1]})"
        if self.kind is RvalueKind.UNARY:
            return f"{self.un_op.value}({self.operands[0]})"
        if self.kind is RvalueKind.CAST:
            return f"{self.operands[0]} as {self.cast_ty} ({self.cast_kind.value})"
        if self.kind is RvalueKind.AGGREGATE:
            inner = ", ".join(str(o) for o in self.operands)
            return f"{self.aggregate_kind.value} {self.aggregate_name}({inner})"
        if self.kind is RvalueKind.LEN:
            return f"Len({self.place})"
        if self.kind is RvalueKind.DISCRIMINANT:
            return f"discriminant({self.place})"
        if self.kind is RvalueKind.REPEAT:
            return f"[{self.operands[0]}; {self.operands[1]}]"
        return self.kind.value


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class StatementKind(enum.Enum):
    ASSIGN = "assign"
    STORAGE_LIVE = "StorageLive"
    STORAGE_DEAD = "StorageDead"
    DROP = "drop"
    SET_DISCRIMINANT = "set_discriminant"
    NOP = "nop"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


@dataclass(slots=True)
class Statement:
    kind: StatementKind
    span: Span = Span.DUMMY
    place: Optional[Place] = None          # ASSIGN dest / DROP place
    rvalue: Optional[Rvalue] = None        # ASSIGN source
    local: Optional[int] = None            # STORAGE_LIVE / STORAGE_DEAD
    variant_index: Optional[int] = None    # SET_DISCRIMINANT
    in_unsafe: bool = False                # lowered inside an unsafe region
    unsafe_span: Optional[Span] = None     # span of the enclosing unsafe region

    def __str__(self) -> str:
        if self.kind is StatementKind.ASSIGN:
            return f"{self.place} = {self.rvalue}"
        if self.kind is StatementKind.STORAGE_LIVE:
            return f"StorageLive(_{self.local})"
        if self.kind is StatementKind.STORAGE_DEAD:
            return f"StorageDead(_{self.local})"
        if self.kind is StatementKind.DROP:
            return f"drop({self.place})"
        if self.kind is StatementKind.SET_DISCRIMINANT:
            return f"discriminant({self.place}) = {self.variant_index}"
        return "nop"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------

class TerminatorKind(enum.Enum):
    GOTO = "goto"
    SWITCH_INT = "switchInt"
    CALL = "call"
    RETURN = "return"
    ASSERT = "assert"
    UNREACHABLE = "unreachable"
    ABORT = "abort"
    RESUME = "resume"        # end of a landing pad: continue unwinding

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


@dataclass(slots=True)
class Terminator:
    kind: TerminatorKind
    span: Span = Span.DUMMY
    target: Optional[int] = None                   # GOTO / CALL / ASSERT
    # SWITCH_INT:
    discr: Optional[Operand] = None
    switch_targets: List[Tuple[int, int]] = field(default_factory=list)
    otherwise: Optional[int] = None
    # CALL:
    func: Optional[FuncRef] = None
    args: List[Operand] = field(default_factory=list)
    destination: Optional[Place] = None
    # ASSERT:
    cond: Optional[Operand] = None
    expected: bool = True
    msg: str = ""
    in_unsafe: bool = False
    unsafe_span: Optional[Span] = None     # span of the enclosing unsafe region
    #: Landing-pad block entered when this terminator panics (CALL /
    #: ASSERT only); ``None`` until unwind lowering runs.
    unwind: Optional[int] = None

    def successors(self) -> List[int]:
        if self.kind is TerminatorKind.GOTO:
            return [self.target]
        if self.kind is TerminatorKind.SWITCH_INT:
            succ = [bb for _, bb in self.switch_targets]
            if self.otherwise is not None:
                succ.append(self.otherwise)
            return succ
        if self.kind in (TerminatorKind.CALL, TerminatorKind.ASSERT):
            succ = [self.target] if self.target is not None else []
            if self.unwind is not None:
                succ.append(self.unwind)
            return succ
        return []

    def __str__(self) -> str:
        if self.kind is TerminatorKind.GOTO:
            return f"goto -> bb{self.target}"
        if self.kind is TerminatorKind.SWITCH_INT:
            arms = ", ".join(f"{v}: bb{t}" for v, t in self.switch_targets)
            return f"switchInt({self.discr}) -> [{arms}, otherwise: bb{self.otherwise}]"
        if self.kind is TerminatorKind.CALL:
            args = ", ".join(str(a) for a in self.args)
            dest = f"{self.destination} = " if self.destination else ""
            unwind = f", unwind: bb{self.unwind}" if self.unwind is not None \
                else ""
            return f"{dest}{self.func}({args}) -> bb{self.target}{unwind}"
        if self.kind is TerminatorKind.RETURN:
            return "return"
        if self.kind is TerminatorKind.ASSERT:
            unwind = f", unwind: bb{self.unwind}" if self.unwind is not None \
                else ""
            return (f"assert({self.cond} == {self.expected}, {self.msg!r}) "
                    f"-> bb{self.target}{unwind}")
        return self.kind.value


# ---------------------------------------------------------------------------
# Bodies and programs
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Local:
    index: int
    ty: Ty = UNKNOWN
    name: Optional[str] = None        # user variable name, if any
    is_arg: bool = False
    is_temp: bool = False
    mutable: bool = False
    span: Span = Span.DUMMY

    def __str__(self) -> str:
        label = f"_{self.index}"
        if self.name:
            label += f" /*{self.name}*/"
        return label


@dataclass(slots=True)
class BasicBlock:
    index: int
    statements: List[Statement] = field(default_factory=list)
    terminator: Optional[Terminator] = None
    #: True for landing-pad blocks synthesised by unwind lowering; they
    #: run pending drops and end in RESUME, and the analyses that model
    #: the happy path (scans, storage ranges, value chains) skip them.
    cleanup: bool = False


@dataclass
class Body:
    """MIR of one function / method / closure."""

    key: str                          # "foo", "Type::method", "foo::{closure#0}"
    name: str = ""
    arg_count: int = 0
    locals: List[Local] = field(default_factory=list)
    blocks: List[BasicBlock] = field(default_factory=list)
    span: Span = Span.DUMMY
    is_unsafe_fn: bool = False
    has_unsafe_block: bool = False
    is_pub: bool = False
    self_ty: Optional[Ty] = None
    self_mode: Optional[str] = None
    ret_ty: Ty = UNKNOWN
    source_name: str = "<input>"
    captures: List[str] = field(default_factory=list)   # closure capture names

    @property
    def is_closure(self) -> bool:
        return "{closure" in self.key

    @property
    def has_interior_unsafe(self) -> bool:
        """Safe-to-call function containing unsafe code (paper's "interior
        unsafe" pattern, §2.3)."""
        return self.has_unsafe_block and not self.is_unsafe_fn

    def local_ty(self, index: int) -> Ty:
        if 0 <= index < len(self.locals):
            return self.locals[index].ty
        return UNKNOWN

    def new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def iter_statements(self, include_cleanup: bool = False):
        """Yield ``(block_index, statement_index, statement)``.

        Landing pads (``cleanup`` blocks) are skipped unless requested:
        their drops restate pending scope-exit obligations on the panic
        path, so flattened walks that model the program text (drop
        chains, written-sets, site inventories) must not double-count
        them.  Panic-path reasoning reads the CFG edges instead.
        """
        for block in self.blocks:
            if block.cleanup and not include_cleanup:
                continue
            for i, stmt in enumerate(block.statements):
                yield block.index, i, stmt

    def iter_terminators(self, include_cleanup: bool = False):
        for block in self.blocks:
            if block.cleanup and not include_cleanup:
                continue
            if block.terminator is not None:
                yield block.index, block.terminator

    def __getstate__(self):
        """Strip derived state (underscore attributes: the analysis scan,
        the memoised fingerprint) so a pickled body carries only the MIR
        itself and the receiver rebuilds its own caches."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}


@dataclass
class Program:
    """A fully lowered crate: every function body plus the HIR item table."""

    functions: Dict[str, Body] = field(default_factory=dict)
    item_table: object = None                  # ItemTable (avoid import cycle)
    source: object = None                      # SourceFile
    statics: Dict[str, Ty] = field(default_factory=dict)

    def body(self, key: str) -> Optional[Body]:
        return self.functions.get(key)

    @property
    def entry(self) -> Optional[Body]:
        return self.functions.get("main")

    def bodies(self) -> List[Body]:
        return list(self.functions.values())
