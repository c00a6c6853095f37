"""AST node definitions for MiniRust.

The AST mirrors rustc's pre-expansion AST, restricted to the MiniRust
subset.  All nodes are slotted dataclasses (no per-node ``__dict__``);
every node carries a ``span``.  Generic walks read a node's fields
through :func:`field_names`.

Naming convention: type-position nodes are prefixed ``Ty`` (``TyPath``,
``TyRef``, ...), pattern nodes ``Pat``, expression nodes plain names.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.lang.source import Span


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

class Mutability(enum.Enum):
    NOT = "not"
    MUT = "mut"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name

    @property
    def is_mut(self) -> bool:
        return self is Mutability.MUT


@dataclass(slots=True)
class Node:
    span: Span


@functools.cache
def field_names(node_type: type) -> Tuple[str, ...]:
    """Field names of an AST node class, in declaration order: what a
    generic walk reads with ``getattr`` (slotted nodes have no
    ``vars()``).  Built once per class."""
    return tuple(f.name for f in fields(node_type))


@dataclass(slots=True)
class PathSegment:
    name: str
    generic_args: List["Ty"] = field(default_factory=list)


@dataclass(slots=True)
class Path(Node):
    """A (possibly qualified) path such as ``std::ptr::read`` or ``Vec::<i32>::new``."""

    segments: List[PathSegment] = field(default_factory=list)

    @property
    def names(self) -> List[str]:
        return [seg.name for seg in self.segments]

    def as_str(self) -> str:
        return "::".join(self.names)

    @property
    def last(self) -> PathSegment:
        return self.segments[-1]


# ---------------------------------------------------------------------------
# Types (syntactic)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Ty(Node):
    pass


@dataclass(slots=True)
class TyPath(Ty):
    path: Path = None


@dataclass(slots=True)
class TyRef(Ty):
    referent: Ty = None
    mutability: Mutability = Mutability.NOT
    lifetime: Optional[str] = None


@dataclass(slots=True)
class TyRawPtr(Ty):
    pointee: Ty = None
    mutability: Mutability = Mutability.NOT


@dataclass(slots=True)
class TyTuple(Ty):
    elements: List[Ty] = field(default_factory=list)


@dataclass(slots=True)
class TySlice(Ty):
    element: Ty = None


@dataclass(slots=True)
class TyArray(Ty):
    element: Ty = None
    length: Optional["Expr"] = None


@dataclass(slots=True)
class TyFn(Ty):
    params: List[Ty] = field(default_factory=list)
    ret: Optional[Ty] = None


@dataclass(slots=True)
class TyUnit(Ty):
    pass


@dataclass(slots=True)
class TyInfer(Ty):
    """The ``_`` type."""


@dataclass(slots=True)
class TyImplTrait(Ty):
    """``impl Trait`` / ``dyn Trait`` — carried opaquely."""

    trait_path: Path = None
    is_dyn: bool = False


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Pat(Node):
    pass


@dataclass(slots=True)
class PatWild(Pat):
    pass


@dataclass(slots=True)
class PatIdent(Pat):
    name: str = ""
    mutability: Mutability = Mutability.NOT
    by_ref: bool = False
    subpattern: Optional[Pat] = None   # x @ pat


@dataclass(slots=True)
class PatLiteral(Pat):
    value: object = None


@dataclass(slots=True)
class PatRange(Pat):
    lo: object = None
    hi: object = None
    inclusive: bool = True


@dataclass(slots=True)
class PatTuple(Pat):
    elements: List[Pat] = field(default_factory=list)


@dataclass(slots=True)
class PatPath(Pat):
    """A unit variant pattern like ``None`` or ``Ordering::Less``."""

    path: Path = None


@dataclass(slots=True)
class PatTupleStruct(Pat):
    """``Some(x)``, ``Ok(v)``, ``Err(e)``, user tuple-variants."""

    path: Path = None
    elements: List[Pat] = field(default_factory=list)


@dataclass(slots=True)
class PatStruct(Pat):
    """``Point { x, y }`` patterns."""

    path: Path = None
    fields: List[Tuple[str, Pat]] = field(default_factory=list)
    has_rest: bool = False


@dataclass(slots=True)
class PatRef(Pat):
    inner: Pat = None
    mutability: Mutability = Mutability.NOT


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class BinOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    REM = "%"
    AND = "&&"
    OR = "||"
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


class UnOp(enum.Enum):
    NEG = "-"
    NOT = "!"
    DEREF = "*"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class Literal(Expr):
    value: object = None
    suffix: Optional[str] = None


@dataclass(slots=True)
class PathExpr(Expr):
    path: Path = None


@dataclass(slots=True)
class Unary(Expr):
    op: UnOp = None
    operand: Expr = None


@dataclass(slots=True)
class Binary(Expr):
    op: BinOp = None
    left: Expr = None
    right: Expr = None


@dataclass(slots=True)
class Assign(Expr):
    target: Expr = None
    value: Expr = None


@dataclass(slots=True)
class CompoundAssign(Expr):
    op: BinOp = None
    target: Expr = None
    value: Expr = None


@dataclass(slots=True)
class Call(Expr):
    callee: Expr = None
    args: List[Expr] = field(default_factory=list)


@dataclass(slots=True)
class MethodCall(Expr):
    receiver: Expr = None
    method: str = ""
    args: List[Expr] = field(default_factory=list)
    generic_args: List[Ty] = field(default_factory=list)


@dataclass(slots=True)
class FieldAccess(Expr):
    base: Expr = None
    field_name: str = ""


@dataclass(slots=True)
class TupleIndex(Expr):
    base: Expr = None
    index: int = 0


@dataclass(slots=True)
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass(slots=True)
class Reference(Expr):
    """``&x`` / ``&mut x`` / ``&raw const x`` approximated by Ref."""

    operand: Expr = None
    mutability: Mutability = Mutability.NOT


@dataclass(slots=True)
class Cast(Expr):
    operand: Expr = None
    target_ty: Ty = None


@dataclass(slots=True)
class StructLiteral(Expr):
    path: Path = None
    fields: List[Tuple[str, Expr]] = field(default_factory=list)
    base: Optional[Expr] = None       # ..rest


@dataclass(slots=True)
class TupleLiteral(Expr):
    elements: List[Expr] = field(default_factory=list)


@dataclass(slots=True)
class ArrayLiteral(Expr):
    elements: List[Expr] = field(default_factory=list)
    repeat: Optional[Tuple[Expr, Expr]] = None   # [elem; count]


@dataclass(slots=True)
class Range(Expr):
    lo: Optional[Expr] = None
    hi: Optional[Expr] = None
    inclusive: bool = False


@dataclass(slots=True)
class Block(Expr):
    statements: List["Stmt"] = field(default_factory=list)
    tail: Optional[Expr] = None
    is_unsafe: bool = False


@dataclass(slots=True)
class If(Expr):
    condition: Expr = None
    then_block: Block = None
    else_branch: Optional[Expr] = None   # Block or If


@dataclass(slots=True)
class IfLet(Expr):
    pattern: Pat = None
    scrutinee: Expr = None
    then_block: Block = None
    else_branch: Optional[Expr] = None


@dataclass(slots=True)
class MatchArm(Node):
    pattern: Pat = None
    guard: Optional[Expr] = None
    body: Expr = None


@dataclass(slots=True)
class Match(Expr):
    scrutinee: Expr = None
    arms: List[MatchArm] = field(default_factory=list)


@dataclass(slots=True)
class While(Expr):
    condition: Expr = None
    body: Block = None


@dataclass(slots=True)
class WhileLet(Expr):
    pattern: Pat = None
    scrutinee: Expr = None
    body: Block = None


@dataclass(slots=True)
class Loop(Expr):
    body: Block = None


@dataclass(slots=True)
class For(Expr):
    pattern: Pat = None
    iterable: Expr = None
    body: Block = None


@dataclass(slots=True)
class Break(Expr):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Continue(Expr):
    pass


@dataclass(slots=True)
class Return(Expr):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Closure(Expr):
    params: List[Tuple[str, Optional[Ty]]] = field(default_factory=list)
    body: Expr = None
    is_move: bool = False


@dataclass(slots=True)
class MacroCall(Expr):
    """``vec![..]``, ``println!(..)``, ``panic!(..)``, ... with parsed args."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)
    format_string: Optional[str] = None
    repeat: Optional[Tuple[Expr, Expr]] = None   # vec![elem; count]


@dataclass(slots=True)
class Try(Expr):
    """The ``?`` operator."""

    operand: Expr = None


@dataclass(slots=True)
class AwaitStub(Expr):
    """Parsed-but-opaque ``.await`` (kept so real-world snippets lex)."""

    operand: Expr = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class LetStmt(Stmt):
    pattern: Pat = None
    ty: Optional[Ty] = None
    init: Optional[Expr] = None
    else_block: Optional[Block] = None   # let-else


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr = None
    has_semi: bool = True


@dataclass(slots=True)
class ItemStmt(Stmt):
    item: "Item" = None


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Item(Node):
    name: str = ""
    is_pub: bool = False


@dataclass(slots=True)
class Param(Node):
    name: str = ""
    ty: Optional[Ty] = None
    mutability: Mutability = Mutability.NOT
    is_self: bool = False
    self_ref: Optional[Mutability] = None   # None = by value; NOT = &self; MUT = &mut self


@dataclass(slots=True)
class FnDef(Item):
    params: List[Param] = field(default_factory=list)
    ret_ty: Optional[Ty] = None
    body: Optional[Block] = None
    is_unsafe: bool = False
    generics: List[str] = field(default_factory=list)
    lifetimes: List[str] = field(default_factory=list)
    attrs: List[str] = field(default_factory=list)


@dataclass(slots=True)
class StructField(Node):
    name: str = ""
    ty: Ty = None
    is_pub: bool = False


@dataclass(slots=True)
class StructDef(Item):
    fields: List[StructField] = field(default_factory=list)
    generics: List[str] = field(default_factory=list)
    is_tuple: bool = False
    attrs: List[str] = field(default_factory=list)


@dataclass(slots=True)
class EnumVariant(Node):
    name: str = ""
    fields: List[Ty] = field(default_factory=list)     # tuple-variant payload
    discriminant: Optional[int] = None


@dataclass(slots=True)
class EnumDef(Item):
    variants: List[EnumVariant] = field(default_factory=list)
    generics: List[str] = field(default_factory=list)
    attrs: List[str] = field(default_factory=list)


@dataclass(slots=True)
class ImplBlock(Item):
    self_ty: Ty = None
    trait_path: Optional[Path] = None
    items: List[FnDef] = field(default_factory=list)
    is_unsafe: bool = False
    generics: List[str] = field(default_factory=list)


@dataclass(slots=True)
class TraitDef(Item):
    items: List[FnDef] = field(default_factory=list)
    is_unsafe: bool = False
    generics: List[str] = field(default_factory=list)


@dataclass(slots=True)
class StaticDef(Item):
    ty: Ty = None
    init: Optional[Expr] = None
    mutability: Mutability = Mutability.NOT


@dataclass(slots=True)
class ConstDef(Item):
    ty: Ty = None
    init: Optional[Expr] = None


@dataclass(slots=True)
class UseDecl(Item):
    path: Path = None


@dataclass(slots=True)
class ModDecl(Item):
    items: List[Item] = field(default_factory=list)


@dataclass(slots=True)
class Crate(Node):
    """The root of a parsed compilation unit."""

    items: List[Item] = field(default_factory=list)
    name: str = "crate"

    def walk_items(self):
        """Yield every item, flattening modules."""
        stack = list(self.items)
        while stack:
            item = stack.pop(0)
            yield item
            if isinstance(item, ModDecl):
                stack = list(item.items) + stack
