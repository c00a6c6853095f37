"""Item table: name resolution for a MiniRust crate.

Collects structs, enums, functions (free and methods), traits, statics and
``unsafe`` provenance into one flat table, lowering syntactic types to
semantic :class:`~repro.lang.types.Ty` as it goes.  Method names are keyed
``Type::method``; trait methods implemented for a type are keyed the same
way (MiniRust resolves methods by receiver type, not by trait dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.source import Span
from repro.lang.types import (
    BUILTIN_GENERICS, BUILTIN_UNITS, INT_TYPES, UNKNOWN, EnumInfo,
    StructInfo, Ty,
)


@dataclass
class FnInfo:
    """A resolved function or method: its signature, plus the syntax of
    its body until :meth:`~repro.mir.build.ProgramBuilder.build` has
    lowered it (which sets ``ast_fn`` to ``None``)."""

    key: str                       # "foo" or "Type::method"
    name: str
    ast_fn: Optional[ast.FnDef] = None
    is_extern: bool = False        # declared in an ``extern`` block
    params: List[Tuple[str, Ty, bool]] = field(default_factory=list)
    ret_ty: Ty = UNKNOWN
    is_unsafe: bool = False
    is_pub: bool = False
    is_method: bool = False
    self_ty: Optional[Ty] = None
    self_mode: Optional[str] = None    # "value" | "ref" | "ref_mut" | None
    impl_of: Optional[str] = None      # struct name for methods
    trait_name: Optional[str] = None   # trait being implemented, if any
    span: Span = Span.DUMMY
    generics: List[str] = field(default_factory=list)


@dataclass
class StaticInfo:
    name: str
    ty: Ty = UNKNOWN
    mutable: bool = False
    init: Optional[ast.Expr] = None
    span: Span = Span.DUMMY


@dataclass
class ItemTable:
    """All resolved items of one crate."""

    crate_name: str = "crate"
    structs: Dict[str, StructInfo] = field(default_factory=dict)
    enums: Dict[str, EnumInfo] = field(default_factory=dict)
    functions: Dict[str, FnInfo] = field(default_factory=dict)
    statics: Dict[str, StaticInfo] = field(default_factory=dict)
    consts: Dict[str, object] = field(default_factory=dict)
    unsafe_traits: List[str] = field(default_factory=list)
    unsafe_impls: List[Tuple[str, str]] = field(default_factory=list)  # (trait, type)

    # -- queries ------------------------------------------------------------

    def lookup_method(self, type_name: str, method: str) -> Optional[FnInfo]:
        return self.functions.get(f"{type_name}::{method}")

    def lookup_fn(self, name: str) -> Optional[FnInfo]:
        return self.functions.get(name)

    # -- type lowering ---------------------------------------------------------

    def lower_ty(self, ty: Optional[ast.Ty],
                 self_ty: Optional[Ty] = None,
                 generics: Tuple[str, ...] = ()) -> Ty:
        """Lower a syntactic type to a semantic type."""
        if ty is None:
            return UNKNOWN
        if isinstance(ty, ast.TyUnit):
            return Ty.unit()
        if isinstance(ty, ast.TyInfer):
            return UNKNOWN
        if isinstance(ty, ast.TyRef):
            return Ty.ref(self.lower_ty(ty.referent, self_ty, generics),
                          ty.mutability.is_mut)
        if isinstance(ty, ast.TyRawPtr):
            return Ty.raw_ptr(self.lower_ty(ty.pointee, self_ty, generics),
                              ty.mutability.is_mut)
        if isinstance(ty, ast.TyTuple):
            return Ty.tuple_(tuple(self.lower_ty(e, self_ty, generics)
                                   for e in ty.elements))
        if isinstance(ty, ast.TySlice):
            return Ty.slice(self.lower_ty(ty.element, self_ty, generics))
        if isinstance(ty, ast.TyArray):
            return Ty.array(self.lower_ty(ty.element, self_ty, generics))
        if isinstance(ty, ast.TyFn):
            params = tuple(self.lower_ty(p, self_ty, generics)
                           for p in ty.params)
            ret = self.lower_ty(ty.ret, self_ty, generics) if ty.ret else Ty.unit()
            return Ty.fn(params, ret)
        if isinstance(ty, ast.TyImplTrait):
            return UNKNOWN
        if isinstance(ty, ast.TyPath):
            return self._lower_path_ty(ty.path, self_ty, generics)
        return UNKNOWN

    def _lower_path_ty(self, path: ast.Path, self_ty: Optional[Ty],
                       generics: Tuple[str, ...]) -> Ty:
        last = path.last
        name = last.name
        args = tuple(self.lower_ty(a, self_ty, generics)
                     for a in last.generic_args)
        if name == "Self":
            return self_ty or UNKNOWN
        if name in generics:
            return Ty.param(name)
        if name in INT_TYPES:
            return Ty.int(name)
        if name in ("f32", "f64"):
            return Ty.float(name)
        if name == "bool":
            return Ty.bool_()
        if name == "char":
            return Ty.char_()
        if name == "str":
            return Ty.str_()
        if name == "String":
            return Ty.string()
        if name in BUILTIN_GENERICS:
            if name == "Result" and len(args) < 2:
                args = args + (UNKNOWN,) * (2 - len(args))
            elif not args:
                args = (UNKNOWN,)
            return Ty.builtin(name, args)
        if name in BUILTIN_UNITS:
            return Ty.builtin(name)
        if name in self.structs or name in self.enums:
            return Ty.adt(name, args)
        # Unknown foreign type: model as an opaque ADT so field/method calls
        # degrade gracefully instead of erroring.
        return Ty.adt(name, args)


def build_item_table(crate: ast.Crate) -> ItemTable:
    """Resolve ``crate`` into an :class:`ItemTable` (two passes)."""
    table = ItemTable(crate_name=crate.name)

    # Pass 1: collect type names so that type lowering can classify ADTs,
    # and the functions declared in ``extern`` blocks (the parser keeps
    # such a block as a module named ``extern``).
    extern_fns = set()
    for item in crate.walk_items():
        if isinstance(item, ast.ModDecl) and item.name == "extern":
            extern_fns.update(id(fn) for fn in item.items)
        elif isinstance(item, ast.StructDef):
            table.structs[item.name] = StructInfo(name=item.name,
                                                  is_tuple=item.is_tuple)
        elif isinstance(item, ast.EnumDef):
            table.enums[item.name] = EnumInfo(name=item.name)
        elif isinstance(item, ast.TraitDef):
            if item.is_unsafe:
                table.unsafe_traits.append(item.name)

    # Pass 2: lower field types, signatures, impls, statics.
    for item in crate.walk_items():
        if isinstance(item, ast.StructDef):
            info = table.structs[item.name]
            gen = tuple(item.generics)
            info.fields = [(f.name, table.lower_ty(f.ty, None, gen))
                           for f in item.fields]
        elif isinstance(item, ast.EnumDef):
            info = table.enums[item.name]
            gen = tuple(item.generics)
            info.variants = [(v.name,
                              [table.lower_ty(t, None, gen) for t in v.fields])
                             for v in item.variants]
        elif isinstance(item, ast.FnDef):
            _register_fn(table, item, prefix=None, self_ty=None,
                         is_extern=id(item) in extern_fns)
        elif isinstance(item, ast.ImplBlock):
            _register_impl(table, item)
        elif isinstance(item, ast.StaticDef):
            table.statics[item.name] = StaticInfo(
                name=item.name, ty=table.lower_ty(item.ty),
                mutable=item.mutability.is_mut, init=item.init, span=item.span)
        elif isinstance(item, ast.ConstDef):
            table.consts[item.name] = item
        elif isinstance(item, ast.TraitDef):
            for fn in item.items:
                if fn.body is not None:
                    _register_fn(table, fn, prefix=item.name, self_ty=None,
                                 trait_name=item.name)
    return table


def _register_impl(table: ItemTable, impl: ast.ImplBlock) -> None:
    self_ty = table.lower_ty(impl.self_ty, None, tuple(impl.generics))
    type_name = impl.name
    trait_name = impl.trait_path.last.name if impl.trait_path else None

    if trait_name is not None:
        struct = table.structs.get(type_name)
        if struct is not None:
            struct.traits[trait_name] = True
            if impl.is_unsafe:
                if trait_name == "Sync":
                    struct.unsafe_sync = True
                if trait_name == "Send":
                    struct.unsafe_send = True
        if impl.is_unsafe:
            table.unsafe_impls.append((trait_name, type_name))

    for fn in impl.items:
        _register_fn(table, fn, prefix=type_name, self_ty=self_ty,
                     trait_name=trait_name, generics=tuple(impl.generics))


def _register_fn(table: ItemTable, fn: ast.FnDef, prefix: Optional[str],
                 self_ty: Optional[Ty], trait_name: Optional[str] = None,
                 generics: Tuple[str, ...] = (),
                 is_extern: bool = False) -> None:
    key = f"{prefix}::{fn.name}" if prefix else fn.name
    gen = generics + tuple(fn.generics)
    params: List[Tuple[str, Ty, bool]] = []
    self_mode: Optional[str] = None
    for p in fn.params:
        if p.is_self:
            if p.self_ref is None:
                self_mode = "value"
                p_ty = self_ty or UNKNOWN
            elif p.self_ref.is_mut:
                self_mode = "ref_mut"
                p_ty = Ty.ref(self_ty or UNKNOWN, True)
            else:
                self_mode = "ref"
                p_ty = Ty.ref(self_ty or UNKNOWN, False)
            params.append(("self", p_ty, p.mutability.is_mut))
        else:
            params.append((p.name, table.lower_ty(p.ty, self_ty, gen),
                           p.mutability.is_mut))
    ret_ty = table.lower_ty(fn.ret_ty, self_ty, gen) if fn.ret_ty else Ty.unit()
    info = FnInfo(key=key, name=fn.name, ast_fn=fn, is_extern=is_extern,
                  params=params, ret_ty=ret_ty, is_unsafe=fn.is_unsafe,
                  is_pub=fn.is_pub,
                  is_method=self_mode is not None, self_ty=self_ty,
                  self_mode=self_mode, impl_of=prefix if self_ty else None,
                  trait_name=trait_name, span=fn.span, generics=list(gen))
    if key in table.functions:
        # Duplicate (e.g. cfg'd twice); keep the one with a body.
        existing = table.functions[key]
        if existing.ast_fn.body is None and fn.body is not None:
            table.functions[key] = info
    else:
        table.functions[key] = info
