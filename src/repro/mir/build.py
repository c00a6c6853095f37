"""Lowering from (resolved) AST to MIR.

The builder mirrors rustc's HAIR→MIR lowering in the aspects the paper's
analyses observe:

* **Scopes and drops.**  Every user variable gets ``StorageLive`` at its
  binding and, at scope exit, a ``Drop`` (when its type owns resources)
  followed by ``StorageDead`` — in reverse declaration order.  ``return``
  / ``break`` / ``continue`` unwind the scopes they exit.
* **Temporary lifetimes.**  Temporaries die at the end of the enclosing
  statement, *except* temporaries of a ``match`` / ``if let`` / ``while
  let`` scrutinee, which are extended to the end of the whole match — the
  exact rule the paper's Figure 8 double-lock bug depends on.
* **Moves.**  Operands of non-``Copy`` type are ``Move`` operands;
  ``Copy``-type operands are ``Copy``.  The borrow checker and the
  interpreter both key off this.
* **Unsafe provenance.**  Statements lowered inside ``unsafe`` blocks (or
  in the body of an ``unsafe fn``) are flagged ``in_unsafe``.

Deviations from rustc are deliberate and documented: ``Drop`` is a
statement (keeps CFGs small), matches lower to sequential test chains
(uniform over literal/range/enum patterns), and the ``?`` operator lowers
as ``unwrap`` (panic instead of early return).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hir.builtins import (
    MACRO_OPS, BuiltinOp, FuncRef, resolve_builtin_call, resolve_method,
)
from repro.hir.table import FnInfo, ItemTable, build_item_table
from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import CompileError
from repro.lang.source import SourceFile, Span
from repro.lang.types import BOOL, I32, UNIT, UNKNOWN, USIZE, Ty, TyKind
from repro.mir.nodes import (
    AggregateKind, BasicBlock, BinOpKind, Body, CastKind, Local, Operand,
    Place, Program, Rvalue, RvalueKind, Statement, StatementKind, Terminator,
    TerminatorKind, UnOpKind,
)

_BINOP_MAP = {
    ast.BinOp.ADD: BinOpKind.ADD, ast.BinOp.SUB: BinOpKind.SUB,
    ast.BinOp.MUL: BinOpKind.MUL, ast.BinOp.DIV: BinOpKind.DIV,
    ast.BinOp.REM: BinOpKind.REM, ast.BinOp.BIT_AND: BinOpKind.BIT_AND,
    ast.BinOp.BIT_OR: BinOpKind.BIT_OR, ast.BinOp.BIT_XOR: BinOpKind.BIT_XOR,
    ast.BinOp.SHL: BinOpKind.SHL, ast.BinOp.SHR: BinOpKind.SHR,
    ast.BinOp.EQ: BinOpKind.EQ, ast.BinOp.NE: BinOpKind.NE,
    ast.BinOp.LT: BinOpKind.LT, ast.BinOp.LE: BinOpKind.LE,
    ast.BinOp.GT: BinOpKind.GT, ast.BinOp.GE: BinOpKind.GE,
}

_CMP_OPS = {BinOpKind.EQ, BinOpKind.NE, BinOpKind.LT, BinOpKind.LE,
            BinOpKind.GT, BinOpKind.GE}


@dataclass
class _Scope:
    """One lexical scope: locals in declaration order, plus metadata."""

    locals: List[int] = field(default_factory=list)
    is_temp_scope: bool = False
    # Locals whose drop is deferred past this scope (temp extension).
    extended: Set[int] = field(default_factory=set)


@dataclass
class _LoopCtx:
    continue_block: int
    break_block: int
    scope_depth: int


class BodyBuilder:
    """Lowers one function body."""

    def __init__(self, program_builder: "ProgramBuilder", key: str,
                 fn_info: Optional[FnInfo], ast_body: ast.Block,
                 params: List[Tuple[str, Ty, bool]], ret_ty: Ty,
                 is_unsafe_fn: bool, span: Span,
                 captures: Optional[List[Tuple[str, Ty]]] = None) -> None:
        self.pb = program_builder
        self.table: ItemTable = program_builder.table
        self.fn_info = fn_info
        self.ast_body = ast_body
        self.body = Body(key=key, name=key.split("::")[-1],
                         span=span, is_unsafe_fn=is_unsafe_fn, ret_ty=ret_ty,
                         source_name=program_builder.source.name
                         if program_builder.source else "<input>")
        if fn_info is not None:
            self.body.self_ty = fn_info.self_ty
            self.body.self_mode = fn_info.self_mode
        # _0: return place.
        self.body.locals.append(Local(0, ret_ty, name=None, span=span))
        self.var_stack: List[Dict[str, int]] = [{}]
        self.scopes: List[_Scope] = []
        self.loop_stack: List[_LoopCtx] = []
        self.unsafe_depth = 1 if is_unsafe_fn else 0
        # Spans of the unsafe regions currently open; the top of the stack
        # is what statements/terminators record as their enclosing region.
        self.unsafe_span_stack: List[Span] = [span] if is_unsafe_fn else []
        if fn_info is not None:
            self.body.is_pub = getattr(fn_info, "is_pub", False)
        self.closure_counter = 0
        self._static_locals: Dict[str, int] = {}
        # Temps whose value was moved out; their scope-exit Drop is elided
        # (rustc's drop elaboration via drop flags, simplified).
        self.moved_locals: Set[int] = set()

        # Arguments.
        for p_name, p_ty, p_mut in params:
            local = self.new_local(p_ty, name=p_name, span=span, mutable=p_mut)
            local_obj = self.body.locals[local]
            local_obj.is_arg = True
            self.var_stack[-1][p_name] = local
        self.body.arg_count = len(params)
        if captures:
            for c_name, c_ty in captures:
                local = self.new_local(c_ty, name=c_name, span=span,
                                       mutable=True)
                self.body.locals[local].is_arg = True
                self.var_stack[-1][c_name] = local
                self.body.captures.append(c_name)
            self.body.arg_count += len(captures)

        self.current: Optional[BasicBlock] = self.body.new_block()

    # -- plumbing ---------------------------------------------------------

    def new_local(self, ty: Ty, name: Optional[str] = None,
                  span: Span = Span.DUMMY, temp: bool = False,
                  mutable: bool = False) -> int:
        index = len(self.body.locals)
        self.body.locals.append(Local(index, ty, name=name, is_temp=temp,
                                      mutable=mutable, span=span))
        return index

    def local_ty(self, index: int) -> Ty:
        return self.body.local_ty(index)

    def set_local_ty(self, index: int, ty: Ty) -> None:
        if not ty.is_unknown:
            self.body.locals[index].ty = ty

    def emit(self, stmt: Statement) -> None:
        if self.current is not None:
            stmt.in_unsafe = self.unsafe_depth > 0
            if stmt.in_unsafe and self.unsafe_span_stack:
                stmt.unsafe_span = self.unsafe_span_stack[-1]
            if stmt.rvalue is not None:
                self._note_moves(stmt.rvalue.operands)
            self.current.statements.append(stmt)

    def assign(self, place: Place, rvalue: Rvalue, span: Span) -> None:
        # Late type refinement: match/if results flow through temps whose
        # type is only discovered when an arm assigns into them.
        if place.is_local and self.local_ty(place.local).is_unknown \
                and rvalue.kind is RvalueKind.USE:
            self.set_local_ty(place.local,
                              self.operand_ty(rvalue.operands[0]))
        self.emit(Statement(StatementKind.ASSIGN, span=span, place=place,
                            rvalue=rvalue))

    def terminate(self, term: Terminator) -> None:
        if self.current is not None and self.current.terminator is None:
            term.in_unsafe = self.unsafe_depth > 0
            if term.in_unsafe and self.unsafe_span_stack:
                term.unsafe_span = self.unsafe_span_stack[-1]
            self._note_moves(term.args)
            if term.discr is not None:
                self._note_moves([term.discr])
            self.current.terminator = term
        self.current = None

    def switch_to(self, block: BasicBlock) -> None:
        self.current = block

    def goto(self, block: BasicBlock, span: Span = Span.DUMMY) -> None:
        self.terminate(Terminator(TerminatorKind.GOTO, span=span,
                                  target=block.index))

    # -- scopes & drops ------------------------------------------------------

    def push_scope(self, temp: bool = False) -> _Scope:
        scope = _Scope(is_temp_scope=temp)
        self.scopes.append(scope)
        if not temp:
            self.var_stack.append(dict(self.var_stack[-1]))
        return scope

    def declare(self, local: int) -> None:
        if self.scopes:
            self.scopes[-1].locals.append(local)

    def _emit_scope_exit(self, scope: _Scope, span: Span) -> None:
        for local in reversed(scope.locals):
            if local in scope.extended:
                continue
            ty = self.local_ty(local)
            moved_temp = (local in self.moved_locals
                          and self.body.locals[local].is_temp)
            if ty.needs_drop and not moved_temp:
                self.emit(Statement(StatementKind.DROP, span=span,
                                    place=Place(local)))
            self.emit(Statement(StatementKind.STORAGE_DEAD, span=span,
                                local=local))

    def pop_scope(self, span: Span = Span.DUMMY) -> None:
        scope = self.scopes.pop()
        # Extended temps migrate to the enclosing scope, staying extended:
        # the enclosing expression still has to consume them, so their
        # storage lives until the frame is torn down (rustc would have
        # moved the value out instead; the observable event order is the
        # same).
        if scope.extended and self.scopes:
            parent = self.scopes[-1]
            for local in scope.locals:
                if local in scope.extended:
                    parent.locals.append(local)
                    parent.extended.add(local)
        self._emit_scope_exit(scope, span)
        if not scope.is_temp_scope:
            self.var_stack.pop()

    def unwind_scopes(self, down_to: int, span: Span) -> None:
        """Emit exits for scopes deeper than ``down_to`` without popping
        (used by break / continue / return)."""
        for scope in reversed(self.scopes[down_to:]):
            self._emit_scope_exit(scope, span)

    def extend_temp(self, local: int) -> None:
        """Mark a temp so the innermost temp scope does not drop it."""
        if self.scopes:
            self.scopes[-1].extended.add(local)

    # -- operand helpers -------------------------------------------------------

    def operand_for_place(self, place: Place, ty: Ty) -> Operand:
        if ty.is_copy or ty.is_unknown:
            return Operand.copy(place)
        return Operand.move(place)

    def _note_moves(self, operands) -> None:
        for op in operands:
            if op is not None and op.is_move and op.place is not None \
                    and op.place.is_local:
                self.moved_locals.add(op.place.local)

    def spill(self, rvalue: Rvalue, ty: Ty, span: Span) -> int:
        """Assign an rvalue into a fresh temp local, returning the local."""
        temp = self.new_local(ty, span=span, temp=True)
        self.declare(temp)
        self.emit(Statement(StatementKind.STORAGE_LIVE, span=span, local=temp))
        self.assign(Place(temp), rvalue, span)
        return temp

    # =====================================================================
    # Entry point
    # =====================================================================

    def build(self) -> Body:
        self.push_scope()
        result = self.lower_block_into(None, self.ast_body)
        if self.current is not None:
            if result is not None \
                    and self.body.ret_ty.kind is not TyKind.UNIT:
                self.assign(Place(0), Rvalue.use_(result), self.ast_body.span)
            elif result is not None:
                pass   # unit result, discard
            self.pop_scope(self.ast_body.span)
            self.terminate(Terminator(TerminatorKind.RETURN,
                                      span=self.ast_body.span))
        else:
            self.scopes.pop()
            self.var_stack.pop()
        # Ensure every block has a terminator (unreachable tails).
        for block in self.body.blocks:
            if block.terminator is None:
                block.terminator = Terminator(TerminatorKind.UNREACHABLE)
        return self.body

    # -- blocks and statements ----------------------------------------------

    def lower_block_into(self, dest: Optional[Place],
                         block: ast.Block) -> Optional[Operand]:
        """Lower a block; returns the tail operand (or assigns it to dest)."""
        if block.is_unsafe:
            self.unsafe_depth += 1
            self.unsafe_span_stack.append(block.span)
            self.body.has_unsafe_block = True
            self.pb.record_unsafe_block(self.body.key, block.span)
        self.push_scope()
        try:
            for stmt in block.statements:
                if self.current is None:
                    break
                self.lower_stmt(stmt)
            result: Optional[Operand] = None
            if block.tail is not None and self.current is not None:
                self.push_scope(temp=True)
                if dest is not None:
                    self.lower_expr_into(dest, block.tail)
                    result = None
                else:
                    result = self.lower_expr(block.tail)
                    result = self._materialize_tail(result, block.span)
                if self.current is not None:
                    self.pop_scope(block.span)
                else:
                    self.scopes.pop()
            return result
        finally:
            if self.current is not None:
                self.pop_scope(block.span)
            else:
                scope = self.scopes.pop()
                if not scope.is_temp_scope:
                    self.var_stack.pop()
            if block.is_unsafe:
                self.unsafe_depth -= 1
                self.unsafe_span_stack.pop()

    def _materialize_tail(self, operand: Optional[Operand],
                          span: Span) -> Optional[Operand]:
        """Copy a block's tail value into an extended temp so it survives
        the block scope's drops (and inherits the block's unsafe flag)."""
        if operand is None or operand.is_const or self.current is None:
            return operand
        if operand.place is not None and operand.place.is_local \
                and self.body.locals[operand.place.local].is_temp:
            # Already a temp holding the value: just keep it alive.
            self.extend_temp(operand.place.local)
            return operand
        ty = self.operand_ty(operand)
        temp = self.spill(Rvalue.use_(operand), ty, span)
        self.extend_temp(temp)
        return self.operand_for_place(Place(temp), ty)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.LetStmt):
            self.lower_let(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.push_scope(temp=True)
            self.lower_expr(stmt.expr, want_value=False)
            if self.current is not None:
                self.pop_scope(stmt.span)
            else:
                self.scopes.pop()
        elif isinstance(stmt, ast.ItemStmt):
            # Nested items were already collected by the item table walk.
            pass

    def lower_let(self, let: ast.LetStmt) -> None:
        declared_ty = self.table.lower_ty(
            let.ty, self.body.self_ty,
            tuple(self.fn_info.generics) if self.fn_info else ())
        pattern = let.pattern

        if let.init is None:
            # Declaration without initialiser.
            if isinstance(pattern, ast.PatIdent):
                local = self.new_local(declared_ty, name=pattern.name,
                                       span=let.span,
                                       mutable=pattern.mutability.is_mut)
                self.declare(local)
                self.var_stack[-1][pattern.name] = local
                self.emit(Statement(StatementKind.STORAGE_LIVE, span=let.span,
                                    local=local))
            return

        self.push_scope(temp=True)
        init_op = self.lower_expr(let.init)
        init_ty = self.operand_ty(init_op)
        if not declared_ty.is_unknown:
            init_ty = declared_ty

        if isinstance(pattern, ast.PatWild):
            # `let _ = expr;` drops the value immediately (end of stmt).
            if self.current is not None:
                self.pop_scope(let.span)
            else:
                self.scopes.pop()
            return

        if isinstance(pattern, ast.PatIdent):
            local = self.new_local(init_ty, name=pattern.name, span=let.span,
                                   mutable=pattern.mutability.is_mut)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=let.span,
                                local=local))
            self.assign(Place(local), Rvalue.use_(init_op), let.span)
            if self.current is not None:
                self.pop_scope(let.span)
            else:
                self.scopes.pop()
            self.declare(local)
            self.var_stack[-1][pattern.name] = local
            return

        # Destructuring patterns (tuple / struct / enum / ref).
        source_local = self._operand_to_local(init_op, init_ty, let.span)
        self.extend_temp(source_local)
        self.pop_scope(let.span)
        self.declare(source_local)
        self.bind_pattern(pattern, Place(source_local), init_ty, let.span,
                          refutable=False)

    def _operand_to_local(self, operand: Operand, ty: Ty, span: Span) -> int:
        if operand.place is not None and operand.place.is_local:
            return operand.place.local
        return self.spill(Rvalue.use_(operand), ty, span)

    # -- patterns -----------------------------------------------------------------

    def bind_pattern(self, pattern: ast.Pat, place: Place, ty: Ty,
                     span: Span, refutable: bool) -> None:
        """Bind irrefutable parts of ``pattern`` against ``place``."""
        if isinstance(pattern, (ast.PatWild, ast.PatLiteral, ast.PatRange,
                                ast.PatPath)):
            return
        if isinstance(pattern, ast.PatIdent):
            local = self.new_local(ty, name=pattern.name, span=span,
                                   mutable=pattern.mutability.is_mut)
            self.declare(local)
            self.var_stack[-1][pattern.name] = local
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=local))
            if pattern.by_ref:
                self.assign(Place(local), Rvalue.ref(place, pattern.mutability.is_mut), span)
            else:
                self.assign(Place(local), Rvalue.use_(self.operand_for_place(place, ty)), span)
            if pattern.subpattern is not None:
                self.bind_pattern(pattern.subpattern, place, ty, span, refutable)
            return
        if isinstance(pattern, ast.PatRef):
            inner_ty = ty.referent if ty.is_pointer_like else UNKNOWN
            self.bind_pattern(pattern.inner, place.deref(), inner_ty, span,
                              refutable)
            return
        if isinstance(pattern, ast.PatTuple):
            elem_tys = list(ty.args) if ty.kind is TyKind.TUPLE else []
            for i, sub in enumerate(pattern.elements):
                sub_ty = elem_tys[i] if i < len(elem_tys) else UNKNOWN
                self.bind_pattern(sub, place.field(i, str(i)), sub_ty, span,
                                  refutable)
            return
        if isinstance(pattern, ast.PatTupleStruct):
            payload_tys = self._variant_payload_tys(pattern.path, ty)
            for i, sub in enumerate(pattern.elements):
                sub_ty = payload_tys[i] if i < len(payload_tys) else UNKNOWN
                self.bind_pattern(sub, place.field(i, str(i)), sub_ty, span,
                                  refutable)
            return
        if isinstance(pattern, ast.PatStruct):
            base = ty.peel_refs()
            info = self.table.structs.get(base.name)
            for f_name, sub in pattern.fields:
                if info is not None:
                    idx = info.field_index(f_name)
                    f_ty = info.field_ty(f_name)
                else:
                    idx = None
                    f_ty = UNKNOWN
                self.bind_pattern(sub, place.field(idx if idx is not None else 0,
                                                   f_name),
                                  f_ty, span, refutable)
            return

    def _variant_payload_tys(self, path: ast.Path, scrut_ty: Ty) -> List[Ty]:
        variant = path.last.name
        base = scrut_ty.peel_refs()
        if base.kind is TyKind.BUILTIN and base.name == "Option":
            return [base.arg(0)]
        if base.kind is TyKind.BUILTIN and base.name == "Result":
            return [base.arg(0) if variant == "Ok" else base.arg(1)]
        enum_name = path.names[0] if len(path.segments) > 1 else base.name
        info = self.table.enums.get(enum_name)
        if info is not None:
            return info.variant_payload(variant)
        return []

    def _variant_index(self, path: ast.Path, scrut_ty: Ty) -> Optional[int]:
        variant = path.last.name
        base = scrut_ty.peel_refs()
        if variant in ("None", "Ok"):
            return 0
        if variant in ("Some", "Err"):
            return 1
        enum_name = path.names[0] if len(path.segments) > 1 else base.name
        info = self.table.enums.get(enum_name)
        if info is not None:
            idx = info.variant_index(variant)
            if idx is not None:
                return idx
        # Try every known enum (unqualified variant names).
        for info in self.table.enums.values():
            idx = info.variant_index(variant)
            if idx is not None:
                return idx
        return None

    def pattern_test(self, pattern: ast.Pat, place: Place, ty: Ty,
                     span: Span) -> Optional[Operand]:
        """Lower a refutability test; None when the pattern always matches."""
        if isinstance(pattern, (ast.PatWild, ast.PatIdent)):
            if isinstance(pattern, ast.PatIdent) and pattern.subpattern:
                return self.pattern_test(pattern.subpattern, place, ty, span)
            return None
        if isinstance(pattern, ast.PatLiteral):
            value_op = self.operand_for_place(place, ty)
            rv = Rvalue.binary(BinOpKind.EQ,
                               Operand.copy(place),
                               Operand.const(pattern.value))
            temp = self.spill(rv, BOOL, span)
            return Operand.copy(Place(temp))
        if isinstance(pattern, ast.PatRange):
            lo_rv = Rvalue.binary(BinOpKind.GE, Operand.copy(place),
                                  Operand.const(pattern.lo))
            lo_t = self.spill(lo_rv, BOOL, span)
            hi_op = BinOpKind.LE if pattern.inclusive else BinOpKind.LT
            hi_rv = Rvalue.binary(hi_op, Operand.copy(place),
                                  Operand.const(pattern.hi))
            hi_t = self.spill(hi_rv, BOOL, span)
            both = Rvalue.binary(BinOpKind.BIT_AND, Operand.copy(Place(lo_t)),
                                 Operand.copy(Place(hi_t)))
            temp = self.spill(both, BOOL, span)
            return Operand.copy(Place(temp))
        if isinstance(pattern, (ast.PatTupleStruct, ast.PatPath)):
            index = self._variant_index(pattern.path, ty)
            if index is None:
                return None
            discr = self.spill(Rvalue.discriminant(place), USIZE, span)
            eq = Rvalue.binary(BinOpKind.EQ, Operand.copy(Place(discr)),
                               Operand.const(index))
            temp = self.spill(eq, BOOL, span)
            cond: Optional[Operand] = Operand.copy(Place(temp))
            if isinstance(pattern, ast.PatTupleStruct):
                # Nested refutable subpatterns (e.g. Some(0)) may only be
                # evaluated once the discriminant is known to match —
                # reading the payload of the wrong variant is UB in the
                # interpreter (and nonsense in rustc's MIR).
                payload_tys = self._variant_payload_tys(pattern.path, ty)
                refutable_subs = []
                for i, sub in enumerate(pattern.elements):
                    if isinstance(sub, (ast.PatWild, ast.PatIdent)) and \
                            not (isinstance(sub, ast.PatIdent)
                                 and sub.subpattern is not None):
                        continue
                    refutable_subs.append((i, sub))
                if refutable_subs:
                    result = self.spill(Rvalue.use_(Operand.const(False)),
                                        BOOL, span)
                    then_block, else_block = self._switch_on_bool(cond, span)
                    join = self.body.new_block()
                    self.switch_to(else_block)
                    self.goto(join, span)
                    self.switch_to(then_block)
                    inner: Optional[Operand] = Operand.const(True)
                    for i, sub in refutable_subs:
                        sub_ty = payload_tys[i] if i < len(payload_tys) \
                            else UNKNOWN
                        sub_cond = self.pattern_test(
                            sub, place.field(i, str(i)), sub_ty, span)
                        if sub_cond is None:
                            continue
                        both = Rvalue.binary(BinOpKind.BIT_AND, inner,
                                             sub_cond)
                        t = self.spill(both, BOOL, span)
                        inner = Operand.copy(Place(t))
                    self.assign(Place(result), Rvalue.use_(inner), span)
                    self.goto(join, span)
                    self.switch_to(join)
                    cond = Operand.copy(Place(result))
            return cond
        if isinstance(pattern, ast.PatRef):
            inner_ty = ty.referent if ty.is_pointer_like else UNKNOWN
            return self.pattern_test(pattern.inner, place.deref(), inner_ty,
                                     span)
        if isinstance(pattern, ast.PatTuple):
            cond: Optional[Operand] = None
            elem_tys = list(ty.args) if ty.kind is TyKind.TUPLE else []
            for i, sub in enumerate(pattern.elements):
                sub_ty = elem_tys[i] if i < len(elem_tys) else UNKNOWN
                sub_cond = self.pattern_test(sub, place.field(i, str(i)),
                                             sub_ty, span)
                if sub_cond is None:
                    continue
                if cond is None:
                    cond = sub_cond
                else:
                    both = Rvalue.binary(BinOpKind.BIT_AND, cond, sub_cond)
                    t = self.spill(both, BOOL, span)
                    cond = Operand.copy(Place(t))
            return cond
        if isinstance(pattern, ast.PatStruct):
            return None
        return None

    # =====================================================================
    # Expressions
    # =====================================================================

    def operand_ty(self, operand: Operand) -> Ty:
        if operand.is_const:
            return operand.constant.ty
        return self.place_ty(operand.place)

    def place_ty(self, place: Place) -> Ty:
        ty = self.local_ty(place.local)
        for proj in place.projection:
            if proj.kind == "deref":
                if ty.is_pointer_like:
                    ty = ty.referent
                elif ty.kind is TyKind.BUILTIN and ty.name in (
                        "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard",
                        "Ref", "RefMut", "Box", "Rc", "Arc", "ManuallyDrop"):
                    ty = ty.arg(0)
                else:
                    ty = UNKNOWN
            elif proj.kind == "field":
                base = ty.peel_refs().peel_wrappers(
                    ("Box", "Rc", "Arc", "MutexGuard", "RwLockReadGuard",
                     "RwLockWriteGuard", "Ref", "RefMut"))
                if base.kind is TyKind.ADT:
                    info = self.table.structs.get(base.name)
                    if info is not None and proj.field_name:
                        ty = info.field_ty(proj.field_name)
                    elif info is not None and proj.field_index < len(info.fields):
                        ty = info.fields[proj.field_index][1]
                    else:
                        ty = UNKNOWN
                elif base.kind is TyKind.TUPLE:
                    ty = base.arg(proj.field_index)
                elif base.kind is TyKind.BUILTIN and base.name in ("Option", "Result"):
                    ty = base.arg(proj.field_index)
                else:
                    ty = UNKNOWN
            elif proj.kind == "index":
                base = ty.peel_refs()
                if base.kind in (TyKind.SLICE, TyKind.ARRAY) or \
                        (base.kind is TyKind.BUILTIN and base.name in ("Vec", "VecDeque")):
                    ty = base.arg(0)
                else:
                    ty = UNKNOWN
        return ty

    def lower_expr(self, expr: ast.Expr, want_value: bool = True) -> Operand:
        """Lower an expression to an operand."""
        span = expr.span

        if isinstance(expr, ast.Literal):
            ty = self._literal_ty(expr)
            return Operand.const(expr.value, ty)

        if isinstance(expr, ast.PathExpr):
            return self.lower_path_expr(expr)

        if isinstance(expr, (ast.FieldAccess, ast.TupleIndex, ast.Index)):
            place = self.lower_place(expr)
            ty = self.place_ty(place)
            return self.operand_for_place(place, ty)

        if isinstance(expr, ast.Unary):
            if expr.op is ast.UnOp.DEREF:
                place = self.lower_place(expr)
                ty = self.place_ty(place)
                return self.operand_for_place(place, ty)
            operand = self.lower_expr(expr.operand)
            op = UnOpKind.NEG if expr.op is ast.UnOp.NEG else UnOpKind.NOT
            ty = self.operand_ty(operand)
            temp = self.spill(Rvalue.unary(op, operand), ty, span)
            return Operand.copy(Place(temp))

        if isinstance(expr, ast.Binary):
            return self.lower_binary(expr)

        if isinstance(expr, ast.Assign):
            place = self.lower_place(expr.target)
            self.lower_expr_into(place, expr.value)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.CompoundAssign):
            place = self.lower_place(expr.target)
            ty = self.place_ty(place)
            rhs = self.lower_expr(expr.value)
            rv = Rvalue.binary(_BINOP_MAP[expr.op], Operand.copy(place), rhs)
            self.assign(place, rv, span)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.Reference):
            place = self.lower_place(expr.operand)
            ty = self.place_ty(place)
            ref_ty = Ty.ref(ty, expr.mutability.is_mut)
            temp = self.spill(Rvalue.ref(place, expr.mutability.is_mut),
                              ref_ty, span)
            return Operand.copy(Place(temp))

        if isinstance(expr, ast.Cast):
            return self.lower_cast(expr)

        if isinstance(expr, ast.Call):
            return self.lower_call(expr)

        if isinstance(expr, ast.MethodCall):
            return self.lower_method_call(expr)

        if isinstance(expr, ast.StructLiteral):
            return self.lower_struct_literal(expr)

        if isinstance(expr, ast.TupleLiteral):
            operands = tuple(self.lower_expr(e) for e in expr.elements)
            tys = tuple(self.operand_ty(o) for o in operands)
            ty = Ty.tuple_(tys) if operands else UNIT
            if not operands:
                return Operand.const(None, UNIT)
            temp = self.spill(Rvalue.aggregate(AggregateKind.TUPLE, operands),
                              ty, span)
            return self.operand_for_place(Place(temp), ty)

        if isinstance(expr, ast.ArrayLiteral):
            if expr.repeat is not None:
                elem, count = expr.repeat
                elem_op = self.lower_expr(elem)
                count_op = self.lower_expr(count)
                ty = Ty.array(self.operand_ty(elem_op))
                temp = self.spill(Rvalue.repeat(elem_op, count_op), ty, span)
                return self.operand_for_place(Place(temp), ty)
            operands = tuple(self.lower_expr(e) for e in expr.elements)
            elem_ty = self.operand_ty(operands[0]) if operands else UNKNOWN
            arr_ty = Ty.array(elem_ty)
            temp = self.spill(Rvalue.aggregate(AggregateKind.ARRAY, operands),
                              arr_ty, span)
            return self.operand_for_place(Place(temp), arr_ty)

        if isinstance(expr, ast.Range):
            lo = self.lower_expr(expr.lo) if expr.lo else Operand.const(0, USIZE)
            hi = self.lower_expr(expr.hi) if expr.hi else Operand.const(None)
            ty = Ty.adt("Range", (self.operand_ty(lo),))
            temp = self.spill(Rvalue.aggregate(
                AggregateKind.STRUCT, (lo, hi, Operand.const(expr.inclusive)),
                name="Range"), ty, span)
            return Operand.copy(Place(temp))

        if isinstance(expr, ast.Block):
            result = self.lower_block_into(None, expr)
            return result if result is not None else Operand.const(None, UNIT)

        if isinstance(expr, ast.If):
            return self.lower_if(expr, want_value)

        if isinstance(expr, ast.IfLet):
            return self.lower_if_let(expr, want_value)

        if isinstance(expr, ast.Match):
            return self.lower_match(expr, want_value)

        if isinstance(expr, (ast.While, ast.WhileLet, ast.Loop, ast.For)):
            self.lower_loop_expr(expr)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.Break):
            self.lower_break(expr)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.Continue):
            self.lower_continue(expr)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.Return):
            self.lower_return(expr)
            return Operand.const(None, UNIT)

        if isinstance(expr, ast.Closure):
            return self.lower_closure(expr)

        if isinstance(expr, ast.MacroCall):
            return self.lower_macro(expr)

        if isinstance(expr, ast.Try):
            # `expr?` lowered as unwrap (documented deviation).
            inner = self.lower_expr(expr.operand)
            inner_ty = self.operand_ty(inner)
            ret = inner_ty.arg(0) if inner_ty.kind is TyKind.BUILTIN else UNKNOWN
            temp = self.new_local(ret, span=span, temp=True)
            self.declare(temp)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span, local=temp))
            self.call(FuncRef.builtin(BuiltinOp.UNWRAP), [inner], Place(temp),
                      span)
            return Operand.copy(Place(temp))

        if isinstance(expr, ast.AwaitStub):
            return self.lower_expr(expr.operand)

        raise CompileError(f"cannot lower expression {type(expr).__name__}",
                           span, self.pb.source)

    @staticmethod
    def _literal_ty(lit: ast.Literal) -> Ty:
        if isinstance(lit.value, bool):
            return BOOL
        if isinstance(lit.value, int):
            return Ty.int(lit.suffix) if lit.suffix else I32
        if isinstance(lit.value, float):
            return Ty.float("f64")
        if isinstance(lit.value, str):
            return Ty.ref(Ty.str_())
        return UNKNOWN

    def lower_expr_into(self, dest: Place, expr: ast.Expr) -> None:
        """Lower ``expr`` writing the result directly into ``dest``."""
        if isinstance(expr, (ast.If, ast.IfLet, ast.Match, ast.Block)):
            if isinstance(expr, ast.Block):
                result = self.lower_block_into(dest, expr)
                if result is not None:
                    self.assign(dest, Rvalue.use_(result), expr.span)
                return
            if isinstance(expr, ast.If):
                self.lower_if(expr, want_value=True, dest=dest)
                return
            if isinstance(expr, ast.IfLet):
                self.lower_if_let(expr, want_value=True, dest=dest)
                return
            self.lower_match(expr, want_value=True, dest=dest)
            return
        operand = self.lower_expr(expr)
        if self.current is not None:
            self.assign(dest, Rvalue.use_(operand), expr.span)

    # -- places ------------------------------------------------------------------

    def lower_place(self, expr: ast.Expr) -> Place:
        span = expr.span
        if isinstance(expr, ast.PathExpr):
            name = expr.path.as_str()
            if name in self.var_stack[-1]:
                return Place(self.var_stack[-1][name])
            if name in self.table.statics or name.split("::")[-1] in self.table.statics:
                return Place(self.static_local(name.split("::")[-1], span))
            # Fall through: evaluate as expression into temp.
            operand = self.lower_path_expr(expr)
            return self._operand_place(operand, span)
        if isinstance(expr, ast.FieldAccess):
            base = self.lower_place(expr.base)
            base = self._autoderef(base)
            base_ty = self.place_ty(base).peel_refs()
            index = 0
            info = self.table.structs.get(base_ty.name)
            if info is not None:
                idx = info.field_index(expr.field_name)
                if idx is not None:
                    index = idx
            return base.field(index, expr.field_name)
        if isinstance(expr, ast.TupleIndex):
            base = self._autoderef(self.lower_place(expr.base))
            return base.field(expr.index, str(expr.index))
        if isinstance(expr, ast.Index):
            base = self._autoderef(self.lower_place(expr.base))
            index_op = self.lower_expr(expr.index)
            base_ty = self.place_ty(base)
            self._emit_bounds_check(base, index_op, span)
            if index_op.is_const:
                return base.index_by(const=index_op.constant.value)
            idx_local = self._operand_to_local(index_op, USIZE, span)
            return base.index_by(local=idx_local)
        if isinstance(expr, ast.Unary) and expr.op is ast.UnOp.DEREF:
            inner = self.lower_place(expr.operand)
            return inner.deref()
        if isinstance(expr, ast.Block) and expr.is_unsafe:
            self.unsafe_depth += 1
            self.unsafe_span_stack.append(expr.span)
            self.body.has_unsafe_block = True
            self.pb.record_unsafe_block(self.body.key, expr.span)
            try:
                if expr.tail is not None and not expr.statements:
                    return self.lower_place(expr.tail)
                operand = self.lower_expr(expr)
                return self._operand_place(operand, span)
            finally:
                self.unsafe_depth -= 1
                self.unsafe_span_stack.pop()
        operand = self.lower_expr(expr)
        return self._operand_place(operand, span)

    def _autoderef(self, place: Place) -> Place:
        """Insert the deref projections rustc's autoderef would: through
        references, Box/Rc/Arc, and lock guards."""
        deref_wrappers = ("Box", "Rc", "Arc", "MutexGuard",
                          "RwLockReadGuard", "RwLockWriteGuard", "Ref",
                          "RefMut", "ManuallyDrop")
        for _ in range(4):
            ty = self.place_ty(place)
            if ty.is_ref:
                place = place.deref()
                continue
            if ty.kind is TyKind.BUILTIN and ty.name in deref_wrappers:
                place = place.deref()
                continue
            break
        return place

    def _operand_place(self, operand: Operand, span: Span) -> Place:
        if operand.place is not None:
            return operand.place
        ty = self.operand_ty(operand)
        temp = self.spill(Rvalue.use_(operand), ty, span)
        return Place(temp)

    def _emit_bounds_check(self, base: Place, index_op: Operand,
                           span: Span) -> None:
        """`v[i]` bounds assertion — the safe-Rust check the paper's §4.1
        performance experiments measure."""
        if not self.pb.emit_bounds_checks:
            return
        len_temp = self.spill(Rvalue.len_(base), USIZE, span)
        cond = self.spill(Rvalue.binary(BinOpKind.LT, index_op,
                                        Operand.copy(Place(len_temp))),
                          BOOL, span)
        ok_block = self.body.new_block()
        self.terminate(Terminator(
            TerminatorKind.ASSERT, span=span, cond=Operand.copy(Place(cond)),
            expected=True, target=ok_block.index,
            msg="index out of bounds"))
        self.switch_to(ok_block)

    def static_local(self, name: str, span: Span) -> int:
        if name in self._static_locals:
            return self._static_locals[name]
        info = self.table.statics[name]
        local = self.new_local(info.ty, name=f"static:{name}", span=span,
                               mutable=info.mutable)
        self._static_locals[name] = local
        return local

    # -- paths as expressions -----------------------------------------------------

    def lower_path_expr(self, expr: ast.PathExpr) -> Operand:
        span = expr.span
        path = expr.path
        name = path.as_str()
        if name in self.var_stack[-1]:
            local = self.var_stack[-1][name]
            return self.operand_for_place(Place(local), self.local_ty(local))
        last = path.last.name
        if last in self.table.statics or name in self.table.statics:
            local = self.static_local(last if last in self.table.statics else name, span)
            return Operand.copy(Place(local))
        if name in self.table.consts or last in self.table.consts:
            const = self.table.consts.get(name) or self.table.consts.get(last)
            if isinstance(const, ast.ConstDef) and const.init is not None:
                return self.lower_expr(const.init)
        # Unit enum variants (None, Enum::Variant).
        variant_index = self._unit_variant_index(path)
        if variant_index is not None:
            ty = self._enum_ty_for_path(path)
            temp = self.spill(Rvalue.aggregate(AggregateKind.ENUM, (),
                                               name=path.as_str(),
                                               variant_index=variant_index),
                              ty, span)
            return Operand.copy(Place(temp))
        # Function reference (fn pointer value).
        fn = self.table.lookup_fn(name) or self.table.lookup_fn(last)
        if fn is not None:
            return Operand.const(("fn", fn.key), Ty.fn((), fn.ret_ty))
        return Operand.const(("path", name), UNKNOWN)

    def _unit_variant_index(self, path: ast.Path) -> Optional[int]:
        last = path.last.name
        if last == "None":
            return 0
        if len(path.segments) >= 2:
            enum_name = path.segments[-2].name
            info = self.table.enums.get(enum_name)
            if info is not None:
                return info.variant_index(last)
        info = None
        for candidate in self.table.enums.values():
            idx = candidate.variant_index(last)
            if idx is not None and not candidate.variant_payload(last):
                return idx
        return None

    def _enum_ty_for_path(self, path: ast.Path) -> Ty:
        last = path.last.name
        if last in ("None", "Some"):
            return Ty.builtin("Option", (UNKNOWN,))
        if last in ("Ok", "Err"):
            return Ty.builtin("Result", (UNKNOWN, UNKNOWN))
        if len(path.segments) >= 2 and path.segments[-2].name in self.table.enums:
            return Ty.adt(path.segments[-2].name)
        for name, info in self.table.enums.items():
            if info.variant_index(last) is not None:
                return Ty.adt(name)
        return UNKNOWN

    # -- binary / cast -----------------------------------------------------------

    def lower_binary(self, expr: ast.Binary) -> Operand:
        span = expr.span
        if expr.op in (ast.BinOp.AND, ast.BinOp.OR):
            # Short-circuit lowering.
            result = self.new_local(BOOL, span=span, temp=True)
            self.declare(result)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=result))
            left = self.lower_expr(expr.left)
            self.assign(Place(result), Rvalue.use_(left), span)
            rhs_block = self.body.new_block()
            join_block = self.body.new_block()
            if expr.op is ast.BinOp.AND:
                targets = [(0, join_block.index)]      # false → short circuit
                otherwise = rhs_block.index
            else:
                targets = [(0, rhs_block.index)]       # false → evaluate rhs
                otherwise = join_block.index
            self.terminate(Terminator(TerminatorKind.SWITCH_INT, span=span,
                                      discr=Operand.copy(Place(result)),
                                      switch_targets=targets,
                                      otherwise=otherwise))
            self.switch_to(rhs_block)
            right = self.lower_expr(expr.right)
            if self.current is not None:
                self.assign(Place(result), Rvalue.use_(right), span)
                self.goto(join_block, span)
            self.switch_to(join_block)
            return Operand.copy(Place(result))

        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        op = _BINOP_MAP[expr.op]
        ty = BOOL if op in _CMP_OPS else self.operand_ty(left)
        temp = self.spill(Rvalue.binary(op, left, right), ty, span)
        return Operand.copy(Place(temp))

    def lower_cast(self, expr: ast.Cast) -> Operand:
        span = expr.span
        operand = self.lower_expr(expr.operand)
        src_ty = self.operand_ty(operand)
        dst_ty = self.table.lower_ty(expr.target_ty, self.body.self_ty,
                                     tuple(self.fn_info.generics)
                                     if self.fn_info else ())
        if src_ty.is_ref and dst_ty.is_raw_ptr:
            kind = CastKind.REF_TO_RAW
        elif src_ty.is_raw_ptr and dst_ty.is_raw_ptr:
            kind = CastKind.RAW_TO_RAW
        elif src_ty.is_raw_ptr and dst_ty.kind is TyKind.INT:
            kind = CastKind.RAW_TO_INT
        elif src_ty.kind is TyKind.INT and dst_ty.is_raw_ptr:
            kind = CastKind.INT_TO_RAW
        elif src_ty.kind is TyKind.INT and dst_ty.kind is TyKind.INT:
            kind = CastKind.NUMERIC
        else:
            kind = CastKind.OTHER
        temp = self.spill(Rvalue.cast(operand, kind, dst_ty), dst_ty, span)
        return Operand.copy(Place(temp))

    # -- calls ---------------------------------------------------------------------

    def call(self, func: FuncRef, args: List[Operand], dest: Place,
             span: Span) -> None:
        next_block = self.body.new_block()
        self.terminate(Terminator(TerminatorKind.CALL, span=span, func=func,
                                  args=args, destination=dest,
                                  target=next_block.index))
        self.switch_to(next_block)

    def _fresh_call_dest(self, ty: Ty, span: Span) -> Place:
        temp = self.new_local(ty, span=span, temp=True)
        self.declare(temp)
        self.emit(Statement(StatementKind.STORAGE_LIVE, span=span, local=temp))
        return Place(temp)

    def lower_call(self, expr: ast.Call) -> Operand:
        span = expr.span
        callee = expr.callee

        if isinstance(callee, ast.PathExpr):
            path = callee.path
            name = path.as_str()
            last = path.last.name

            # Closure / fn-pointer variable call.
            if name in self.var_stack[-1]:
                local = self.var_stack[-1][name]
                local_ty = self.local_ty(local)
                args = [self.lower_expr(a) for a in expr.args]
                if local_ty.kind is TyKind.CLOSURE:
                    func = FuncRef.closure(local_ty.name)
                else:
                    func = FuncRef.unknown(name)
                args.insert(0, Operand.copy(Place(local)))
                dest = self._fresh_call_dest(UNKNOWN, span)
                self.call(func, args, dest, span)
                return Operand.copy(dest)

            # Enum variant constructors (Some / Ok / Err / user variants).
            variant = self._callable_variant(path)
            if variant is not None:
                index, enum_ty = variant
                operands = tuple(self.lower_expr(a) for a in expr.args)
                if enum_ty.kind is TyKind.BUILTIN and operands:
                    payload_ty = self.operand_ty(operands[0])
                    if enum_ty.name == "Option":
                        enum_ty = Ty.builtin("Option", (payload_ty,))
                    elif enum_ty.name == "Result" and last == "Ok":
                        enum_ty = Ty.builtin("Result", (payload_ty, UNKNOWN))
                    elif enum_ty.name == "Result":
                        enum_ty = Ty.builtin("Result", (UNKNOWN, payload_ty))
                temp = self.spill(Rvalue.aggregate(AggregateKind.ENUM, operands,
                                                   name=name,
                                                   variant_index=index),
                                  enum_ty, span)
                return self.operand_for_place(Place(temp), enum_ty)

            # Tuple-struct constructor.
            info = self.table.structs.get(last)
            if info is not None and info.is_tuple:
                operands = tuple(self.lower_expr(a) for a in expr.args)
                struct_ty = Ty.adt(last)
                temp = self.spill(Rvalue.aggregate(AggregateKind.STRUCT,
                                                   operands, name=last),
                                  struct_ty, span)
                return self.operand_for_place(Place(temp), struct_ty)

            # User function (free or associated).
            fn = self._lookup_user_fn(path)
            if fn is not None:
                args = [self.lower_expr(a) for a in expr.args]
                dest = self._fresh_call_dest(fn.ret_ty, span)
                # A function of an ``extern`` block has no MIR body: a
                # call to it is a call into foreign code.
                func = FuncRef.builtin(BuiltinOp.FFI, fn.key, fn.is_unsafe) \
                    if fn.is_extern else FuncRef.user(fn.key, fn.is_unsafe)
                self.call(func, args, dest, span)
                return self.operand_for_place(dest, fn.ret_ty)

            # Builtin path call.
            generics = [self.table.lower_ty(t) for seg in path.segments
                        for t in seg.generic_args]
            args = [self.lower_expr(a) for a in expr.args]
            arg_tys = [self.operand_ty(a) for a in args]
            resolved = resolve_builtin_call(name, generics, arg_tys)
            if resolved is not None:
                func, ret_ty = resolved
                dest = self._fresh_call_dest(ret_ty, span)
                self.call(func, args, dest, span)
                return self.operand_for_place(dest, ret_ty)

            # Unknown foreign call.
            args = [self.lower_expr(a) for a in expr.args]
            dest = self._fresh_call_dest(UNKNOWN, span)
            self.call(FuncRef.unknown(name), args, dest, span)
            return Operand.copy(dest)

        # Calling a non-path callee (e.g. a just-built closure).
        callee_op = self.lower_expr(callee)
        callee_ty = self.operand_ty(callee_op)
        args = [self.lower_expr(a) for a in expr.args]
        if callee_ty.kind is TyKind.CLOSURE:
            func = FuncRef.closure(callee_ty.name)
        else:
            func = FuncRef.unknown("<indirect>")
        args.insert(0, callee_op)
        dest = self._fresh_call_dest(UNKNOWN, span)
        self.call(func, args, dest, span)
        return Operand.copy(dest)

    def _callable_variant(self, path: ast.Path) -> Optional[Tuple[int, Ty]]:
        last = path.last.name
        if last == "Some":
            return 1, Ty.builtin("Option", (UNKNOWN,))
        if last == "Ok":
            return 0, Ty.builtin("Result", (UNKNOWN, UNKNOWN))
        if last == "Err":
            return 1, Ty.builtin("Result", (UNKNOWN, UNKNOWN))
        if len(path.segments) >= 2:
            enum_name = path.segments[-2].name
            info = self.table.enums.get(enum_name)
            if info is not None:
                idx = info.variant_index(last)
                if idx is not None:
                    return idx, Ty.adt(enum_name)
        if last and last[0].isupper():
            for name, info in self.table.enums.items():
                idx = info.variant_index(last)
                if idx is not None:
                    return idx, Ty.adt(name)
        return None

    def _lookup_user_fn(self, path: ast.Path) -> Optional[FnInfo]:
        name = path.as_str()
        fn = self.table.lookup_fn(name)
        if fn is not None:
            return fn
        last = path.last.name
        fn = self.table.lookup_fn(last)
        if fn is not None:
            return fn
        if len(path.segments) >= 2:
            two = f"{path.segments[-2].name}::{last}"
            if path.segments[-2].name == "Self" and self.body.self_ty:
                two = f"{self.body.self_ty.name}::{last}"
            fn = self.table.lookup_fn(two)
            if fn is not None:
                return fn
        return None

    def lower_method_call(self, expr: ast.MethodCall) -> Operand:
        span = expr.span
        recv_place = self.lower_place(expr.receiver)
        recv_ty = self.place_ty(recv_place)
        base_ty = recv_ty.peel_borrows().peel_wrappers()

        # User-defined method?
        adt_name = base_ty.name if base_ty.kind is TyKind.ADT else None
        if adt_name:
            fn = self.table.lookup_method(adt_name, expr.method)
            if fn is not None:
                args: List[Operand] = []
                if fn.self_mode == "value":
                    args.append(self.operand_for_place(recv_place, recv_ty))
                elif fn.self_mode == "ref_mut":
                    temp = self.spill(Rvalue.ref(recv_place, True),
                                      Ty.ref(base_ty, True), span)
                    args.append(Operand.copy(Place(temp)))
                else:
                    temp = self.spill(Rvalue.ref(recv_place, False),
                                      Ty.ref(base_ty), span)
                    args.append(Operand.copy(Place(temp)))
                args.extend(self.lower_expr(a) for a in expr.args)
                dest = self._fresh_call_dest(fn.ret_ty, span)
                self.call(FuncRef.user(fn.key, fn.is_unsafe), args, dest, span)
                return self.operand_for_place(dest, fn.ret_ty)

        # Builtin method.
        args_ops = [self.lower_expr(a) for a in expr.args]
        arg_tys = [self.operand_ty(a) for a in args_ops]
        lock_base = recv_ty.peel_borrows().peel_wrappers()
        resolved = resolve_method(lock_base, expr.method, arg_tys)
        if resolved is not None:
            func, ret_ty = resolved
            ref_temp = self.spill(Rvalue.ref(recv_place, False),
                                  Ty.ref(lock_base), span)
            call_args = [Operand.copy(Place(ref_temp))] + args_ops
            dest = self._fresh_call_dest(ret_ty, span)
            self.call(func, call_args, dest, span)
            return self.operand_for_place(dest, ret_ty)

        # Unknown method — still record the call for the call graph.
        ref_temp = self.spill(Rvalue.ref(recv_place, False),
                              Ty.ref(base_ty), span)
        call_args = [Operand.copy(Place(ref_temp))] + args_ops
        dest = self._fresh_call_dest(UNKNOWN, span)
        self.call(FuncRef.unknown(expr.method), call_args, dest, span)
        return Operand.copy(dest)

    def lower_struct_literal(self, expr: ast.StructLiteral) -> Operand:
        span = expr.span
        name = expr.path.last.name
        info = self.table.structs.get(name)
        field_ops: Dict[str, Operand] = {}
        for f_name, f_expr in expr.fields:
            field_ops[f_name] = self.lower_expr(f_expr)
        base_op: Optional[Operand] = None
        if expr.base is not None:
            base_op = self.lower_expr(expr.base)
        if info is not None:
            ordered = []
            for f_name, _f_ty in info.fields:
                if f_name in field_ops:
                    ordered.append(field_ops[f_name])
                elif base_op is not None and base_op.place is not None:
                    idx = info.field_index(f_name)
                    ordered.append(Operand.copy(
                        base_op.place.field(idx, f_name)))
                else:
                    ordered.append(Operand.const(None))
            operands = tuple(ordered)
        else:
            operands = tuple(field_ops.values())
        struct_ty = Ty.adt(name)
        temp = self.spill(Rvalue.aggregate(AggregateKind.STRUCT, operands,
                                           name=name),
                          struct_ty, span)
        return self.operand_for_place(Place(temp), struct_ty)

    # -- control flow -----------------------------------------------------------------

    def _switch_on_bool(self, cond: Operand, span: Span) -> Tuple[BasicBlock, BasicBlock]:
        then_block = self.body.new_block()
        else_block = self.body.new_block()
        self.terminate(Terminator(TerminatorKind.SWITCH_INT, span=span,
                                  discr=cond,
                                  switch_targets=[(0, else_block.index)],
                                  otherwise=then_block.index))
        return then_block, else_block

    def lower_if(self, expr: ast.If, want_value: bool,
                 dest: Optional[Place] = None) -> Operand:
        span = expr.span
        if want_value and dest is None:
            result = self.new_local(UNKNOWN, span=span, temp=True)
            self.declare(result)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=result))
            dest = Place(result)
        # Condition temps die before branching (Rust's rule for `if`) —
        # except the boolean itself, which the switch still consumes.
        self.push_scope(temp=True)
        cond = self.lower_expr(expr.condition)
        if cond.place is not None:
            self.extend_temp(cond.place.local)
        if self.current is None:
            self.scopes.pop()
            return Operand.const(None, UNIT)
        self.pop_scope(span)
        then_block, else_block = self._switch_on_bool(cond, span)
        join_block = self.body.new_block()

        self.switch_to(then_block)
        if want_value and dest is not None:
            self.lower_expr_into(dest, expr.then_block)
        else:
            self.lower_block_into(None, expr.then_block)
        if self.current is not None:
            self.goto(join_block, span)

        self.switch_to(else_block)
        if expr.else_branch is not None:
            if want_value and dest is not None:
                self.lower_expr_into(dest, expr.else_branch)
            else:
                if isinstance(expr.else_branch, ast.Block):
                    self.lower_block_into(None, expr.else_branch)
                else:
                    self.lower_expr(expr.else_branch, want_value=False)
        if self.current is not None:
            self.goto(join_block, span)

        self.switch_to(join_block)
        if want_value and dest is not None:
            return Operand.copy(dest)
        return Operand.const(None, UNIT)

    def lower_if_let(self, expr: ast.IfLet, want_value: bool,
                     dest: Optional[Place] = None) -> Operand:
        span = expr.span
        if want_value and dest is None:
            result = self.new_local(UNKNOWN, span=span, temp=True)
            self.declare(result)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=result))
            dest = Place(result)
        # Scrutinee temps extend to the end of the whole if-let.
        self.push_scope(temp=True)
        scrut = self.lower_expr(expr.scrutinee)
        scrut_ty = self.operand_ty(scrut)
        scrut_local = self._operand_to_local(scrut, scrut_ty, span)
        scrut_place = Place(scrut_local)

        cond = self.pattern_test(expr.pattern, scrut_place, scrut_ty, span)
        join_block = self.body.new_block()
        if cond is not None:
            then_block, else_block = self._switch_on_bool(cond, span)
        else:
            then_block = self.body.new_block()
            else_block = join_block
            self.goto(then_block, span)

        self.switch_to(then_block)
        self.push_scope()
        self.bind_pattern(expr.pattern, scrut_place, scrut_ty, span,
                          refutable=True)
        if want_value and dest is not None:
            self.lower_expr_into(dest, expr.then_block)
        else:
            inner = self.lower_block_into(None, expr.then_block)
        if self.current is not None:
            self.pop_scope(span)
            self.goto(join_block, span)
        else:
            self.scopes.pop()
            self.var_stack.pop()

        if else_block is not join_block:
            self.switch_to(else_block)
            if expr.else_branch is not None:
                if want_value and dest is not None:
                    self.lower_expr_into(dest, expr.else_branch)
                else:
                    if isinstance(expr.else_branch, ast.Block):
                        self.lower_block_into(None, expr.else_branch)
                    else:
                        self.lower_expr(expr.else_branch, want_value=False)
            if self.current is not None:
                self.goto(join_block, span)

        self.switch_to(join_block)
        self.pop_scope(span)   # drop the scrutinee temps here
        if want_value and dest is not None:
            return Operand.copy(dest)
        return Operand.const(None, UNIT)

    def lower_match(self, expr: ast.Match, want_value: bool,
                    dest: Optional[Place] = None) -> Operand:
        span = expr.span
        if want_value and dest is None:
            result = self.new_local(UNKNOWN, span=span, temp=True)
            self.declare(result)
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=result))
            dest = Place(result)
        # Scrutinee temporaries live for the whole match (the Figure 8 rule).
        self.push_scope(temp=True)
        scrut = self.lower_expr(expr.scrutinee)
        scrut_ty = self.operand_ty(scrut)
        scrut_local = self._operand_to_local(scrut, scrut_ty, span)
        scrut_place = Place(scrut_local)

        join_block = self.body.new_block()
        for arm in expr.arms:
            if self.current is None:
                break
            next_test = self.body.new_block()
            cond = self.pattern_test(arm.pattern, scrut_place, scrut_ty,
                                     arm.span)
            if cond is not None:
                body_block, fail_block = self._switch_on_bool(cond, arm.span)
                # fail → next test
                self.switch_to(fail_block)
                self.goto(next_test, arm.span)
                self.switch_to(body_block)
            # irrefutable → fall through into the body directly
            self.push_scope()
            self.bind_pattern(arm.pattern, scrut_place, scrut_ty, arm.span,
                              refutable=True)
            guard_fail: Optional[BasicBlock] = None
            if arm.guard is not None:
                guard_cond = self.lower_expr(arm.guard)
                body_block2, guard_fail = self._switch_on_bool(guard_cond,
                                                               arm.span)
                self.switch_to(body_block2)
            if want_value and dest is not None:
                self.lower_expr_into(dest, arm.body)
            else:
                self.lower_expr(arm.body, want_value=False)
            if self.current is not None:
                self.pop_scope(arm.span)
                self.goto(join_block, arm.span)
            else:
                self.scopes.pop()
                self.var_stack.pop()
            if guard_fail is not None:
                self.switch_to(guard_fail)
                self.goto(next_test, arm.span)
            self.switch_to(next_test)
            if cond is None and arm.guard is None:
                # Irrefutable arm: nothing reaches the next test.
                self.terminate(Terminator(TerminatorKind.UNREACHABLE,
                                          span=arm.span))
                self.current = None
                break
        if self.current is not None:
            # Non-exhaustive match falls off: treat as unreachable.
            self.terminate(Terminator(TerminatorKind.UNREACHABLE, span=span))
        self.switch_to(join_block)
        self.pop_scope(span)   # scrutinee temps (e.g. lock guards) die here
        if want_value and dest is not None:
            return Operand.copy(dest)
        return Operand.const(None, UNIT)

    # -- loops --------------------------------------------------------------------------

    def lower_loop_expr(self, expr: ast.Expr) -> None:
        span = expr.span
        head = self.body.new_block()
        exit_block = self.body.new_block()
        self.goto(head, span)
        self.switch_to(head)
        self.loop_stack.append(_LoopCtx(continue_block=head.index,
                                        break_block=exit_block.index,
                                        scope_depth=len(self.scopes)))
        try:
            if isinstance(expr, ast.Loop):
                self.lower_block_into(None, expr.body)
                if self.current is not None:
                    self.goto(head, span)
            elif isinstance(expr, ast.While):
                self.push_scope(temp=True)
                cond = self.lower_expr(expr.condition)
                if cond.place is not None:
                    self.extend_temp(cond.place.local)
                if self.current is not None:
                    self.pop_scope(span)
                    body_block, done = self._switch_on_bool(cond, span)
                    self.switch_to(done)
                    self.goto(exit_block, span)
                    self.switch_to(body_block)
                    self.lower_block_into(None, expr.body)
                    if self.current is not None:
                        self.goto(head, span)
                else:
                    self.scopes.pop()
            elif isinstance(expr, ast.WhileLet):
                temp_scope = self.push_scope(temp=True)
                scrut = self.lower_expr(expr.scrutinee)
                scrut_ty = self.operand_ty(scrut)
                scrut_local = self._operand_to_local(scrut, scrut_ty, span)
                scrut_place = Place(scrut_local)
                cond = self.pattern_test(expr.pattern, scrut_place, scrut_ty,
                                         span)
                if cond is not None:
                    body_block, done = self._switch_on_bool(cond, span)
                    # Exit path: scrutinee temps die, loop exits.
                    self.switch_to(done)
                    self._emit_scope_exit(temp_scope, span)
                    self.goto(exit_block, span)
                    # Body path: bindings live for the body, then the
                    # scrutinee temps die before re-testing.
                    self.switch_to(body_block)
                    self.push_scope()
                    self.bind_pattern(expr.pattern, scrut_place, scrut_ty,
                                      span, refutable=True)
                    self.lower_block_into(None, expr.body)
                    if self.current is not None:
                        self.pop_scope(span)
                        self._emit_scope_exit(temp_scope, span)
                        self.goto(head, span)
                    else:
                        self.scopes.pop()
                        self.var_stack.pop()
                    self.scopes.pop()   # temp scope bookkeeping (exits emitted)
                else:
                    self.pop_scope(span)
                    self.lower_block_into(None, expr.body)
                    if self.current is not None:
                        self.goto(head, span)
            elif isinstance(expr, ast.For):
                self.lower_for(expr, head, exit_block)
        finally:
            self.loop_stack.pop()
        self.switch_to(exit_block)

    def lower_for(self, expr: ast.For, head: BasicBlock,
                  exit_block: BasicBlock) -> None:
        """``for`` desugars to an index-based loop.

        Ranges iterate the counter directly; any other iterable is treated
        as a Vec-like sequence indexed from 0 (the interpreter's ``Len`` /
        ``Index`` work uniformly over vectors, slices and maps).
        """
        span = expr.span
        # We are currently *in* `head`, but the iterable must be evaluated
        # once before the loop; restructure: head becomes the test block.
        # Evaluate iterable in a pre-header appended before head.
        pre = self.current      # == head
        # Range iteration.
        if isinstance(expr.iterable, ast.Range):
            lo_op = self.lower_expr(expr.iterable.lo) if expr.iterable.lo \
                else Operand.const(0, USIZE)
            hi_op = self.lower_expr(expr.iterable.hi) if expr.iterable.hi \
                else Operand.const(None)
            counter = self.spill(Rvalue.use_(lo_op), USIZE, span)
            hi_local = self._operand_to_local(hi_op, USIZE, span)
            test = self.body.new_block()
            incr = self.body.new_block()
            # `continue` must run the increment, which exists before the
            # body is lowered.
            if self.loop_stack:
                self.loop_stack[-1].continue_block = incr.index
            self.goto(test, span)
            self.switch_to(incr)
            self.assign(Place(counter),
                        Rvalue.binary(BinOpKind.ADD,
                                      Operand.copy(Place(counter)),
                                      Operand.const(1, USIZE)), span)
            self.goto(test, span)
            self.switch_to(test)
            cmp_op = BinOpKind.LE if expr.iterable.inclusive else BinOpKind.LT
            cond = self.spill(Rvalue.binary(cmp_op,
                                            Operand.copy(Place(counter)),
                                            Operand.copy(Place(hi_local))),
                              BOOL, span)
            body_block, done = self._switch_on_bool(
                Operand.copy(Place(cond)), span)
            self.switch_to(done)
            self.goto(exit_block, span)
            self.switch_to(body_block)
            self.push_scope()
            if isinstance(expr.pattern, ast.PatIdent):
                var = self.new_local(USIZE, name=expr.pattern.name, span=span)
                self.declare(var)
                self.var_stack[-1][expr.pattern.name] = var
                self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                    local=var))
                self.assign(Place(var),
                            Rvalue.use_(Operand.copy(Place(counter))), span)
            self.lower_block_into(None, expr.body)
            if self.current is not None:
                self.pop_scope(span)
                self.goto(incr, span)
            else:
                self.scopes.pop()
                self.var_stack.pop()
            return

        # Vec-like iteration.
        iter_op = self.lower_expr(expr.iterable)
        iter_ty = self.operand_ty(iter_op)
        seq_local = self._operand_to_local(iter_op, iter_ty, span)
        counter = self.spill(Rvalue.use_(Operand.const(0, USIZE)), USIZE, span)
        test = self.body.new_block()
        incr = self.body.new_block()
        if self.loop_stack:
            self.loop_stack[-1].continue_block = incr.index
        self.goto(test, span)
        self.switch_to(incr)
        self.assign(Place(counter),
                    Rvalue.binary(BinOpKind.ADD,
                                  Operand.copy(Place(counter)),
                                  Operand.const(1, USIZE)), span)
        self.goto(test, span)
        self.switch_to(test)
        length = self.spill(Rvalue.len_(Place(seq_local)), USIZE, span)
        cond = self.spill(Rvalue.binary(BinOpKind.LT,
                                        Operand.copy(Place(counter)),
                                        Operand.copy(Place(length))),
                          BOOL, span)
        body_block, done = self._switch_on_bool(Operand.copy(Place(cond)),
                                                span)
        self.switch_to(done)
        self.goto(exit_block, span)
        self.switch_to(body_block)
        self.push_scope()
        elem_ty = iter_ty.peel_refs().arg(0)
        elem_place = Place(seq_local).index_by(local=counter)
        if isinstance(expr.pattern, ast.PatIdent):
            var = self.new_local(elem_ty, name=expr.pattern.name, span=span)
            self.declare(var)
            self.var_stack[-1][expr.pattern.name] = var
            self.emit(Statement(StatementKind.STORAGE_LIVE, span=span,
                                local=var))
            self.assign(Place(var), Rvalue.use_(Operand.copy(elem_place)),
                        span)
        else:
            self.bind_pattern(expr.pattern, elem_place, elem_ty, span,
                              refutable=False)
        self.lower_block_into(None, expr.body)
        if self.current is not None:
            self.pop_scope(span)
            self.goto(incr, span)
        else:
            self.scopes.pop()
            self.var_stack.pop()

    def lower_break(self, expr: ast.Break) -> None:
        if not self.loop_stack:
            return
        ctx = self.loop_stack[-1]
        self.unwind_scopes(ctx.scope_depth, expr.span)
        self.terminate(Terminator(TerminatorKind.GOTO, span=expr.span,
                                  target=ctx.break_block))

    def lower_continue(self, expr: ast.Continue) -> None:
        if not self.loop_stack:
            return
        ctx = self.loop_stack[-1]
        self.unwind_scopes(ctx.scope_depth, expr.span)
        self.terminate(Terminator(TerminatorKind.GOTO, span=expr.span,
                                  target=ctx.continue_block))

    def lower_return(self, expr: ast.Return) -> None:
        if expr.value is not None:
            operand = self.lower_expr(expr.value)
            if self.current is None:
                return
            self.assign(Place(0), Rvalue.use_(operand), expr.span)
        self.unwind_scopes(0, expr.span)
        self.terminate(Terminator(TerminatorKind.RETURN, span=expr.span))

    # -- closures ----------------------------------------------------------------------

    def lower_closure(self, expr: ast.Closure) -> Operand:
        span = expr.span
        key = f"{self.body.key}::{{closure#{self.closure_counter}}}"
        self.closure_counter += 1

        bound = {name for name, _ in expr.params}
        free = _collect_free_vars(expr.body, bound)
        captures: List[Tuple[str, Ty]] = []
        capture_ops: List[Operand] = []
        for name in sorted(free):
            if name in self.var_stack[-1]:
                local = self.var_stack[-1][name]
                ty = self.local_ty(local)
                captures.append((name, ty))
                if expr.is_move and not ty.is_copy:
                    capture_ops.append(Operand.move(Place(local)))
                elif ty.is_copy:
                    capture_ops.append(Operand.copy(Place(local)))
                else:
                    # Borrow capture approximated as copy (alias retained).
                    capture_ops.append(Operand.copy(Place(local)))

        params = [(p_name,
                   self.table.lower_ty(p_ty) if p_ty else UNKNOWN,
                   False)
                  for p_name, p_ty in expr.params]
        body_block = expr.body if isinstance(expr.body, ast.Block) else \
            ast.Block(span=expr.body.span, statements=[], tail=expr.body)
        closure_builder = BodyBuilder(
            self.pb, key, None, body_block, params, UNKNOWN,
            is_unsafe_fn=False, span=span, captures=captures)
        if self.unsafe_depth > 0:
            closure_builder.unsafe_depth += 1
            if self.unsafe_span_stack:
                closure_builder.unsafe_span_stack.append(
                    self.unsafe_span_stack[-1])
        self.pb.program.functions[key] = closure_builder.build()

        ty = Ty.closure(key)
        temp = self.spill(Rvalue.aggregate(AggregateKind.CLOSURE,
                                           tuple(capture_ops), name=key),
                          ty, span)
        return Operand.copy(Place(temp))

    # -- macros -------------------------------------------------------------------------

    def lower_macro(self, expr: ast.MacroCall) -> Operand:
        span = expr.span
        op = MACRO_OPS.get(expr.name)
        if op is BuiltinOp.VEC_MACRO:
            if expr.repeat is not None:
                elem, count = expr.repeat
                elem_op = self.lower_expr(elem)
                count_op = self.lower_expr(count)
                elem_ty = self.operand_ty(elem_op)
                ty = Ty.builtin("Vec", (elem_ty,))
                dest = self._fresh_call_dest(ty, span)
                self.call(FuncRef.builtin(BuiltinOp.VEC_MACRO,
                                          name="vec_repeat!"),
                          [elem_op, count_op], dest, span)
                return self.operand_for_place(dest, ty)
            operands = [self.lower_expr(a) for a in expr.args]
            elem_ty = self.operand_ty(operands[0]) if operands else UNKNOWN
            ty = Ty.builtin("Vec", (elem_ty,))
            dest = self._fresh_call_dest(ty, span)
            self.call(FuncRef.builtin(BuiltinOp.VEC_MACRO), operands, dest,
                      span)
            return self.operand_for_place(dest, ty)
        if op is None:
            op = BuiltinOp.FFI
        args = [self.lower_expr(a) for a in expr.args]
        ret_ty = Ty.string() if op is BuiltinOp.FORMAT else (
            Ty.never() if op is BuiltinOp.PANIC else UNIT)
        dest = self._fresh_call_dest(ret_ty, span)
        self.call(FuncRef.builtin(op, f"{expr.name}!"), args, dest, span)
        return self.operand_for_place(dest, ret_ty)


# ---------------------------------------------------------------------------
# Free-variable collection for closures
# ---------------------------------------------------------------------------

def _collect_free_vars(expr: ast.Expr, bound: Set[str]) -> Set[str]:
    free: Set[str] = set()
    _walk_free(expr, set(bound), free)
    return free


def _walk_free(node, bound: Set[str], free: Set[str]) -> None:
    if node is None or isinstance(node, (str, int, float, bool)):
        return
    if isinstance(node, ast.PathExpr):
        if len(node.path.segments) == 1:
            name = node.path.segments[0].name
            if name not in bound and name not in ("self",) and \
                    name and (name[0].islower() or name[0] == "_"):
                free.add(name)
        return
    if isinstance(node, ast.Closure):
        inner_bound = set(bound) | {p for p, _ in node.params}
        _walk_free(node.body, inner_bound, free)
        return
    if isinstance(node, ast.LetStmt):
        if node.init is not None:
            _walk_free(node.init, bound, free)
        _bind_pattern_names(node.pattern, bound)
        return
    if isinstance(node, ast.Block):
        inner = set(bound)
        for stmt in node.statements:
            _walk_free_stmt(stmt, inner, free)
        if node.tail is not None:
            _walk_free(node.tail, inner, free)
        return
    if isinstance(node, (ast.IfLet, ast.WhileLet)):
        _walk_free(node.scrutinee, bound, free)
        inner = set(bound)
        _bind_pattern_names(node.pattern, inner)
        block = node.then_block if isinstance(node, ast.IfLet) else node.body
        _walk_free(block, inner, free)
        if isinstance(node, ast.IfLet) and node.else_branch is not None:
            _walk_free(node.else_branch, bound, free)
        return
    if isinstance(node, ast.For):
        _walk_free(node.iterable, bound, free)
        inner = set(bound)
        _bind_pattern_names(node.pattern, inner)
        _walk_free(node.body, inner, free)
        return
    if isinstance(node, ast.Match):
        _walk_free(node.scrutinee, bound, free)
        for arm in node.arms:
            inner = set(bound)
            _bind_pattern_names(arm.pattern, inner)
            if arm.guard is not None:
                _walk_free(arm.guard, inner, free)
            _walk_free(arm.body, inner, free)
        return
    if isinstance(node, ast.Node):
        for name in ast.field_names(type(node)):
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                _walk_free(value, bound, free)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Node):
                        _walk_free(item, bound, free)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, ast.Node):
                                _walk_free(sub, bound, free)


def _walk_free_stmt(stmt: ast.Stmt, bound: Set[str], free: Set[str]) -> None:
    if isinstance(stmt, ast.LetStmt):
        if stmt.init is not None:
            _walk_free(stmt.init, bound, free)
        _bind_pattern_names(stmt.pattern, bound)
    elif isinstance(stmt, ast.ExprStmt):
        _walk_free(stmt.expr, bound, free)


def _bind_pattern_names(pattern: ast.Pat, bound: Set[str]) -> None:
    if isinstance(pattern, ast.PatIdent):
        bound.add(pattern.name)
        if pattern.subpattern:
            _bind_pattern_names(pattern.subpattern, bound)
    elif isinstance(pattern, (ast.PatTuple, ast.PatTupleStruct)):
        for sub in pattern.elements:
            _bind_pattern_names(sub, bound)
    elif isinstance(pattern, ast.PatStruct):
        for _name, sub in pattern.fields:
            _bind_pattern_names(sub, bound)
    elif isinstance(pattern, ast.PatRef):
        _bind_pattern_names(pattern.inner, bound)


# ---------------------------------------------------------------------------
# Program builder
# ---------------------------------------------------------------------------

class ProgramBuilder:
    """Lowers every function in a crate to MIR."""

    def __init__(self, table: ItemTable,
                 source: Optional[SourceFile] = None,
                 emit_bounds_checks: bool = True) -> None:
        self.table = table
        self.source = source
        #: When False, safe indexing compiles without the Len/Lt/Assert
        #: sequence — the §4.1 "unsafe build" used by the perf benchmarks.
        self.emit_bounds_checks = emit_bounds_checks
        self.program = Program(item_table=table, source=source)
        self.unsafe_blocks: List[Tuple[str, Span]] = []

    def record_unsafe_block(self, fn_key: str, span: Span) -> None:
        self.unsafe_blocks.append((fn_key, span))

    def build(self) -> Program:
        """Lower every body of the table.  Each function's syntax is
        released once its body is lowered, and the static initialisers
        and consts once every body is: after this the table holds
        signatures and types, no syntax (DESIGN.md §9)."""
        for name, info in self.table.statics.items():
            self.program.statics[name] = info.ty
            if info.init is not None:
                from repro.lang import ast_nodes as ast_mod
                block = ast_mod.Block(span=info.span, statements=[],
                                      tail=info.init)
                builder = BodyBuilder(
                    self, f"__static_init::{name}", None, block,
                    params=[], ret_ty=info.ty, is_unsafe_fn=False,
                    span=info.span)
                self.program.functions[f"__static_init::{name}"] = \
                    builder.build()
        for key, fn in sorted(self.table.functions.items()):
            ast_fn, fn.ast_fn = fn.ast_fn, None
            if ast_fn is None or ast_fn.body is None:
                continue
            builder = BodyBuilder(
                self, key, fn, ast_fn.body,
                params=fn.params, ret_ty=fn.ret_ty,
                is_unsafe_fn=fn.is_unsafe, span=fn.span)
            self.program.functions[key] = builder.build()
        for info in self.table.statics.values():
            info.init = None
        self.table.consts.clear()
        return self.program


def build_program(crate: ast.Crate,
                  source: Optional[SourceFile] = None) -> Program:
    """Resolve and lower a parsed crate to MIR."""
    table = build_item_table(crate)
    return ProgramBuilder(table, source).build()
