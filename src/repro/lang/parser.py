"""Recursive-descent parser for MiniRust with a Pratt expression parser.

Design notes
------------
* Struct literals are forbidden in "condition position" (``if``/``while``/
  ``match`` heads and ``for`` iterables), matching Rust's grammar, via the
  ``no_struct`` restriction flag.
* ``>>`` is split into two ``>`` tokens when closing nested generic
  argument lists (``Vec<Vec<i32>>``).
* Macro calls (``vec![..]``, ``println!(..)``, ...) are parsed into
  :class:`~repro.lang.ast_nodes.MacroCall` with their arguments parsed as
  ordinary expressions, which is all the detectors and interpreter need.
* Attributes ``#[...]`` are collected as raw strings on items (used by the
  corpus generator to tag injected bugs) and otherwise ignored.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import BinOp, Mutability, UnOp
from repro.lang.diagnostics import CompileError
from repro.lang.lexer import Lexer
from repro.lang.source import SourceFile, Span
from repro.lang.tokens import Token, TokenKind as T

# Binding powers for the Pratt parser (higher binds tighter).
_BINARY_POWER = {
    T.PIPEPIPE: (4, 5),
    T.AMPAMP: (6, 7),
    T.EQEQ: (10, 11), T.NE: (10, 11),
    T.LT: (10, 11), T.LE: (10, 11), T.GT: (10, 11), T.GE: (10, 11),
    T.PIPE: (14, 15),
    T.CARET: (16, 17),
    T.AMP: (18, 19),
    T.SHL: (20, 21), T.SHR: (20, 21),
    T.PLUS: (22, 23), T.MINUS: (22, 23),
    T.STAR: (24, 25), T.SLASH: (24, 25), T.PERCENT: (24, 25),
}

_BINOP_FOR_TOKEN = {
    T.PLUS: BinOp.ADD, T.MINUS: BinOp.SUB, T.STAR: BinOp.MUL,
    T.SLASH: BinOp.DIV, T.PERCENT: BinOp.REM,
    T.AMPAMP: BinOp.AND, T.PIPEPIPE: BinOp.OR,
    T.AMP: BinOp.BIT_AND, T.PIPE: BinOp.BIT_OR, T.CARET: BinOp.BIT_XOR,
    T.SHL: BinOp.SHL, T.SHR: BinOp.SHR,
    T.EQEQ: BinOp.EQ, T.NE: BinOp.NE,
    T.LT: BinOp.LT, T.LE: BinOp.LE, T.GT: BinOp.GT, T.GE: BinOp.GE,
}

_COMPOUND_ASSIGN = {
    T.PLUSEQ: BinOp.ADD, T.MINUSEQ: BinOp.SUB, T.STAREQ: BinOp.MUL,
    T.SLASHEQ: BinOp.DIV, T.PERCENTEQ: BinOp.REM,
    T.AMPEQ: BinOp.BIT_AND, T.PIPEEQ: BinOp.BIT_OR, T.CARETEQ: BinOp.BIT_XOR,
    T.SHLEQ: BinOp.SHL, T.SHREQ: BinOp.SHR,
}

# Prefix operators; `&` builds a Reference, not a Unary.
_PREFIX_OPS = {T.MINUS: UnOp.NEG, T.BANG: UnOp.NOT, T.STAR: UnOp.DEREF,
               T.AMP: None}

#: Tokens that may start a path segment.
_PATH_SEGMENT = frozenset({T.IDENT, T.KW_CRATE, T.KW_SUPER, T.KW_SELF,
                           T.KW_SELF_TYPE})

# Tokens that may legitimately start an expression.
_EXPR_START = {
    T.IDENT, T.INT, T.FLOAT, T.STRING, T.CHAR, T.KW_TRUE, T.KW_FALSE,
    T.LPAREN, T.LBRACKET, T.LBRACE, T.MINUS, T.BANG, T.STAR, T.AMP,
    T.KW_IF, T.KW_MATCH, T.KW_WHILE, T.KW_LOOP, T.KW_FOR, T.KW_RETURN,
    T.KW_BREAK, T.KW_CONTINUE, T.KW_MOVE, T.KW_UNSAFE, T.KW_SELF,
    T.KW_SELF_TYPE, T.PIPE, T.PIPEPIPE, T.DOTDOT, T.KW_CRATE, T.KW_SUPER,
    T.UNDERSCORE,
}


#: Deepest nesting the parser admits, counted one level per nested
#: expression, prefix-operator operand and block (a block used as an
#: expression costs two), and one per link of an operator, cast or
#: postfix chain (``a + b + c``, ``v[0][0]``, ``x.f().g()``).  A chain is
#: built in a loop, not by recursion, so each link is placed above the
#: deepest level its expression has reached so far.  Every later stage
#: recurses over the tree the parser builds, so this bounds them too: at
#: the limit the whole pipeline fits Python's default recursion limit
#: with room for the caller's frames.  Deeper input is a located
#: ``CompileError``.
MAX_NESTING = 100


class Parser:
    """Parses one :class:`SourceFile` into a :class:`~repro.lang.ast_nodes.Crate`."""

    def __init__(self, source: SourceFile,
                 tokens: Optional[List[Token]] = None) -> None:
        self.source = source
        self.tokens = tokens if tokens is not None else \
            Lexer(source).tokenize()
        self.pos = 0
        self.no_struct_depth = 0   # >0 → struct literals disallowed
        # Current nesting depth (see MAX_NESTING).  Only decremented on
        # a normal return: the parser never recovers from an error.
        self.depth = 0
        # Deepest level reached inside the innermost expression being
        # parsed; chain links are placed at or above it.
        self.peak = 0

    # -- token helpers -----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    # `at` and `eat` are the parser's hottest calls, so they index the
    # token list directly rather than going through `tok`.
    def at(self, kind: T) -> bool:
        return self.tokens[self.pos].kind is kind

    def eat(self, kind: T) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind is kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: T, what: str = "") -> Token:
        tok = self.eat(kind)
        if tok is None:
            expected = what or kind.value
            raise CompileError(
                f"expected {expected!r}, found {self.tok.text or self.tok.kind.value!r}",
                self.tok.span, self.source)
        return tok

    def eat_gt(self) -> bool:
        """Consume a ``>``, splitting ``>>``/``>=``/``>>=`` when needed."""
        if self.eat(T.GT):
            return True
        split = {T.SHR: T.GT, T.GE: T.EQ, T.SHREQ: T.GE}
        if self.tok.kind in split:
            rest_kind = split[self.tok.kind]
            span = self.tok.span
            rest = Token(rest_kind, rest_kind.value,
                         Span(span.lo + 1, span.hi, span.file_name))
            self.tokens[self.pos] = rest
            return True
        return False

    def error(self, message: str, span: Optional[Span] = None) -> CompileError:
        return CompileError(message, span or self.tok.span, self.source)

    def enter(self) -> None:
        """One level deeper; fails at the token where nesting exceeds
        :data:`MAX_NESTING`.  Paired with ``self.depth -= 1`` on return."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"expression or block nested too deeply (more than "
                f"{MAX_NESTING} levels)")
        if self.depth > self.peak:
            self.peak = self.depth

    def link(self) -> None:
        """One more link of a chain: the new node sits one level above
        the previous link, and above everything the chain holds so far.
        The function that builds the chain restores ``self.depth``."""
        self.depth = max(self.depth, self.peak - 1)
        self.enter()

    # -- entry points --------------------------------------------------------

    def parse_crate(self, name: str = "crate") -> ast.Crate:
        lo = self.tok.span
        items: List[ast.Item] = []
        while not self.at(T.EOF):
            items.append(self.parse_item())
        return ast.Crate(span=lo.merge(self.tok.span), items=items, name=name)

    # -- items ---------------------------------------------------------------

    def parse_attrs(self) -> List[str]:
        attrs: List[str] = []
        while self.at(T.POUND):
            lo = self.tok.span
            self.expect(T.POUND)
            self.eat(T.BANG)
            self.expect(T.LBRACKET)
            depth = 1
            while depth > 0:
                if self.at(T.EOF):
                    raise self.error("unterminated attribute")
                if self.at(T.LBRACKET):
                    depth += 1
                elif self.at(T.RBRACKET):
                    depth -= 1
                    if depth == 0:
                        hi = self.tok.span
                        self.pos += 1
                        attrs.append(self.source.text[lo.lo : hi.hi])
                        break
                self.pos += 1
        return attrs

    def parse_item(self) -> ast.Item:
        attrs = self.parse_attrs()
        is_pub = False
        if self.eat(T.KW_PUB):
            is_pub = True
            if self.eat(T.LPAREN):   # pub(crate) etc.
                depth = 1
                while depth > 0:
                    if self.eat(T.LPAREN):
                        depth += 1
                    elif self.eat(T.RPAREN):
                        depth -= 1
                    else:
                        self.pos += 1

        if self.at(T.KW_UNSAFE):
            nxt = self.peek().kind
            if nxt is T.KW_FN:
                self.expect(T.KW_UNSAFE)
                return self.parse_fn(is_pub=is_pub, is_unsafe=True, attrs=attrs)
            if nxt is T.KW_IMPL:
                self.expect(T.KW_UNSAFE)
                return self.parse_impl(is_unsafe=True)
            if nxt is T.KW_TRAIT:
                self.expect(T.KW_UNSAFE)
                return self.parse_trait(is_pub=is_pub, is_unsafe=True)

        if self.at(T.KW_FN):
            return self.parse_fn(is_pub=is_pub, attrs=attrs)
        if self.at(T.KW_STRUCT):
            return self.parse_struct(is_pub=is_pub, attrs=attrs)
        if self.at(T.KW_ENUM):
            return self.parse_enum(is_pub=is_pub, attrs=attrs)
        if self.at(T.KW_IMPL):
            return self.parse_impl()
        if self.at(T.KW_TRAIT):
            return self.parse_trait(is_pub=is_pub)
        if self.at(T.KW_STATIC):
            return self.parse_static(is_pub=is_pub)
        if self.at(T.KW_CONST):
            return self.parse_const(is_pub=is_pub)
        if self.at(T.KW_USE):
            return self.parse_use(is_pub=is_pub)
        if self.at(T.KW_MOD):
            return self.parse_mod(is_pub=is_pub)
        if self.at(T.KW_EXTERN):
            return self.parse_extern_block(is_pub=is_pub)
        if self.at(T.KW_TYPE):
            return self.parse_type_alias(is_pub=is_pub)
        raise self.error(f"expected item, found {self.tok.text!r}")

    def parse_generics(self) -> Tuple[List[str], List[str]]:
        """Parse ``<'a, T: Bound, U>`` → (type params, lifetimes)."""
        type_params: List[str] = []
        lifetimes: List[str] = []
        if not self.eat(T.LT):
            return type_params, lifetimes
        while not self.eat_gt():
            if self.at(T.LIFETIME):
                lifetimes.append(self.tok.text)
                self.pos += 1
            elif self.at(T.IDENT):
                type_params.append(self.tok.text)
                self.pos += 1
                if self.eat(T.COLON):   # skip bounds
                    self._skip_bounds()
            elif self.at(T.KW_CONST):
                self.pos += 1           # const generics: const N: usize
                type_params.append(self.expect(T.IDENT).text)
                self.expect(T.COLON)
                self.parse_type()
            else:
                raise self.error("expected generic parameter")
            if not self.eat(T.COMMA):
                if not self.eat_gt():
                    raise self.error("expected `,` or `>` in generics")
                break
        return type_params, lifetimes

    def _skip_bounds(self) -> None:
        """Skip trait bounds: ``T: Clone + Send + 'a``."""
        while True:
            if self.at(T.LIFETIME):
                self.pos += 1
            elif self.at(T.QUESTION):
                self.pos += 1
            elif self.at(T.IDENT) or self.at(T.KW_FN):
                self.parse_type()
            else:
                break
            if not self.eat(T.PLUS):
                break

    def _skip_where_clause(self) -> None:
        if not self.eat(T.KW_WHERE):
            return
        while not (self.at(T.LBRACE) or self.at(T.SEMI) or self.at(T.EOF)):
            self.pos += 1

    def parse_fn(self, is_pub: bool = False, is_unsafe: bool = False,
                 attrs: Optional[List[str]] = None) -> ast.FnDef:
        lo = self.expect(T.KW_FN).span
        name = self.expect(T.IDENT, "function name").text
        generics, lifetimes = self.parse_generics()
        self.expect(T.LPAREN)
        params: List[ast.Param] = []
        while not self.at(T.RPAREN):
            params.append(self.parse_param())
            if not self.eat(T.COMMA):
                break
        self.expect(T.RPAREN)
        ret_ty = None
        if self.eat(T.ARROW):
            ret_ty = self.parse_type()
        self._skip_where_clause()
        body = None
        if self.at(T.LBRACE):
            body = self.parse_block()
        else:
            self.expect(T.SEMI)
        return ast.FnDef(span=lo.merge(self.tokens[self.pos - 1].span),
                         name=name, is_pub=is_pub, params=params, ret_ty=ret_ty,
                         body=body, is_unsafe=is_unsafe, generics=generics,
                         lifetimes=lifetimes, attrs=list(attrs or []))

    def parse_param(self) -> ast.Param:
        lo = self.tok.span
        # self / &self / &mut self / mut self
        if self.at(T.AMP):
            save = self.pos
            self.pos += 1
            if self.at(T.LIFETIME):
                self.pos += 1
            mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
            if self.eat(T.KW_SELF):
                return ast.Param(span=lo, name="self", is_self=True, self_ref=mut)
            self.pos = save
        if self.at(T.KW_MUT) and self.peek().kind is T.KW_SELF:
            self.pos += 2
            return ast.Param(span=lo, name="self", is_self=True,
                             mutability=Mutability.MUT, self_ref=None)
        if self.eat(T.KW_SELF):
            return ast.Param(span=lo, name="self", is_self=True, self_ref=None)
        mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
        if self.at(T.UNDERSCORE):
            name = "_"
            self.pos += 1
        else:
            name = self.expect(T.IDENT, "parameter name").text
        self.expect(T.COLON)
        ty = self.parse_type()
        return ast.Param(span=lo, name=name, ty=ty, mutability=mut)

    def parse_struct(self, is_pub: bool = False,
                     attrs: Optional[List[str]] = None) -> ast.StructDef:
        lo = self.expect(T.KW_STRUCT).span
        name = self.expect(T.IDENT, "struct name").text
        generics, _ = self.parse_generics()
        self._skip_where_clause()
        fields: List[ast.StructField] = []
        is_tuple = False
        if self.eat(T.SEMI):
            pass                                  # unit struct
        elif self.eat(T.LPAREN):                  # tuple struct
            is_tuple = True
            index = 0
            while not self.at(T.RPAREN):
                f_pub = bool(self.eat(T.KW_PUB))
                ty = self.parse_type()
                fields.append(ast.StructField(span=ty.span, name=str(index),
                                              ty=ty, is_pub=f_pub))
                index += 1
                if not self.eat(T.COMMA):
                    break
            self.expect(T.RPAREN)
            self.expect(T.SEMI)
        else:
            self.expect(T.LBRACE)
            while not self.at(T.RBRACE):
                self.parse_attrs()
                f_pub = bool(self.eat(T.KW_PUB))
                f_lo = self.tok.span
                f_name = self.expect(T.IDENT, "field name").text
                self.expect(T.COLON)
                f_ty = self.parse_type()
                fields.append(ast.StructField(span=f_lo.merge(f_ty.span),
                                              name=f_name, ty=f_ty, is_pub=f_pub))
                if not self.eat(T.COMMA):
                    break
            self.expect(T.RBRACE)
        return ast.StructDef(span=lo.merge(self.tokens[self.pos - 1].span),
                             name=name, is_pub=is_pub, fields=fields,
                             generics=generics, is_tuple=is_tuple,
                             attrs=list(attrs or []))

    def parse_enum(self, is_pub: bool = False,
                   attrs: Optional[List[str]] = None) -> ast.EnumDef:
        lo = self.expect(T.KW_ENUM).span
        name = self.expect(T.IDENT, "enum name").text
        generics, _ = self.parse_generics()
        self._skip_where_clause()
        self.expect(T.LBRACE)
        variants: List[ast.EnumVariant] = []
        while not self.at(T.RBRACE):
            self.parse_attrs()
            v_lo = self.tok.span
            v_name = self.expect(T.IDENT, "variant name").text
            v_fields: List[ast.Ty] = []
            discriminant = None
            if self.eat(T.LPAREN):
                while not self.at(T.RPAREN):
                    v_fields.append(self.parse_type())
                    if not self.eat(T.COMMA):
                        break
                self.expect(T.RPAREN)
            elif self.eat(T.LBRACE):     # struct variants: keep field types only
                while not self.at(T.RBRACE):
                    self.eat(T.KW_PUB)
                    self.expect(T.IDENT)
                    self.expect(T.COLON)
                    v_fields.append(self.parse_type())
                    if not self.eat(T.COMMA):
                        break
                self.expect(T.RBRACE)
            elif self.eat(T.EQ):
                tok = self.expect(T.INT, "discriminant")
                discriminant = tok.value
            variants.append(ast.EnumVariant(span=v_lo, name=v_name,
                                            fields=v_fields,
                                            discriminant=discriminant))
            if not self.eat(T.COMMA):
                break
        self.expect(T.RBRACE)
        return ast.EnumDef(span=lo.merge(self.tokens[self.pos - 1].span),
                           name=name, is_pub=is_pub, variants=variants,
                           generics=generics, attrs=list(attrs or []))

    def parse_impl(self, is_unsafe: bool = False) -> ast.ImplBlock:
        lo = self.expect(T.KW_IMPL).span
        generics, _ = self.parse_generics()
        first_ty = self.parse_type()
        trait_path = None
        if self.eat(T.KW_FOR):
            if not isinstance(first_ty, ast.TyPath):
                raise self.error("trait in `impl Trait for Type` must be a path")
            trait_path = first_ty.path
            self_ty = self.parse_type()
        else:
            self_ty = first_ty
        self._skip_where_clause()
        self.expect(T.LBRACE)
        items: List[ast.FnDef] = []
        while not self.at(T.RBRACE):
            attrs = self.parse_attrs()
            f_pub = bool(self.eat(T.KW_PUB))
            f_unsafe = False
            if self.at(T.KW_UNSAFE) and self.peek().kind is T.KW_FN:
                self.pos += 1
                f_unsafe = True
            if self.at(T.KW_CONST) and self.peek().kind is T.KW_FN:
                self.pos += 1
            if self.at(T.KW_FN):
                items.append(self.parse_fn(is_pub=f_pub, is_unsafe=f_unsafe,
                                           attrs=attrs))
            elif self.at(T.KW_TYPE):
                self.parse_type_alias(is_pub=f_pub)
            elif self.at(T.KW_CONST):
                self.parse_const(is_pub=f_pub)
            else:
                raise self.error("expected function in impl block")
        self.expect(T.RBRACE)
        name = self._type_name(self_ty)
        return ast.ImplBlock(span=lo.merge(self.tokens[self.pos - 1].span),
                             name=name, self_ty=self_ty, trait_path=trait_path,
                             items=items, is_unsafe=is_unsafe, generics=generics)

    @staticmethod
    def _type_name(ty: ast.Ty) -> str:
        if isinstance(ty, ast.TyPath):
            return ty.path.last.name
        return "<ty>"

    def parse_trait(self, is_pub: bool = False,
                    is_unsafe: bool = False) -> ast.TraitDef:
        lo = self.expect(T.KW_TRAIT).span
        name = self.expect(T.IDENT, "trait name").text
        generics, _ = self.parse_generics()
        if self.eat(T.COLON):
            self._skip_bounds()
        self._skip_where_clause()
        self.expect(T.LBRACE)
        items: List[ast.FnDef] = []
        while not self.at(T.RBRACE):
            self.parse_attrs()
            f_unsafe = False
            if self.at(T.KW_UNSAFE) and self.peek().kind is T.KW_FN:
                self.pos += 1
                f_unsafe = True
            if self.at(T.KW_FN):
                items.append(self.parse_fn(is_unsafe=f_unsafe))
            elif self.at(T.KW_TYPE):
                self.parse_type_alias()
            else:
                raise self.error("expected function in trait")
        self.expect(T.RBRACE)
        return ast.TraitDef(span=lo.merge(self.tokens[self.pos - 1].span),
                            name=name, is_pub=is_pub, items=items,
                            is_unsafe=is_unsafe, generics=generics)

    def parse_static(self, is_pub: bool = False) -> ast.StaticDef:
        lo = self.expect(T.KW_STATIC).span
        mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
        name = self.expect(T.IDENT, "static name").text
        self.expect(T.COLON)
        ty = self.parse_type()
        init = None
        if self.eat(T.EQ):
            init = self.parse_expr()
        self.expect(T.SEMI)
        return ast.StaticDef(span=lo.merge(self.tokens[self.pos - 1].span),
                             name=name, is_pub=is_pub, ty=ty, init=init,
                             mutability=mut)

    def parse_const(self, is_pub: bool = False) -> ast.ConstDef:
        lo = self.expect(T.KW_CONST).span
        name = self.expect(T.IDENT, "const name").text
        self.expect(T.COLON)
        ty = self.parse_type()
        init = None
        if self.eat(T.EQ):
            init = self.parse_expr()
        self.expect(T.SEMI)
        return ast.ConstDef(span=lo.merge(self.tokens[self.pos - 1].span),
                            name=name, is_pub=is_pub, ty=ty, init=init)

    def parse_use(self, is_pub: bool = False) -> ast.UseDecl:
        lo = self.expect(T.KW_USE).span
        # Consume everything to the semicolon; `use` trees don't affect our
        # single-namespace resolution model.
        segments: List[ast.PathSegment] = []
        while not self.at(T.SEMI):
            if self.at(T.IDENT) or self.tok.is_keyword():
                segments.append(ast.PathSegment(self.tok.text))
            self.pos += 1
            if self.at(T.EOF):
                raise self.error("unterminated use declaration")
        self.expect(T.SEMI)
        path = ast.Path(span=lo, segments=segments or [ast.PathSegment("")])
        name = segments[-1].name if segments else ""
        return ast.UseDecl(span=lo, name=name, is_pub=is_pub, path=path)

    def parse_mod(self, is_pub: bool = False) -> ast.ModDecl:
        lo = self.expect(T.KW_MOD).span
        name = self.expect(T.IDENT, "module name").text
        items: List[ast.Item] = []
        if self.eat(T.LBRACE):
            while not self.at(T.RBRACE):
                items.append(self.parse_item())
            self.expect(T.RBRACE)
        else:
            self.expect(T.SEMI)
        return ast.ModDecl(span=lo.merge(self.tokens[self.pos - 1].span),
                           name=name, is_pub=is_pub, items=items)

    def parse_extern_block(self, is_pub: bool = False) -> ast.ModDecl:
        lo = self.expect(T.KW_EXTERN).span
        self.eat(T.STRING)       # ABI string
        items: List[ast.Item] = []
        self.expect(T.LBRACE)
        while not self.at(T.RBRACE):
            self.parse_attrs()
            self.eat(T.KW_PUB)
            fn = self.parse_fn()
            fn.is_unsafe = True   # extern fns are unsafe to call
            items.append(fn)
        self.expect(T.RBRACE)
        return ast.ModDecl(span=lo.merge(self.tokens[self.pos - 1].span),
                           name="extern", is_pub=is_pub, items=items)

    def parse_type_alias(self, is_pub: bool = False) -> ast.ConstDef:
        lo = self.expect(T.KW_TYPE).span
        name = self.expect(T.IDENT, "type alias name").text
        self.parse_generics()
        if self.eat(T.EQ):
            self.parse_type()
        self.expect(T.SEMI)
        # Represented as a degenerate const item; aliases are resolved by name.
        return ast.ConstDef(span=lo, name=name, is_pub=is_pub, ty=None, init=None)

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> ast.Ty:
        lo = self.tok.span
        # The common case first: a type path.
        if self.tok.kind in (T.IDENT, T.KW_CRATE, T.KW_SUPER):
            path = self.parse_path(in_type=True)
            return ast.TyPath(span=lo.merge(self.tokens[self.pos - 1].span), path=path)
        if self.eat(T.AMP):
            lifetime = None
            if self.at(T.LIFETIME):
                lifetime = self.tok.text
                self.pos += 1
            mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
            referent = self.parse_type()
            return ast.TyRef(span=lo.merge(referent.span), referent=referent,
                             mutability=mut, lifetime=lifetime)
        if self.eat(T.STAR):
            if self.eat(T.KW_CONST):
                mut = Mutability.NOT
            elif self.eat(T.KW_MUT):
                mut = Mutability.MUT
            else:
                raise self.error("expected `const` or `mut` after `*`")
            pointee = self.parse_type()
            return ast.TyRawPtr(span=lo.merge(pointee.span), pointee=pointee,
                                mutability=mut)
        if self.eat(T.LPAREN):
            if self.eat(T.RPAREN):
                return ast.TyUnit(span=lo)
            elements = [self.parse_type()]
            is_tuple = False
            while self.eat(T.COMMA):
                is_tuple = True
                if self.at(T.RPAREN):
                    break
                elements.append(self.parse_type())
            self.expect(T.RPAREN)
            if is_tuple:
                return ast.TyTuple(span=lo, elements=elements)
            return elements[0]
        if self.eat(T.LBRACKET):
            element = self.parse_type()
            if self.eat(T.SEMI):
                length = self.parse_expr()
                self.expect(T.RBRACKET)
                return ast.TyArray(span=lo, element=element, length=length)
            self.expect(T.RBRACKET)
            return ast.TySlice(span=lo, element=element)
        if self.eat(T.KW_FN):
            self.expect(T.LPAREN)
            params: List[ast.Ty] = []
            while not self.at(T.RPAREN):
                params.append(self.parse_type())
                if not self.eat(T.COMMA):
                    break
            self.expect(T.RPAREN)
            ret = self.parse_type() if self.eat(T.ARROW) else None
            return ast.TyFn(span=lo, params=params, ret=ret)
        if self.eat(T.KW_DYN):
            path = self.parse_path(in_type=True)
            self._maybe_skip_plus_bounds()
            return ast.TyImplTrait(span=lo, trait_path=path, is_dyn=True)
        if self.eat(T.KW_IMPL):
            path = self.parse_path(in_type=True)
            self._maybe_skip_plus_bounds()
            return ast.TyImplTrait(span=lo, trait_path=path, is_dyn=False)
        if self.at(T.UNDERSCORE):
            self.pos += 1
            return ast.TyInfer(span=lo)
        if self.at(T.KW_SELF_TYPE):
            self.pos += 1
            path = ast.Path(span=lo, segments=[ast.PathSegment("Self")])
            return ast.TyPath(span=lo, path=path)
        raise self.error(f"expected type, found {self.tok.text!r}")

    def _maybe_skip_plus_bounds(self) -> None:
        while self.eat(T.PLUS):
            if self.at(T.LIFETIME):
                self.pos += 1
            else:
                self.parse_path(in_type=True)

    def parse_path(self, in_type: bool = False) -> ast.Path:
        lo = self.tok.span
        segments: List[ast.PathSegment] = []
        while True:
            tok = self.tokens[self.pos]
            if tok.kind not in _PATH_SEGMENT:
                raise self.error("expected path segment")
            name = tok.text
            self.pos += 1
            generic_args: List[ast.Ty] = []
            if in_type and self.at(T.LT):
                generic_args = self._parse_generic_args()
            elif self.at(T.COLONCOLON) and self.peek().kind is T.LT:
                self.pos += 1          # turbofish ::<...>
                generic_args = self._parse_generic_args()
            segments.append(ast.PathSegment(name, generic_args))
            if self.at(T.COLONCOLON) and self.peek().kind is not T.LT:
                self.pos += 1
                continue
            break
        return ast.Path(span=lo.merge(self.tokens[self.pos - 1].span),
                        segments=segments)

    def _parse_generic_args(self) -> List[ast.Ty]:
        self.expect(T.LT)
        args: List[ast.Ty] = []
        while True:
            if self.eat_gt():
                break
            if self.at(T.LIFETIME):
                self.pos += 1
            elif self.at(T.INT):
                self.pos += 1          # const generic argument
            else:
                args.append(self.parse_type())
            if not self.eat(T.COMMA):
                if not self.eat_gt():
                    raise self.error("expected `,` or `>` in generic arguments")
                break
        return args

    # -- patterns --------------------------------------------------------------

    def parse_pattern(self) -> ast.Pat:
        lo = self.tok.span
        # The common case first: a binding, a path, a struct or a
        # tuple-struct pattern.
        if self.tok.kind in (T.IDENT, T.KW_REF, T.KW_MUT, T.KW_SELF_TYPE):
            by_ref = bool(self.eat(T.KW_REF))
            mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
            if not (self.at(T.IDENT) or self.at(T.KW_SELF_TYPE)):
                raise self.error(f"expected pattern, found {self.tok.text!r}")

            # Single lowercase identifier with no path/struct/tuple suffix → binding.
            is_plain = (self.peek().kind not in (T.COLONCOLON, T.LBRACE, T.LPAREN))
            name = self.tok.text
            if is_plain and (name[0].islower() or name[0] == "_"):
                self.pos += 1
                sub = None
                if self.eat(T.AT):
                    sub = self.parse_pattern()
                return ast.PatIdent(span=lo, name=name, mutability=mut,
                                    by_ref=by_ref, subpattern=sub)

            path = self.parse_path()
            if self.eat(T.LPAREN):
                elements = []
                while not self.at(T.RPAREN):
                    elements.append(self.parse_pattern())
                    if not self.eat(T.COMMA):
                        break
                self.expect(T.RPAREN)
                return ast.PatTupleStruct(span=lo, path=path, elements=elements)
            if not self.no_struct_depth and self.eat(T.LBRACE):
                fields: List[Tuple[str, ast.Pat]] = []
                has_rest = False
                while not self.at(T.RBRACE):
                    if self.eat(T.DOTDOT):
                        has_rest = True
                        break
                    f_name = self.expect(T.IDENT, "field name").text
                    if self.eat(T.COLON):
                        f_pat = self.parse_pattern()
                    else:
                        f_pat = ast.PatIdent(span=lo, name=f_name)
                    fields.append((f_name, f_pat))
                    if not self.eat(T.COMMA):
                        break
                self.expect(T.RBRACE)
                return ast.PatStruct(span=lo, path=path, fields=fields,
                                     has_rest=has_rest)
            return ast.PatPath(span=lo, path=path)
        if self.at(T.UNDERSCORE):
            self.pos += 1
            return ast.PatWild(span=lo)
        if self.eat(T.AMP):
            mut = Mutability.MUT if self.eat(T.KW_MUT) else Mutability.NOT
            inner = self.parse_pattern()
            return ast.PatRef(span=lo.merge(inner.span), inner=inner, mutability=mut)
        if self.at(T.INT) or self.at(T.STRING) or self.at(T.CHAR) \
                or self.at(T.KW_TRUE) or self.at(T.KW_FALSE) or self.at(T.MINUS):
            neg = bool(self.eat(T.MINUS))
            tok = self.tok
            self.pos += 1
            value = tok.value
            if tok.kind is T.KW_TRUE:
                value = True
            elif tok.kind is T.KW_FALSE:
                value = False
            if neg:
                value = -value
            if self.at(T.DOTDOTEQ) or self.at(T.DOTDOT):
                inclusive = self.at(T.DOTDOTEQ)
                self.pos += 1
                hi_neg = bool(self.eat(T.MINUS))
                hi_tok = self.tok
                self.pos += 1
                hi_value = -hi_tok.value if hi_neg else hi_tok.value
                return ast.PatRange(span=lo, lo=value, hi=hi_value,
                                    inclusive=inclusive)
            return ast.PatLiteral(span=lo, value=value)
        if self.eat(T.LPAREN):
            elements: List[ast.Pat] = []
            while not self.at(T.RPAREN):
                elements.append(self.parse_pattern())
                if not self.eat(T.COMMA):
                    break
            self.expect(T.RPAREN)
            if len(elements) == 1:
                return elements[0]
            return ast.PatTuple(span=lo, elements=elements)
        raise self.error(f"expected pattern, found {self.tok.text!r}")

    # -- statements & blocks -----------------------------------------------------

    def parse_block(self, is_unsafe: bool = False) -> ast.Block:
        self.enter()
        lo = self.expect(T.LBRACE).span
        statements: List[ast.Stmt] = []
        tail: Optional[ast.Expr] = None
        while not self.at(T.RBRACE):
            if self.eat(T.SEMI):
                continue
            stmt_or_expr = self.parse_stmt()
            if isinstance(stmt_or_expr, ast.ExprStmt) and not stmt_or_expr.has_semi:
                if self.at(T.RBRACE):
                    tail = stmt_or_expr.expr
                    break
                # Block-like expression used as a statement.
                statements.append(stmt_or_expr)
            else:
                statements.append(stmt_or_expr)
        hi = self.expect(T.RBRACE).span
        self.depth -= 1
        return ast.Block(span=lo.merge(hi), statements=statements, tail=tail,
                         is_unsafe=is_unsafe)

    def parse_stmt(self) -> ast.Stmt:
        lo = self.tok.span
        if self.at(T.KW_LET):
            return self.parse_let()
        if self.tok.kind in (T.KW_FN, T.KW_STRUCT, T.KW_ENUM, T.KW_IMPL,
                             T.KW_TRAIT, T.KW_USE, T.KW_MOD, T.KW_STATIC,
                             T.KW_CONST) and not (
                self.at(T.KW_CONST) and self.peek().kind is T.LBRACE):
            item = self.parse_item()
            return ast.ItemStmt(span=item.span, item=item)
        if self.at(T.KW_UNSAFE) and self.peek().kind is T.KW_FN:
            item = self.parse_item()
            return ast.ItemStmt(span=item.span, item=item)
        expr = self.parse_expr()
        has_semi = bool(self.eat(T.SEMI))
        return ast.ExprStmt(span=lo.merge(expr.span), expr=expr, has_semi=has_semi)

    def parse_let(self) -> ast.LetStmt:
        lo = self.expect(T.KW_LET).span
        pattern = self.parse_pattern()
        ty = None
        if self.eat(T.COLON):
            ty = self.parse_type()
        init = None
        else_block = None
        if self.eat(T.EQ):
            init = self.parse_expr()
            if self.eat(T.KW_ELSE):
                else_block = self.parse_block()
        self.expect(T.SEMI)
        return ast.LetStmt(span=lo.merge(self.tokens[self.pos - 1].span),
                           pattern=pattern, ty=ty, init=init,
                           else_block=else_block)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, min_power: int = 0, no_struct: bool = False) -> ast.Expr:
        if no_struct:
            self.no_struct_depth += 1
        try:
            return self._parse_expr_inner(min_power)
        finally:
            if no_struct:
                self.no_struct_depth -= 1

    def _parse_expr_inner(self, min_power: int) -> ast.Expr:
        self.enter()
        base = self.depth
        outer_peak, self.peak = self.peak, base
        lhs = self._parse_prefix()
        while True:
            kind = self.tok.kind
            # Assignment (right-associative, lowest precedence).
            if kind is T.EQ and min_power <= 1:
                self.link()
                self.pos += 1
                value = self._parse_expr_inner(1)
                lhs = ast.Assign(span=lhs.span.merge(value.span), target=lhs,
                                 value=value)
                continue
            if kind in _COMPOUND_ASSIGN and min_power <= 1:
                op = _COMPOUND_ASSIGN[kind]
                self.link()
                self.pos += 1
                value = self._parse_expr_inner(1)
                lhs = ast.CompoundAssign(span=lhs.span.merge(value.span), op=op,
                                         target=lhs, value=value)
                continue
            # Ranges.
            if kind in (T.DOTDOT, T.DOTDOTEQ) and min_power <= 2:
                inclusive = kind is T.DOTDOTEQ
                self.link()
                self.pos += 1
                hi = None
                if self.tok.kind in _EXPR_START:
                    hi = self._parse_expr_inner(3)
                lhs = ast.Range(span=lhs.span, lo=lhs, hi=hi, inclusive=inclusive)
                continue
            # `as` casts bind tighter than binary operators.
            if kind is T.KW_AS:
                self.link()
                self.pos += 1
                ty = self.parse_type()
                lhs = ast.Cast(span=lhs.span.merge(ty.span), operand=lhs,
                               target_ty=ty)
                continue
            if kind in _BINARY_POWER:
                left_power, right_power = _BINARY_POWER[kind]
                if left_power < min_power:
                    break
                op = _BINOP_FOR_TOKEN[kind]
                self.link()
                self.pos += 1
                rhs = self._parse_expr_inner(right_power)
                lhs = ast.Binary(span=lhs.span.merge(rhs.span), op=op,
                                 left=lhs, right=rhs)
                continue
            break
        self.depth = base - 1
        self.peak = max(outer_peak, self.peak)
        return lhs

    def _parse_prefix(self) -> ast.Expr:
        lo = self.tok.span
        kind = self.tok.kind
        if kind in _PREFIX_OPS:
            self.enter()
            self.pos += 1
            mut = Mutability.MUT if kind is T.AMP and self.eat(T.KW_MUT) \
                else Mutability.NOT
            operand = self._parse_prefix()
            self.depth -= 1
            if kind is T.AMP:
                return ast.Reference(span=lo.merge(operand.span),
                                     operand=operand, mutability=mut)
            return ast.Unary(span=lo.merge(operand.span),
                             op=_PREFIX_OPS[kind], operand=operand)
        if kind is T.DOTDOT:       # prefix range ..hi
            self.pos += 1
            hi = None
            if self.tok.kind in _EXPR_START:
                hi = self._parse_expr_inner(3)
            return ast.Range(span=lo, lo=None, hi=hi, inclusive=False)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        base = self.depth
        expr = self._parse_primary()
        while True:
            if self.at(T.DOT):
                nxt = self.peek()
                self.link()
                if nxt.kind is T.INT:
                    self.pos += 2
                    expr = ast.TupleIndex(span=expr.span.merge(nxt.span),
                                          base=expr, index=nxt.value)
                    continue
                if nxt.kind is T.IDENT and nxt.text == "await":
                    self.pos += 2
                    expr = ast.AwaitStub(span=expr.span, operand=expr)
                    continue
                if nxt.kind is T.IDENT or nxt.is_keyword():
                    self.pos += 2
                    method = nxt.text
                    generic_args: List[ast.Ty] = []
                    if self.at(T.COLONCOLON) and self.peek().kind is T.LT:
                        self.pos += 1
                        generic_args = self._parse_generic_args()
                    if self.eat(T.LPAREN):
                        args = self._parse_call_args()
                        expr = ast.MethodCall(
                            span=expr.span.merge(self.tokens[self.pos - 1].span),
                            receiver=expr, method=method, args=args,
                            generic_args=generic_args)
                    else:
                        expr = ast.FieldAccess(span=expr.span.merge(nxt.span),
                                               base=expr, field_name=method)
                    continue
                raise self.error("expected field or method name after `.`")
            if self.eat(T.LPAREN):
                self.link()
                args = self._parse_call_args()
                expr = ast.Call(span=expr.span.merge(self.tokens[self.pos - 1].span),
                                callee=expr, args=args)
                continue
            if self.eat(T.LBRACKET):
                self.link()
                index = self.parse_expr()
                hi = self.expect(T.RBRACKET).span
                expr = ast.Index(span=expr.span.merge(hi), base=expr, index=index)
                continue
            if self.eat(T.QUESTION):
                self.link()
                expr = ast.Try(span=expr.span, operand=expr)
                continue
            break
        self.depth = base
        return expr

    def _parse_call_args(self) -> List[ast.Expr]:
        args: List[ast.Expr] = []
        saved = self.no_struct_depth
        self.no_struct_depth = 0    # parens re-allow struct literals
        try:
            while not self.at(T.RPAREN):
                args.append(self.parse_expr())
                if not self.eat(T.COMMA):
                    break
            self.expect(T.RPAREN)
        finally:
            self.no_struct_depth = saved
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        lo = tok.span
        kind = tok.kind

        # The common case first: a path, a macro call or a struct literal.
        if kind in _PATH_SEGMENT:
            if kind is T.IDENT and self.peek().kind is T.BANG:
                return self._parse_macro_call()
            path = self.parse_path()
            if self.at(T.LBRACE) and not self.no_struct_depth \
                    and self._path_can_be_struct(path):
                return self._parse_struct_literal(path)
            return ast.PathExpr(span=lo.merge(self.tokens[self.pos - 1].span),
                                path=path)
        if kind is T.INT or kind is T.FLOAT:
            self.pos += 1
            return ast.Literal(span=lo, value=tok.value,
                               suffix=tok.suffix or None)
        if kind is T.STRING or kind is T.CHAR:
            self.pos += 1
            return ast.Literal(span=lo, value=tok.value)
        if kind is T.KW_TRUE:
            self.pos += 1
            return ast.Literal(span=lo, value=True)
        if kind is T.KW_FALSE:
            self.pos += 1
            return ast.Literal(span=lo, value=False)

        if kind is T.KW_IF:
            return self._parse_if()
        if kind is T.KW_MATCH:
            return self._parse_match()
        if kind is T.KW_WHILE:
            return self._parse_while()
        if kind is T.KW_LOOP:
            self.pos += 1
            body = self.parse_block()
            return ast.Loop(span=lo.merge(body.span), body=body)
        if kind is T.KW_FOR:
            return self._parse_for()
        if kind is T.KW_RETURN:
            self.pos += 1
            value = None
            if self.tok.kind in _EXPR_START:
                value = self.parse_expr()
            return ast.Return(span=lo, value=value)
        if kind is T.KW_BREAK:
            self.pos += 1
            value = None
            if self.tok.kind in _EXPR_START and not self.at(T.LBRACE):
                value = self.parse_expr()
            return ast.Break(span=lo, value=value)
        if kind is T.KW_CONTINUE:
            self.pos += 1
            return ast.Continue(span=lo)
        if kind is T.KW_UNSAFE:
            self.pos += 1
            block = self.parse_block(is_unsafe=True)
            return block
        if kind is T.LBRACE:
            return self.parse_block()
        if kind is T.KW_MOVE or kind is T.PIPE or kind is T.PIPEPIPE:
            return self._parse_closure()

        if kind is T.LPAREN:
            self.pos += 1
            saved = self.no_struct_depth
            self.no_struct_depth = 0
            try:
                if self.eat(T.RPAREN):
                    return ast.TupleLiteral(span=lo, elements=[])
                first = self.parse_expr()
                if self.at(T.COMMA):
                    elements = [first]
                    while self.eat(T.COMMA):
                        if self.at(T.RPAREN):
                            break
                        elements.append(self.parse_expr())
                    self.expect(T.RPAREN)
                    return ast.TupleLiteral(span=lo, elements=elements)
                self.expect(T.RPAREN)
                return first
            finally:
                self.no_struct_depth = saved

        if kind is T.LBRACKET:
            self.pos += 1
            saved = self.no_struct_depth
            self.no_struct_depth = 0
            try:
                if self.eat(T.RBRACKET):
                    return ast.ArrayLiteral(span=lo, elements=[])
                first = self.parse_expr()
                if self.eat(T.SEMI):
                    count = self.parse_expr()
                    self.expect(T.RBRACKET)
                    return ast.ArrayLiteral(span=lo, elements=[],
                                            repeat=(first, count))
                elements = [first]
                while self.eat(T.COMMA):
                    if self.at(T.RBRACKET):
                        break
                    elements.append(self.parse_expr())
                self.expect(T.RBRACKET)
                return ast.ArrayLiteral(span=lo, elements=elements)
            finally:
                self.no_struct_depth = saved

        raise self.error(f"expected expression, found "
                         f"{self.tok.text or self.tok.kind.value!r}")

    @staticmethod
    def _path_can_be_struct(path: ast.Path) -> bool:
        last = path.last.name
        return bool(last) and (last[0].isupper() or last == "Self")

    def _parse_struct_literal(self, path: ast.Path) -> ast.Expr:
        lo = self.expect(T.LBRACE).span
        fields: List[Tuple[str, ast.Expr]] = []
        base = None
        saved = self.no_struct_depth
        self.no_struct_depth = 0
        try:
            while not self.at(T.RBRACE):
                if self.eat(T.DOTDOT):
                    base = self.parse_expr()
                    break
                name = self.expect(T.IDENT, "field name").text
                if self.eat(T.COLON):
                    value = self.parse_expr()
                else:
                    seg = ast.Path(span=self.tokens[self.pos - 1].span,
                                   segments=[ast.PathSegment(name)])
                    value = ast.PathExpr(span=seg.span, path=seg)
                fields.append((name, value))
                if not self.eat(T.COMMA):
                    break
            hi = self.expect(T.RBRACE).span
        finally:
            self.no_struct_depth = saved
        return ast.StructLiteral(span=path.span.merge(hi), path=path,
                                 fields=fields, base=base)

    def _parse_macro_call(self) -> ast.Expr:
        lo = self.tok.span
        name = self.expect(T.IDENT).text
        self.expect(T.BANG)
        if self.at(T.LPAREN):
            open_kind, close_kind = T.LPAREN, T.RPAREN
        elif self.at(T.LBRACKET):
            open_kind, close_kind = T.LBRACKET, T.RBRACKET
        elif self.at(T.LBRACE):
            open_kind, close_kind = T.LBRACE, T.RBRACE
        else:
            raise self.error("expected macro delimiter")
        self.expect(open_kind)
        args: List[ast.Expr] = []
        format_string: Optional[str] = None
        repeat = None
        saved = self.no_struct_depth
        self.no_struct_depth = 0
        try:
            first = True
            while not self.at(close_kind):
                expr = self.parse_expr()
                if first and isinstance(expr, ast.Literal) \
                        and isinstance(expr.value, str):
                    format_string = expr.value
                first = False
                if self.eat(T.SEMI):   # vec![elem; count]
                    count = self.parse_expr()
                    repeat = (expr, count)
                    break
                args.append(expr)
                if not self.eat(T.COMMA):
                    break
            hi = self.expect(close_kind).span
        finally:
            self.no_struct_depth = saved
        return ast.MacroCall(span=lo.merge(hi), name=name, args=args,
                             format_string=format_string, repeat=repeat)

    def _parse_closure(self) -> ast.Expr:
        lo = self.tok.span
        is_move = bool(self.eat(T.KW_MOVE))
        params: List[Tuple[str, Optional[ast.Ty]]] = []
        if not self.eat(T.PIPEPIPE):
            self.expect(T.PIPE)
            while not self.at(T.PIPE):
                self.eat(T.KW_MUT)
                if self.at(T.UNDERSCORE):
                    p_name = "_"
                    self.pos += 1
                else:
                    p_name = self.expect(T.IDENT, "closure parameter").text
                p_ty = None
                if self.eat(T.COLON):
                    p_ty = self.parse_type()
                params.append((p_name, p_ty))
                if not self.eat(T.COMMA):
                    break
            self.expect(T.PIPE)
        if self.eat(T.ARROW):
            self.parse_type()
            body: ast.Expr = self.parse_block()
        else:
            body = self.parse_expr()
        return ast.Closure(span=lo.merge(body.span), params=params, body=body,
                           is_move=is_move)

    def _parse_if(self) -> ast.Expr:
        lo = self.expect(T.KW_IF).span
        if self.eat(T.KW_LET):
            pattern = self.parse_pattern()
            self.expect(T.EQ)
            scrutinee = self.parse_expr(no_struct=True)
            then_block = self.parse_block()
            else_branch = self._parse_else()
            return ast.IfLet(span=lo.merge(then_block.span), pattern=pattern,
                             scrutinee=scrutinee, then_block=then_block,
                             else_branch=else_branch)
        condition = self.parse_expr(no_struct=True)
        then_block = self.parse_block()
        else_branch = self._parse_else()
        return ast.If(span=lo.merge(then_block.span), condition=condition,
                      then_block=then_block, else_branch=else_branch)

    def _parse_else(self) -> Optional[ast.Expr]:
        if not self.eat(T.KW_ELSE):
            return None
        if self.at(T.KW_IF):
            return self._parse_if()
        return self.parse_block()

    def _parse_match(self) -> ast.Expr:
        lo = self.expect(T.KW_MATCH).span
        scrutinee = self.parse_expr(no_struct=True)
        self.expect(T.LBRACE)
        arms: List[ast.MatchArm] = []
        while not self.at(T.RBRACE):
            a_lo = self.tok.span
            pattern = self.parse_pattern()
            while self.eat(T.PIPE):        # or-patterns: keep first alternative
                self.parse_pattern()
            guard = None
            if self.eat(T.KW_IF):
                guard = self.parse_expr()
            self.expect(T.FATARROW)
            body = self.parse_expr()
            arms.append(ast.MatchArm(span=a_lo.merge(body.span), pattern=pattern,
                                     guard=guard, body=body))
            self.eat(T.COMMA)
        hi = self.expect(T.RBRACE).span
        return ast.Match(span=lo.merge(hi), scrutinee=scrutinee, arms=arms)

    def _parse_while(self) -> ast.Expr:
        lo = self.expect(T.KW_WHILE).span
        if self.eat(T.KW_LET):
            pattern = self.parse_pattern()
            self.expect(T.EQ)
            scrutinee = self.parse_expr(no_struct=True)
            body = self.parse_block()
            return ast.WhileLet(span=lo.merge(body.span), pattern=pattern,
                                scrutinee=scrutinee, body=body)
        condition = self.parse_expr(no_struct=True)
        body = self.parse_block()
        return ast.While(span=lo.merge(body.span), condition=condition, body=body)

    def _parse_for(self) -> ast.Expr:
        lo = self.expect(T.KW_FOR).span
        pattern = self.parse_pattern()
        self.expect(T.KW_IN)
        iterable = self.parse_expr(no_struct=True)
        body = self.parse_block()
        return ast.For(span=lo.merge(body.span), pattern=pattern,
                       iterable=iterable, body=body)


def parse_source(text: str, name: str = "<input>") -> ast.Crate:
    """Parse MiniRust source ``text`` into a :class:`~repro.lang.ast_nodes.Crate`."""
    return Parser(SourceFile(name, text)).parse_crate(name=name)
