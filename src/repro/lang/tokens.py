"""Token definitions for the MiniRust lexer."""

from __future__ import annotations

import enum
from typing import Optional

from repro.lang.source import Span


class TokenKind(enum.Enum):
    # Literals and names
    IDENT = "ident"
    LIFETIME = "lifetime"          # 'a
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"

    # Keywords
    KW_AS = "as"
    KW_BREAK = "break"
    KW_CONST = "const"
    KW_CONTINUE = "continue"
    KW_CRATE = "crate"
    KW_DYN = "dyn"
    KW_ELSE = "else"
    KW_ENUM = "enum"
    KW_EXTERN = "extern"
    KW_FALSE = "false"
    KW_FN = "fn"
    KW_FOR = "for"
    KW_IF = "if"
    KW_IMPL = "impl"
    KW_IN = "in"
    KW_LET = "let"
    KW_LOOP = "loop"
    KW_MATCH = "match"
    KW_MOD = "mod"
    KW_MOVE = "move"
    KW_MUT = "mut"
    KW_PUB = "pub"
    KW_REF = "ref"
    KW_RETURN = "return"
    KW_SELF = "self"
    KW_SELF_TYPE = "Self"
    KW_STATIC = "static"
    KW_STRUCT = "struct"
    KW_SUPER = "super"
    KW_TRAIT = "trait"
    KW_TRUE = "true"
    KW_TYPE = "type"
    KW_UNSAFE = "unsafe"
    KW_USE = "use"
    KW_WHERE = "where"
    KW_WHILE = "while"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    COLONCOLON = "::"
    ARROW = "->"
    FATARROW = "=>"
    DOT = "."
    DOTDOT = ".."
    DOTDOTEQ = "..="
    EQ = "="
    EQEQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    BANG = "!"
    AMPAMP = "&&"
    PIPEPIPE = "||"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    SHL = "<<"
    SHR = ">>"
    PLUSEQ = "+="
    MINUSEQ = "-="
    STAREQ = "*="
    SLASHEQ = "/="
    PERCENTEQ = "%="
    AMPEQ = "&="
    PIPEEQ = "|="
    CARETEQ = "^="
    SHLEQ = "<<="
    SHREQ = ">>="
    QUESTION = "?"
    POUND = "#"
    AT = "@"
    UNDERSCORE = "_"

    EOF = "<eof>"

    __hash__ = object.__hash__  # identity; Enum's own hashes the name


KEYWORDS = {
    "as": TokenKind.KW_AS,
    "break": TokenKind.KW_BREAK,
    "const": TokenKind.KW_CONST,
    "continue": TokenKind.KW_CONTINUE,
    "crate": TokenKind.KW_CRATE,
    "dyn": TokenKind.KW_DYN,
    "else": TokenKind.KW_ELSE,
    "enum": TokenKind.KW_ENUM,
    "extern": TokenKind.KW_EXTERN,
    "false": TokenKind.KW_FALSE,
    "fn": TokenKind.KW_FN,
    "for": TokenKind.KW_FOR,
    "if": TokenKind.KW_IF,
    "impl": TokenKind.KW_IMPL,
    "in": TokenKind.KW_IN,
    "let": TokenKind.KW_LET,
    "loop": TokenKind.KW_LOOP,
    "match": TokenKind.KW_MATCH,
    "mod": TokenKind.KW_MOD,
    "move": TokenKind.KW_MOVE,
    "mut": TokenKind.KW_MUT,
    "pub": TokenKind.KW_PUB,
    "ref": TokenKind.KW_REF,
    "return": TokenKind.KW_RETURN,
    "self": TokenKind.KW_SELF,
    "Self": TokenKind.KW_SELF_TYPE,
    "static": TokenKind.KW_STATIC,
    "struct": TokenKind.KW_STRUCT,
    "super": TokenKind.KW_SUPER,
    "trait": TokenKind.KW_TRAIT,
    "true": TokenKind.KW_TRUE,
    "type": TokenKind.KW_TYPE,
    "unsafe": TokenKind.KW_UNSAFE,
    "use": TokenKind.KW_USE,
    "where": TokenKind.KW_WHERE,
    "while": TokenKind.KW_WHILE,
}


class Token:
    """One lexed token with its source span and, for literals, its value.

    A numeric literal also carries its type ``suffix`` (``"u8"``,
    ``"f32"``, or ``""`` when it has none).  A plain slotted class: the
    lexer builds one per token, and tokens are never hashed or compared.
    """

    __slots__ = ("kind", "text", "span", "value", "suffix")

    def __init__(self, kind: TokenKind, text: str, span: Span,
                 value: Optional[object] = None, suffix: str = "") -> None:
        self.kind = kind
        self.text = text
        self.span = span
        self.value = value
        self.suffix = suffix

    def is_keyword(self) -> bool:
        return self.kind.name.startswith("KW_")

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"
