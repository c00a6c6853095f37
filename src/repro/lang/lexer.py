"""Lexer for MiniRust: one compiled pattern for the common tokens, and
per-kind methods for the rest.

Supports the full token vocabulary the parser needs: identifiers and
keywords, lifetimes (``'a``), integer literals with type suffixes and
``_`` separators (decimal / hex / octal / binary), float literals, string
and char literals with escapes, line comments, and nested block comments.
"""

from __future__ import annotations

import re
from typing import List

from repro.lang.diagnostics import CompileError
from repro.lang.source import SourceFile, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_INT_SUFFIXES = (
    "i8", "i16", "i32", "i64", "i128", "isize",
    "u8", "u16", "u32", "u64", "u128", "usize",
)
_FLOAT_SUFFIXES = ("f32", "f64")

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    ("<<=", TokenKind.SHLEQ),
    (">>=", TokenKind.SHREQ),
    ("..=", TokenKind.DOTDOTEQ),
    ("::", TokenKind.COLONCOLON),
    ("->", TokenKind.ARROW),
    ("=>", TokenKind.FATARROW),
    ("==", TokenKind.EQEQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AMPAMP),
    ("||", TokenKind.PIPEPIPE),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("+=", TokenKind.PLUSEQ),
    ("-=", TokenKind.MINUSEQ),
    ("*=", TokenKind.STAREQ),
    ("/=", TokenKind.SLASHEQ),
    ("%=", TokenKind.PERCENTEQ),
    ("&=", TokenKind.AMPEQ),
    ("|=", TokenKind.PIPEEQ),
    ("^=", TokenKind.CARETEQ),
    ("..", TokenKind.DOTDOT),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (",", TokenKind.COMMA),
    (";", TokenKind.SEMI),
    (":", TokenKind.COLON),
    (".", TokenKind.DOT),
    ("=", TokenKind.EQ),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("!", TokenKind.BANG),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("?", TokenKind.QUESTION),
    ("#", TokenKind.POUND),
    ("@", TokenKind.AT),
]

_ESCAPES = {
    "n": "\n", "r": "\r", "t": "\t", "\\": "\\",
    "'": "'", '"': '"', "0": "\0",
}

_BASE_NAMES = {16: "hexadecimal", 8: "octal", 2: "binary"}

# The fast path: one compiled pattern tried at each position, dispatched
# on the name of the group that matched.  It covers whitespace, line
# comments, ASCII-initial identifiers and keywords (``\w`` is exactly
# ``str.isalnum() or "_"``, so continuation agrees with the slow path),
# and every operator, longest first.  A lone ``/`` must not eat the start
# of a comment.  Everything else -- numbers, strings, chars, lifetimes,
# block comments, non-ASCII starts -- falls through to the per-kind
# methods below.  Identifier starts stay ASCII because ``[^\W\d]``
# admits characters such as ``²`` that ``str.isalpha`` rejects.
_MASTER = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*\n?)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<op>" + "|".join(re.escape(text) for text, _ in _OPERATORS
                           if text != "/") + r"|/(?![/*]))"
)
_OPERATOR_KINDS = dict(_OPERATORS)
_WORD_KINDS = {**KEYWORDS, "_": TokenKind.UNDERSCORE}


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_continue(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class Lexer:
    """Converts a :class:`SourceFile` into a list of :class:`Token`."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.text = source.text
        self.pos = 0

    def tokenize(self) -> List[Token]:
        text = self.text
        name = self.source.name
        end_of_text = len(text)
        match = _MASTER.match
        word_kinds = _WORD_KINDS
        op_kinds = _OPERATOR_KINDS
        ident = TokenKind.IDENT
        tokens: List[Token] = []
        append = tokens.append
        pos = self.pos
        while pos < end_of_text:
            m = match(text, pos)
            if m is None:
                self.pos = pos
                if text.startswith("/*", pos):
                    self._skip_block_comment()
                else:
                    append(self._next_token())
                pos = self.pos
                continue
            end = m.end()
            group = m.lastgroup
            if group == "word":
                word = m.group()
                append(Token(word_kinds.get(word, ident), word,
                             Span(pos, end, name)))
            elif group == "op":
                op = m.group()
                append(Token(op_kinds[op], op, Span(pos, end, name)))
            pos = end
        self.pos = pos
        tokens.append(Token(TokenKind.EOF, "", self._span(pos)))
        return tokens

    # -- internals ---------------------------------------------------------

    def _span(self, lo: int, hi: int = None) -> Span:
        return Span(lo, self.pos if hi is None else hi, self.source.name)

    def _error(self, message: str, lo: int) -> CompileError:
        return CompileError(message, self._span(lo), self.source)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _skip_block_comment(self) -> None:
        lo = self.pos
        self.pos += 2
        depth = 1
        while depth > 0:
            if self.pos >= len(self.text):
                raise self._error("unterminated block comment", lo)
            two = self.text[self.pos : self.pos + 2]
            if two == "/*":
                depth += 1
                self.pos += 2
            elif two == "*/":
                depth -= 1
                self.pos += 2
            else:
                self.pos += 1

    def _next_token(self) -> Token:
        """The slow path, for whatever the master pattern does not match."""
        ch = self.text[self.pos]
        if _is_ident_start(ch):
            return self._lex_ident()
        if ch.isdigit():
            return self._lex_number()
        if ch == '"':
            return self._lex_string()
        if ch == "'":
            return self._lex_lifetime_or_char()
        raise self._error(f"unexpected character {ch!r}", self.pos)

    def _lex_ident(self) -> Token:
        lo = self.pos
        while self.pos < len(self.text) and _is_ident_continue(self.text[self.pos]):
            self.pos += 1
        text = self.text[lo : self.pos]
        return Token(_WORD_KINDS.get(text, TokenKind.IDENT), text,
                     self._span(lo))

    def _lex_number(self) -> Token:
        lo = self.pos
        base = 10
        if self._peek() == "0" and self._peek(1) != "" \
                and self._peek(1) in "xXoObB":
            marker = self._peek(1).lower()
            base = {"x": 16, "o": 8, "b": 2}[marker]
            self.pos += 2
        digits_lo = self.pos
        allowed = "0123456789abcdefABCDEF_" if base == 16 else "0123456789_"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        digits = self.text[digits_lo : self.pos].replace("_", "")
        is_float = False
        # A '.' followed by a digit makes this a float (but `1..2` is a range,
        # and `x.method()` must not swallow the dot).
        if (base == 10 and self._peek() == "." and self._peek(1).isdigit()):
            is_float = True
            self.pos += 1
            while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "_"):
                self.pos += 1
        suffix = ""
        for candidate in _INT_SUFFIXES + _FLOAT_SUFFIXES:
            if self.text.startswith(candidate, self.pos):
                nxt = self.pos + len(candidate)
                if nxt >= len(self.text) or not _is_ident_continue(self.text[nxt]):
                    suffix = candidate
                    self.pos += len(candidate)
                    break
        text = self.text[lo : self.pos]
        if is_float or suffix in _FLOAT_SUFFIXES:
            if base != 10:
                raise self._error(
                    f"{_BASE_NAMES[base]} float literal is not supported", lo)
            try:
                value = float(text[: len(text) - len(suffix)].replace("_", ""))
            except ValueError:   # a non-ASCII digit float() rejects, e.g. `²`
                raise self._error(f"invalid float literal {text!r}", lo) from None
            return Token(TokenKind.FLOAT, text, self._span(lo), value, suffix)
        if not digits:
            raise self._error("integer literal with no digits", lo)
        try:
            value = int(digits, base)
        except ValueError:
            raise self._error(f"invalid integer literal {text!r}", lo) from None
        return Token(TokenKind.INT, text, self._span(lo), value, suffix)

    def _lex_string(self) -> Token:
        lo = self.pos
        self.pos += 1
        chars: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated string literal", lo)
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                self.pos += 1
                esc = self._peek()
                if esc not in _ESCAPES:
                    raise self._error(f"unknown escape \\{esc}", self.pos)
                chars.append(_ESCAPES[esc])
                self.pos += 1
            else:
                chars.append(ch)
                self.pos += 1
        return Token(TokenKind.STRING, self.text[lo : self.pos], self._span(lo), "".join(chars))

    def _lex_lifetime_or_char(self) -> Token:
        lo = self.pos
        # 'a  → lifetime; 'a' → char literal; '\n' → char literal.
        if _is_ident_start(self._peek(1)) and self._peek(2) != "'":
            self.pos += 1
            while self.pos < len(self.text) and _is_ident_continue(self.text[self.pos]):
                self.pos += 1
            return Token(TokenKind.LIFETIME, self.text[lo : self.pos], self._span(lo))
        self.pos += 1
        if self._peek() == "\\":
            self.pos += 1
            esc = self._peek()
            if esc not in _ESCAPES:
                raise self._error(f"unknown escape \\{esc}", self.pos)
            value = _ESCAPES[esc]
            self.pos += 1
        else:
            value = self._peek()
            self.pos += 1
        if self._peek() != "'":
            raise self._error("unterminated char literal", lo)
        self.pos += 1
        return Token(TokenKind.CHAR, self.text[lo : self.pos], self._span(lo), value)


def tokenize(text: str, name: str = "<input>") -> List[Token]:
    """Tokenise ``text`` and return the token list (ending with EOF)."""
    return Lexer(SourceFile(name, text)).tokenize()
