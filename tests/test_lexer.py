"""Lexer unit tests."""

import hashlib

import pytest

from repro.corpus.generator import generate_corpus
from repro.driver import compile_source
from repro.lang.diagnostics import CompileError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind as T


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]   # strip EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is T.EOF

    def test_identifiers(self):
        assert kinds("foo bar_baz _x x1") == [T.IDENT] * 4

    def test_underscore_is_its_own_token(self):
        assert kinds("_") == [T.UNDERSCORE]

    def test_keywords(self):
        assert kinds("fn let mut unsafe impl trait") == [
            T.KW_FN, T.KW_LET, T.KW_MUT, T.KW_UNSAFE, T.KW_IMPL, T.KW_TRAIT]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("fnord letter") == [T.IDENT, T.IDENT]

    def test_self_vs_self_type(self):
        assert kinds("self Self") == [T.KW_SELF, T.KW_SELF_TYPE]


class TestNumbers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_underscore_separator(self):
        assert values("1_000_000") == [1000000]

    def test_hex_octal_binary(self):
        assert values("0xff 0o77 0b1010") == [255, 63, 10]

    def test_suffixes(self):
        tokens = tokenize("42u8 7i64 0usize")
        assert [t.value for t in tokens[:-1]] == [42, 7, 0]
        assert [t.kind for t in tokens[:-1]] == [T.INT] * 3

    def test_float(self):
        tokens = tokenize("3.25")
        assert tokens[0].kind is T.FLOAT
        assert tokens[0].value == 3.25

    def test_range_not_float(self):
        # `1..2` must lex as INT DOTDOT INT, not a float.
        assert kinds("1..2") == [T.INT, T.DOTDOT, T.INT]

    def test_method_on_int_not_float(self):
        assert kinds("1.max") == [T.INT, T.DOT, T.IDENT]

    def test_bad_hex_raises(self):
        with pytest.raises(CompileError):
            tokenize("0x")


class TestStringsAndChars:
    def test_simple_string(self):
        assert values('"hello"') == ["hello"]

    def test_escapes(self):
        assert values(r'"a\nb\t\"q\""') == ['a\nb\t"q"']

    def test_unterminated_string_raises(self):
        with pytest.raises(CompileError):
            tokenize('"oops')

    def test_char_literal(self):
        tokens = tokenize("'a'")
        assert tokens[0].kind is T.CHAR
        assert tokens[0].value == "a"

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == "\n"

    def test_lifetime(self):
        tokens = tokenize("'a 'static")
        assert tokens[0].kind is T.LIFETIME
        assert tokens[0].text == "'a"
        assert tokens[1].kind is T.LIFETIME


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("<<= >>= ..= :: -> => == != <= >=") == [
            T.SHLEQ, T.SHREQ, T.DOTDOTEQ, T.COLONCOLON, T.ARROW, T.FATARROW,
            T.EQEQ, T.NE, T.LE, T.GE]

    def test_compound_assign(self):
        assert kinds("+= -= *= /= %= &= |= ^=") == [
            T.PLUSEQ, T.MINUSEQ, T.STAREQ, T.SLASHEQ, T.PERCENTEQ, T.AMPEQ,
            T.PIPEEQ, T.CARETEQ]

    def test_shift_vs_generics_tokens(self):
        # The lexer always produces SHR; the parser splits it.
        assert kinds("Vec<Vec<i32>>")[-1] is T.SHR

    def test_ampamp_vs_amp(self):
        assert kinds("&& &") == [T.AMPAMP, T.AMP]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [T.IDENT, T.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x */ b") == [T.IDENT, T.IDENT]

    def test_nested_block_comment(self):
        assert kinds("a /* x /* y */ z */ b") == [T.IDENT, T.IDENT]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(CompileError):
            tokenize("/* oops")


class TestSpans:
    def test_spans_cover_source(self):
        text = "let x = 42;"
        tokens = tokenize(text)
        for token in tokens[:-1]:
            assert text[token.span.lo:token.span.hi] == token.text

    def test_spans_monotonic(self):
        tokens = tokenize("fn main() { let x = 1 + 2; }")
        positions = [t.span.lo for t in tokens[:-1]]
        assert positions == sorted(positions)


class TestNumericLiteralEdges:
    """Literals that used to escape the lexer as a raw ``ValueError``."""

    def test_float_with_underscore_before_suffix(self):
        token = tokenize("1.0_f32")[0]
        assert (token.kind, token.value, token.suffix) == (T.FLOAT, 1.0, "f32")

    def test_float_with_doubled_underscore(self):
        token = tokenize("1__0.5")[0]
        assert (token.kind, token.value) == (T.FLOAT, 10.5)

    def test_float_with_underscore_before_dot(self):
        token = tokenize("1_.5")[0]
        assert (token.kind, token.value) == (T.FLOAT, 1.5)

    def test_binary_float_literal_is_located_error(self):
        with pytest.raises(CompileError, match="binary float literal") as err:
            tokenize("let x = 0bf64;")
        assert (err.value.span.lo, err.value.span.hi) == (8, 13)

    def test_octal_float_literal_is_located_error(self):
        with pytest.raises(CompileError, match="octal float literal") as err:
            tokenize("0of32")
        assert (err.value.span.lo, err.value.span.hi) == (0, 5)

    def test_float_with_non_ascii_digit_is_located_error(self):
        # `²` passes str.isdigit, so it joins the fraction, but float()
        # refuses it.
        with pytest.raises(CompileError, match="invalid float literal"):
            tokenize("1.²")

    def test_hex_digits_are_not_a_float_suffix(self):
        # `f32` is three hex digits, exactly as in Rust.
        token = tokenize("0xf32")[0]
        assert (token.kind, token.value, token.suffix) == (T.INT, 0xF32, "")

    def test_suffix_is_carried_on_the_token(self):
        tokens = tokenize("0xffu8 0xff 0b1i64 7 2.5f32")[:-1]
        assert [t.suffix for t in tokens] == ["u8", "", "i64", "", "f32"]


class TestLiteralTypes:
    """A literal's suffix, not the letters of its base marker, types it."""

    @staticmethod
    def local_types(body_src):
        program = compile_source(f"fn main() {{ {body_src} }}").program
        return {l.name: str(l.ty) for l in program.functions["main"].locals
                if l.name}

    def test_base_prefixed_literals(self):
        assert self.local_types(
            "let a = 0xffu8; let b = 0xff; let c = 0b1i64; let d = 0o7usize;"
        ) == {"a": "u8", "b": "i32", "c": "i64", "d": "usize"}

    def test_decimal_literal_suffix(self):
        assert self.local_types("let a = 7u16; let b = 1_000usize;") == {
            "a": "u16", "b": "usize"}


def _stream_digest(seeds):
    digest = hashlib.sha256()
    for seed in seeds:
        for corpus_file in generate_corpus(seed).files:
            for t in tokenize(corpus_file.text, corpus_file.name):
                digest.update(repr((t.kind.name, t.text, t.span.lo, t.span.hi,
                                    t.span.file_name, t.value)).encode())
                digest.update(b"\n")
    return digest.hexdigest()


class TestCorpusConformance:
    def test_token_streams_match_the_reference_lexer(self):
        # Recorded from the character-at-a-time lexer the compiled master
        # pattern replaced: every token's kind, text, span and value on
        # the generated corpus, seeds 0-2, must stay identical.  Re-pinned
        # only when a corpus template's text changes.
        assert _stream_digest((0, 1, 2)) == (
            "1532113b7fa0f41772bd9ae962e65d9481eeaa1f1855d35a9f656e90a3b7421a")
