"""Property-based tests (hypothesis) on core invariants."""

import string

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import interp

from repro.lang.lexer import _OPERATORS, tokenize
from repro.lang.tokens import TokenKind
from repro.lang.parser import parse_source
from repro.lang.source import SourceFile, Span
from repro.lang.diagnostics import CompileError
from repro.mir.build import build_program
from repro.mir.cfg import Cfg
from repro.mir.nodes import StatementKind


# ---------------------------------------------------------------------------
# Lexer properties
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s not in {
        "as", "break", "const", "continue", "crate", "dyn", "else", "enum",
        "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop",
        "match", "mod", "move", "mut", "pub", "ref", "return", "self",
        "static", "struct", "super", "trait", "true", "type", "unsafe",
        "use", "where", "while", "_",
    })


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_int_literal_roundtrip(n):
    tokens = tokenize(str(n))
    assert tokens[0].value == n


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hex_literal_roundtrip(n):
    tokens = tokenize(hex(n))
    assert tokens[0].value == n


@given(st.text(alphabet=string.ascii_letters + string.digits + " _.,!?",
               max_size=40))
def test_string_literal_roundtrip(s):
    tokens = tokenize('"' + s + '"')
    assert tokens[0].value == s


@given(identifiers)
def test_identifier_roundtrip(name):
    tokens = tokenize(name)
    assert tokens[0].text == name


@given(st.lists(st.sampled_from(["+", "-", "*", "/", "==", "<", ">>", "&&",
                                 "(", ")", "{", "}", "let", "x", "1"]),
                max_size=30))
def test_lexer_never_crashes_on_token_soup(parts):
    text = " ".join(parts)
    try:
        tokenize(text)
    except Exception as exc:   # rejection is fine; crashing is not
        _assert_located_compile_error(exc, text)


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_lexer_terminates_on_arbitrary_input(text):
    try:
        tokens = tokenize(text)
    except Exception as exc:
        _assert_located_compile_error(exc, text)
        return
    # Spans are within bounds and non-decreasing.
    last = 0
    for token in tokens[:-1]:
        assert 0 <= token.span.lo <= token.span.hi <= len(text)
        assert token.span.lo >= last
        last = token.span.lo


@given(st.text(alphabet="0123456789_.xobefiu2346 ", max_size=24))
@settings(max_examples=300)
def test_lexer_numeric_soup_yields_only_compile_errors(text):
    try:
        tokenize(text)
    except Exception as exc:
        _assert_located_compile_error(exc, text)


def _assert_located_compile_error(exc, text):
    assert isinstance(exc, CompileError), repr(exc)
    assert not exc.span.is_dummy
    assert 0 <= exc.span.lo <= len(text)


# The lexer's fast path is one compiled pattern (whitespace, line
# comments, ASCII-initial identifiers, operators); everything else takes
# the per-kind slow path.  These cases sit on the boundary between them.

_OPERATOR_TEXTS = [text for text, _kind in _OPERATORS]
_OPERATOR_KINDS = dict(_OPERATORS)


@given(st.text(alphabet="aZ_\u00e9", min_size=1, max_size=6),
       st.text(alphabet="aZ_\u00e9\u00b29", max_size=6))
def test_identifier_starts_and_continuations(start, rest):
    # `é` starts an identifier (slow path when first); `²` continues one.
    word = start + rest
    expected = TokenKind.UNDERSCORE if word == "_" else TokenKind.IDENT
    assert [(t.kind, t.text) for t in tokenize(word)[:-1]] == [
        (expected, word)]


@given(st.text(alphabet="a\u00b29_", max_size=5))
def test_superscript_digit_never_starts_an_identifier(rest):
    # `²` is a digit to str.isdigit but not alphabetic: it is never an
    # identifier start, and never a number either.
    with pytest.raises(CompileError):
        tokenize("\u00b2" + rest)


@given(st.text(alphabet="_x1", max_size=4))
def test_underscore_alone_vs_prefix(rest):
    word = "_" + rest
    expected = TokenKind.UNDERSCORE if word == "_" else TokenKind.IDENT
    assert [t.kind for t in tokenize(word)[:-1]] == [expected]


def _greedy_operators(text):
    """Reference maximal munch: at each position, the longest operator."""
    out, i = [], 0
    while i < len(text):
        op = max((o for o in _OPERATOR_TEXTS if text.startswith(o, i)),
                 key=len)
        out.append(op)
        i += len(op)
    return out


@given(st.lists(st.sampled_from(_OPERATOR_TEXTS), max_size=8))
def test_operator_maximal_munch(ops):
    text = "".join(ops)
    assume("//" not in text and "/*" not in text)
    expected = _greedy_operators(text)
    assert [(t.kind, t.text) for t in tokenize(text)[:-1]] == [
        (_OPERATOR_KINDS[op], op) for op in expected]


def _reference_slash_lexer(text):
    """Reference lexer for the alphabet of ``test_slash_and_comments``:
    token texts, or None where the lexer must reject the input."""
    out, i, n = [], 0, len(text)
    while i < n:
        if text[i] in " \n":
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while depth:
                if i >= n:
                    return None
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
        elif text[i] == "a":
            j = i
            while j < n and text[j] == "a":
                j += 1
            out.append(text[i:j])
            i = j
        else:
            op = next(o for o in ("/=", "*=", "==", "/", "*", "=")
                      if text.startswith(o, i))
            out.append(op)
            i += len(op)
    return out


@given(st.lists(st.sampled_from(["/", "//", "/*", "*/", "*", "=", "a",
                                 " ", "\n"]), max_size=16))
@settings(max_examples=300)
def test_slash_and_comments(parts):
    # A lone `/` must not eat the start of `//` or `/*`, and nested block
    # comments may follow any operator directly.
    text = "".join(parts)
    expected = _reference_slash_lexer(text)
    if expected is None:
        with pytest.raises(CompileError, match="unterminated block comment"):
            tokenize(text)
    else:
        assert [t.text for t in tokenize(text)[:-1]] == expected


@given(st.text(alphabet="ab\n", max_size=40))
def test_line_starts_match_every_newline(text):
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    assert SourceFile("<t>", text)._line_starts == starts


# ---------------------------------------------------------------------------
# Parser / MIR properties on generated programs
# ---------------------------------------------------------------------------

@st.composite
def arith_expr(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return str(draw(st.integers(min_value=0, max_value=100)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arith_expr(depth=depth + 1))
    right = draw(arith_expr(depth=depth + 1))
    return f"({left} {op} {right})"


@given(arith_expr())
@settings(max_examples=60)
def test_interpreter_matches_python_arithmetic(expr):
    result = interp(f'fn main() {{ println!("{{}}", {expr}); }}')
    assert result.ok
    assert result.stdout == [str(eval(expr))]


@st.composite
def small_program(draw):
    n_vars = draw(st.integers(min_value=1, max_value=4))
    lines = []
    names = []
    for i in range(n_vars):
        name = f"v{i}"
        value = draw(st.integers(min_value=0, max_value=50))
        if names and draw(st.booleans()):
            src = draw(st.sampled_from(names))
            lines.append(f"let {name} = {src} + {value};")
        else:
            lines.append(f"let {name} = {value};")
        names.append(name)
    lines.append(f'println!("{{}}", {names[-1]});')
    return "fn main() { " + " ".join(lines) + " }"


@given(small_program())
@settings(max_examples=60)
def test_generated_programs_compile_and_run(src):
    crate = parse_source(src)
    program = build_program(crate)
    body = program.functions["main"]
    # Structural invariants.
    for block in body.blocks:
        assert block.terminator is not None
    live, dead = set(), set()
    for _bb, _i, stmt in body.iter_statements():
        if stmt.kind is StatementKind.STORAGE_LIVE:
            live.add(stmt.local)
        elif stmt.kind is StatementKind.STORAGE_DEAD:
            dead.add(stmt.local)
    assert dead <= live | {0}
    result = interp(src)
    assert result.ok


@given(small_program())
@settings(max_examples=30)
def test_cfg_invariants(src):
    program = build_program(parse_source(src))
    body = program.functions["main"]
    cfg = Cfg(body)
    rpo = cfg.reverse_post_order()
    assert len(rpo) == len(set(rpo))
    for bb in rpo:
        assert cfg.dominates(0, bb)
        for succ in cfg.successors[bb]:
            assert bb in cfg.predecessors[succ]


# ---------------------------------------------------------------------------
# Span properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000),
       st.integers(0, 1000))
def test_span_merge_covers_both(a, b, c, d):
    s1 = Span(min(a, b), max(a, b))
    s2 = Span(min(c, d), max(c, d))
    merged = s1.merge(s2)
    assert merged.lo <= s1.lo and merged.lo <= s2.lo
    assert merged.hi >= s1.hi and merged.hi >= s2.hi


@given(st.text(alphabet=string.printable, max_size=200), st.integers(0, 220))
def test_line_col_in_bounds(text, offset):
    source = SourceFile("t", text)
    line, col = source.line_col(offset)
    assert line >= 1 and col >= 1
    assert line <= text.count("\n") + 1


# ---------------------------------------------------------------------------
# Interpreter determinism
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=7),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_scheduler_deterministic(seed, quantum):
    src = """
        fn main() {
            let total = Arc::new(Mutex::new(0));
            let t2 = Arc::clone(&total);
            let h = thread::spawn(move || {
                for i in 0..5 {
                    let mut g = t2.lock().unwrap();
                    *g += 1;
                }
            });
            for i in 0..5 {
                let mut g = total.lock().unwrap();
                *g += 1;
            }
            h.join();
            println!("{}", *total.lock().unwrap());
        }"""
    a = interp(src, seed=seed, quantum=quantum)
    b = interp(src, seed=seed, quantum=quantum)
    assert a.outcome == b.outcome == "ok"
    assert a.stdout == b.stdout == ["10"]
    assert a.steps == b.steps


# ---------------------------------------------------------------------------
# Detector false-positive freedom on benign generated code
# ---------------------------------------------------------------------------

from repro.corpus.benign import BENIGN_TEMPLATES
from repro.detectors.registry import run_detectors


@given(st.lists(st.sampled_from(sorted(BENIGN_TEMPLATES)), min_size=1,
                max_size=4, unique=True),
       st.integers(min_value=0, max_value=999))
@settings(max_examples=40, deadline=None)
def test_detectors_fp_free_on_benign_templates(names, salt):
    """Soundness-of-silence: arbitrary combinations of the benign corpus
    templates must never produce ERROR-severity findings."""
    source = "\n".join(BENIGN_TEMPLATES[name](f"pb{salt}x{i}")
                       for i, name in enumerate(names))
    program = build_program(parse_source(source))
    report = run_detectors(program)
    errors = [f for f in report.findings if f.severity.value == "error"]
    assert not errors, [f.message for f in errors]


@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_vec_push_pop_roundtrip(base, count):
    """Interpreter Vec semantics: push N then pop N returns the values in
    LIFO order and leaves the vector empty."""
    pushes = " ".join(f"v.push({base} + {i});" for i in range(count))
    pops = " ".join(
        f'println!("{{}}", v.pop().unwrap());' for _ in range(count))
    result = interp(f"fn main() {{ let mut v = Vec::new(); {pushes} {pops} "
                    f'println!("{{}}", v.len()); }}')
    assert result.ok
    expected = [str(base + i) for i in reversed(range(count))] + ["0"]
    assert result.stdout == expected


@st.composite
def option_match_program(draw):
    """A random Option<i32> value matched through guards and literals."""
    is_some = draw(st.booleans())
    payload = draw(st.integers(min_value=-20, max_value=20))
    pivot = draw(st.integers(min_value=-20, max_value=20))
    value_src = f"Some({payload})" if is_some else "None"
    src = f"""
        fn main() {{
            let v: Option<i32> = {value_src};
            let out = match v {{
                Some(n) if n > {pivot} => n * 2,
                Some(0) => 100,
                Some(n) => n - 1,
                None => -99,
            }};
            println!("{{}}", out);
        }}"""
    if not is_some:
        expected = -99
    elif payload > pivot:
        expected = payload * 2
    elif payload == 0:
        expected = 100
    else:
        expected = payload - 1
    return src, expected


@given(option_match_program())
@settings(max_examples=50, deadline=None)
def test_match_semantics_against_oracle(case):
    src, expected = case
    result = interp(src)
    assert result.ok, result.error
    assert result.stdout == [str(expected)]
