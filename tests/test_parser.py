"""Parser unit tests."""

import hashlib

import pytest

from repro.corpus.generator import generate_corpus
from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import CompileError
from repro.lang.parser import parse_source


def parse(text):
    return parse_source(text)


def parse_fn_body(stmts: str) -> ast.Block:
    crate = parse(f"fn test() {{ {stmts} }}")
    return crate.items[0].body


def first_expr(stmts: str):
    body = parse_fn_body(stmts)
    if body.statements:
        stmt = body.statements[0]
        if isinstance(stmt, ast.LetStmt):
            return stmt.init
        return stmt.expr
    return body.tail


class TestItems:
    def test_empty_crate(self):
        assert parse("").items == []

    def test_fn(self):
        crate = parse("fn f(a: i32, b: bool) -> i32 { a }")
        fn = crate.items[0]
        assert isinstance(fn, ast.FnDef)
        assert fn.name == "f"
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.ret_ty is not None

    def test_unsafe_fn(self):
        fn = parse("unsafe fn f() {}").items[0]
        assert fn.is_unsafe

    def test_struct(self):
        s = parse("struct P { x: i32, y: i32 }").items[0]
        assert isinstance(s, ast.StructDef)
        assert [f.name for f in s.fields] == ["x", "y"]

    def test_tuple_struct(self):
        s = parse("struct Wrapper(i32, bool);").items[0]
        assert s.is_tuple
        assert len(s.fields) == 2

    def test_unit_struct(self):
        s = parse("struct Marker;").items[0]
        assert s.fields == []

    def test_generic_struct(self):
        s = parse("struct Holder<T> { value: T }").items[0]
        assert s.generics == ["T"]

    def test_enum(self):
        e = parse("enum E { A, B(i32), C }").items[0]
        assert isinstance(e, ast.EnumDef)
        assert [v.name for v in e.variants] == ["A", "B", "C"]
        assert len(e.variants[1].fields) == 1

    def test_impl(self):
        crate = parse("struct S; impl S { fn m(&self) {} }")
        impl = crate.items[1]
        assert isinstance(impl, ast.ImplBlock)
        assert impl.name == "S"
        assert impl.items[0].params[0].is_self

    def test_unsafe_impl_trait(self):
        impl = parse("struct S; unsafe impl Sync for S {}").items[1]
        assert impl.is_unsafe
        assert impl.trait_path.as_str() == "Sync"

    def test_unsafe_trait(self):
        t = parse("unsafe trait Danger {}").items[0]
        assert isinstance(t, ast.TraitDef)
        assert t.is_unsafe

    def test_static(self):
        s = parse("static COUNT: i32 = 0;").items[0]
        assert isinstance(s, ast.StaticDef)
        assert not s.mutability.is_mut

    def test_static_mut(self):
        s = parse("static mut COUNT: i32 = 0;").items[0]
        assert s.mutability.is_mut

    def test_use_is_skipped_gracefully(self):
        crate = parse("use std::sync::Mutex; fn f() {}")
        assert isinstance(crate.items[0], ast.UseDecl)
        assert isinstance(crate.items[1], ast.FnDef)

    def test_mod(self):
        m = parse("mod inner { fn g() {} }").items[0]
        assert isinstance(m, ast.ModDecl)
        assert m.items[0].name == "g"

    def test_walk_items_flattens_mods(self):
        crate = parse("mod a { fn f() {} mod b { fn g() {} } }")
        names = [i.name for i in crate.walk_items()]
        assert "f" in names and "g" in names

    def test_attributes_collected(self):
        fn = parse('#[derive(Debug)]\nfn f() {}').items[0]
        assert fn.attrs and "derive" in fn.attrs[0]

    def test_error_on_garbage(self):
        with pytest.raises(CompileError):
            parse("fn f( {")


class TestTypes:
    def test_nested_generics_shr_split(self):
        s = parse("struct S { v: Vec<Vec<i32>> }").items[0]
        ty = s.fields[0].ty
        assert isinstance(ty, ast.TyPath)
        inner = ty.path.last.generic_args[0]
        assert isinstance(inner, ast.TyPath)
        assert inner.path.last.name == "Vec"

    def test_ref_types(self):
        s = parse("struct S { a: &i32, b: &mut i32, c: &'a str }").items[0]
        a, b, c = [f.ty for f in s.fields]
        assert isinstance(a, ast.TyRef) and not a.mutability.is_mut
        assert isinstance(b, ast.TyRef) and b.mutability.is_mut
        assert isinstance(c, ast.TyRef) and c.lifetime == "'a"

    def test_raw_pointer_types(self):
        s = parse("struct S { a: *const i32, b: *mut u8 }").items[0]
        a, b = [f.ty for f in s.fields]
        assert isinstance(a, ast.TyRawPtr) and not a.mutability.is_mut
        assert isinstance(b, ast.TyRawPtr) and b.mutability.is_mut

    def test_tuple_unit_slice_array(self):
        s = parse(
            "struct S { a: (i32, bool), b: (), c: [u8], d: [u8; 4] }"
        ).items[0]
        a, b, c, d = [f.ty for f in s.fields]
        assert isinstance(a, ast.TyTuple)
        assert isinstance(b, ast.TyUnit)
        assert isinstance(c, ast.TySlice)
        assert isinstance(d, ast.TyArray)

    def test_fn_type(self):
        s = parse("struct S { f: fn(i32) -> bool }").items[0]
        assert isinstance(s.fields[0].ty, ast.TyFn)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = first_expr("let x = 1 + 2 * 3;")
        assert isinstance(expr, ast.Binary)
        assert expr.op is ast.BinOp.ADD
        assert isinstance(expr.right, ast.Binary)
        assert expr.right.op is ast.BinOp.MUL

    def test_comparison_below_arith(self):
        expr = first_expr("let x = 1 + 2 < 4;")
        assert expr.op is ast.BinOp.LT

    def test_logical_and_or(self):
        expr = first_expr("let x = a && b || c;")
        assert expr.op is ast.BinOp.OR
        assert expr.left.op is ast.BinOp.AND

    def test_unary(self):
        expr = first_expr("let x = -*p;")
        assert expr.op is ast.UnOp.NEG
        assert expr.operand.op is ast.UnOp.DEREF

    def test_cast_chain(self):
        expr = first_expr("let p = &x as *const i32 as *mut i32;")
        assert isinstance(expr, ast.Cast)
        assert isinstance(expr.operand, ast.Cast)
        assert isinstance(expr.operand.operand, ast.Reference)

    def test_method_chain(self):
        expr = first_expr("let g = m.lock().unwrap();")
        assert isinstance(expr, ast.MethodCall)
        assert expr.method == "unwrap"
        assert expr.receiver.method == "lock"

    def test_field_vs_method(self):
        expr = first_expr("let v = a.b.c();")
        assert isinstance(expr, ast.MethodCall)
        assert isinstance(expr.receiver, ast.FieldAccess)

    def test_tuple_index(self):
        expr = first_expr("let v = pair.0;")
        assert isinstance(expr, ast.TupleIndex)
        assert expr.index == 0

    def test_index(self):
        expr = first_expr("let v = items[i + 1];")
        assert isinstance(expr, ast.Index)

    def test_struct_literal(self):
        expr = first_expr("let p = Point { x: 1, y: 2 };")
        assert isinstance(expr, ast.StructLiteral)
        assert [name for name, _ in expr.fields] == ["x", "y"]

    def test_struct_literal_shorthand(self):
        expr = first_expr("let p = Point { x, y };")
        assert all(isinstance(v, ast.PathExpr) for _, v in expr.fields)

    def test_struct_literal_forbidden_in_condition(self):
        # `if x == S { }` must parse the `{}` as the if body.
        body = parse_fn_body("if x == Limit { return; }")
        expr = body.statements[0].expr if body.statements else body.tail
        assert isinstance(expr, ast.If)
        assert isinstance(expr.condition, ast.Binary)

    def test_range(self):
        expr = first_expr("let r = 0..10;")
        assert isinstance(expr, ast.Range)
        assert not expr.inclusive

    def test_inclusive_range(self):
        expr = first_expr("let r = 0..=10;")
        assert expr.inclusive

    def test_turbofish(self):
        expr = first_expr("let v = Vec::<i32>::new();")
        assert isinstance(expr, ast.Call)
        segments = expr.callee.path.segments
        assert segments[0].generic_args

    def test_macro_vec(self):
        expr = first_expr("let v = vec![1, 2, 3];")
        assert isinstance(expr, ast.MacroCall)
        assert expr.name == "vec"
        assert len(expr.args) == 3

    def test_macro_vec_repeat(self):
        expr = first_expr("let v = vec![0u8; 100];")
        assert expr.repeat is not None

    def test_macro_println_format(self):
        expr = first_expr('println!("{} {}", a, b);')
        assert expr.format_string == "{} {}"
        assert len(expr.args) == 3

    def test_closure(self):
        expr = first_expr("let f = |a, b| a + b;")
        assert isinstance(expr, ast.Closure)
        assert [p for p, _ in expr.params] == ["a", "b"]

    def test_move_closure(self):
        expr = first_expr("let f = move || x;")
        assert expr.is_move
        assert expr.params == []

    def test_try_operator(self):
        expr = first_expr("let v = fallible()?;")
        assert isinstance(expr, ast.Try)

    def test_unsafe_block_expr(self):
        expr = first_expr("let v = unsafe { *p };")
        assert isinstance(expr, ast.Block)
        assert expr.is_unsafe

    def test_assignment(self):
        expr = first_expr("x = y + 1;")
        assert isinstance(expr, ast.Assign)

    def test_compound_assignment(self):
        expr = first_expr("x += 1;")
        assert isinstance(expr, ast.CompoundAssign)
        assert expr.op is ast.BinOp.ADD


class TestControlFlow:
    def test_if_else_chain(self):
        expr = first_expr("if a { 1 } else if b { 2 } else { 3 };")
        assert isinstance(expr, ast.If)
        assert isinstance(expr.else_branch, ast.If)
        assert isinstance(expr.else_branch.else_branch, ast.Block)

    def test_if_let(self):
        expr = first_expr("if let Some(x) = opt { x };")
        assert isinstance(expr, ast.IfLet)
        assert isinstance(expr.pattern, ast.PatTupleStruct)

    def test_while_let(self):
        expr = first_expr("while let Some(x) = it.next() { }")
        assert isinstance(expr, ast.WhileLet)

    def test_match_arms(self):
        expr = first_expr("""match v {
            0 => "zero",
            1 | 2 => "small",
            n if n > 100 => "big",
            _ => "other",
        };""")
        assert isinstance(expr, ast.Match)
        assert len(expr.arms) == 4
        assert expr.arms[2].guard is not None

    def test_match_range_pattern(self):
        expr = first_expr("match v { 0..=9 => 1, _ => 0 };")
        assert isinstance(expr.arms[0].pattern, ast.PatRange)

    def test_for_loop(self):
        expr = first_expr("for i in 0..10 { }")
        assert isinstance(expr, ast.For)

    def test_loop_break_continue(self):
        body = parse_fn_body("loop { if done { break; } continue; }")
        expr = body.statements[0].expr if body.statements else body.tail
        assert isinstance(expr, ast.Loop)

    def test_return_with_value(self):
        expr = first_expr("return 42;")
        assert isinstance(expr, ast.Return)
        assert expr.value.value == 42


class TestPatterns:
    def test_destructuring_let(self):
        body = parse_fn_body("let (a, b) = pair;")
        assert isinstance(body.statements[0].pattern, ast.PatTuple)

    def test_mut_binding(self):
        body = parse_fn_body("let mut x = 1;")
        assert body.statements[0].pattern.mutability.is_mut

    def test_ref_pattern(self):
        body = parse_fn_body("let &x = r;")
        assert isinstance(body.statements[0].pattern, ast.PatRef)

    def test_wildcard(self):
        body = parse_fn_body("let _ = f();")
        assert isinstance(body.statements[0].pattern, ast.PatWild)

    def test_struct_pattern(self):
        expr = first_expr("match p { Point { x, y } => x + y };")
        assert isinstance(expr.arms[0].pattern, ast.PatStruct)


class TestNestingLimit:
    """Nesting beyond ``MAX_NESTING`` is a located diagnostic, never a
    ``RecursionError`` from the parser or any stage after it."""

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("{", "}")],
                             ids=["parens", "blocks"])
    def test_depth_400_is_a_located_compile_error(self, opener, closer):
        from repro import api
        text = ("fn main() {\n    let x = "
                + opener * 400 + "1" + closer * 400 + ";\n}\n")
        with pytest.raises(CompileError) as info:
            api.analyze(text, name="deep.rs")
        assert "nested too deeply" in info.value.message
        line, col = info.value.source.line_col(info.value.span.lo)
        assert line == 2 and col > len("    let x = ")
        assert "deep.rs:2:" in str(info.value)

    def test_depth_at_the_limit_runs_the_whole_pipeline(self):
        from repro import api
        from repro.lang.parser import MAX_NESTING
        # The body block and the initializer take two of the levels.
        depth = MAX_NESTING - 2
        parens = "(" * depth + "1" + ")" * depth
        api.analyze(f"fn main() {{ let x = {parens}; }}")
        with pytest.raises(CompileError):
            parse(f"fn main() {{ let x = ({parens}); }}")

    # Flat chains are built in a loop, so the parser's recursion never
    # sees their depth; each link still counts one level (MAX_NESTING).
    _CHAINS = {
        "binary": lambda n: " + ".join(["1"] * n),
        "index": lambda n: "v" + "[0]" * (n - 1),
        "method": lambda n: "1" + ".clone()" * (n - 1),
    }

    @staticmethod
    def _chain_program(expr):
        return ("fn main() {\n    let v = vec![vec![1]];\n    let x = "
                + expr + ";\n}\n")

    @pytest.mark.parametrize("shape, length", [
        ("binary", 600), ("index", 2001), ("method", 1501)])
    def test_flat_chain_is_a_located_compile_error(self, shape, length):
        from repro import api
        text = self._chain_program(self._CHAINS[shape](length))
        with pytest.raises(CompileError) as info:
            api.analyze(text, name="chain.rs")
        assert "nested too deeply" in info.value.message
        line, col = info.value.source.line_col(info.value.span.lo)
        assert line == 3 and col > len("    let x = ")
        assert "chain.rs:3:" in str(info.value)

    @pytest.mark.parametrize("shape", ["binary", "index", "method"])
    def test_chain_below_the_limit_runs_the_whole_pipeline(self, shape):
        from repro import api
        from repro.lang.parser import MAX_NESTING
        api.analyze(self._chain_program(self._CHAINS[shape](MAX_NESTING - 5)))

    def test_chain_counts_above_its_deepest_operand(self):
        # Each half alone is well inside the limit; stacked, the second
        # chain sits on top of the first one's tree.
        half = " + ".join(["1"] * 60)
        parse(f"fn main() {{ let x = {half}; }}")
        with pytest.raises(CompileError):
            parse(f"fn main() {{ let x = ({half}) + {half}; }}")


def _crate_digest(seeds):
    digest = hashlib.sha256()
    for seed in seeds:
        for corpus_file in generate_corpus(seed, 2).files:
            crate = parse_source(corpus_file.text, corpus_file.name)
            digest.update(repr(crate).encode())
            digest.update(b"\n")
    return digest.hexdigest()


class TestCorpusConformance:
    def test_parsed_crates_match_the_pinned_digest(self):
        # Every parsed crate of the generated corpus, seeds 0-2 at scale
        # 2, must stay identical: a parser speed-up may not move one
        # node or span.  Re-pinned, with the reason in CHANGES.md, only
        # by a change meant to alter the AST or a corpus template.
        assert _crate_digest((0, 1, 2)) == (
            "573b3c6e30cf9bc000f4e590fffb9a8a9909999f975922c6cb0f6a4b96395265")
