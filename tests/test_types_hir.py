"""Semantic type system and HIR item-table tests."""

from conftest import compile_

from repro.hir.builtins import BuiltinOp, resolve_builtin_call, resolve_method
from repro.hir.table import build_item_table
from repro.lang.parser import parse_source
from repro.lang.types import (
    BOOL, I32, UNKNOWN, Ty, TyKind,
)


class TestTy:
    def test_copy_semantics(self):
        assert I32.is_copy
        assert BOOL.is_copy
        assert Ty.ref(I32).is_copy                    # &T is Copy
        assert not Ty.ref(I32, mutable=True).is_copy  # &mut T is not
        assert Ty.raw_ptr(I32).is_copy
        assert not Ty.builtin("Vec", (I32,)).is_copy
        assert not Ty.string().is_copy
        assert Ty.tuple_((I32, BOOL)).is_copy
        assert not Ty.tuple_((I32, Ty.string())).is_copy

    def test_needs_drop(self):
        assert Ty.builtin("Vec", (I32,)).needs_drop
        assert Ty.builtin("Box", (I32,)).needs_drop
        assert Ty.builtin("MutexGuard", (I32,)).needs_drop
        assert not I32.needs_drop
        assert not Ty.raw_ptr(I32).needs_drop

    def test_guard_detection(self):
        assert Ty.builtin("MutexGuard", (I32,)).is_guard
        assert Ty.builtin("RwLockReadGuard", (I32,)).is_guard
        assert not Ty.builtin("Vec", (I32,)).is_guard

    def test_lock_detection(self):
        assert Ty.builtin("Mutex", (I32,)).is_lock
        assert Ty.builtin("RwLock", (I32,)).is_lock
        assert not Ty.builtin("RefCell", (I32,)).is_lock

    def test_peel_refs(self):
        ty = Ty.ref(Ty.ref(I32))
        assert ty.peel_refs() == I32

    def test_peel_wrappers(self):
        ty = Ty.builtin("Arc", (Ty.builtin("Mutex", (I32,)),))
        assert ty.peel_wrappers().name == "Mutex"

    def test_interior_mutability(self):
        assert Ty.builtin("RefCell", (I32,)).is_interior_mutable
        assert Ty.builtin("AtomicBool").is_interior_mutable
        assert not Ty.builtin("Vec", (I32,)).is_interior_mutable

    def test_str_rendering(self):
        assert str(Ty.ref(I32, True)) == "&mut i32"
        assert str(Ty.raw_ptr(I32)) == "*const i32"
        assert str(Ty.builtin("Vec", (I32,))) == "Vec<i32>"


class TestBuiltinResolution:
    def test_path_call_suffix_match(self):
        ref, ty = resolve_builtin_call("std::sync::Mutex::new", [], [I32])
        assert ref.builtin_op is BuiltinOp.MUTEX_NEW
        assert ty.name == "Mutex"

    def test_unknown_path(self):
        assert resolve_builtin_call("made::up::fn", [], []) is None

    def test_lock_method(self):
        mutex = Ty.builtin("Mutex", (I32,))
        ref, ty = resolve_method(mutex, "lock", [])
        assert ref.builtin_op is BuiltinOp.MUTEX_LOCK
        assert ty.name == "Result"
        assert ty.arg(0).name == "MutexGuard"

    def test_rwlock_read_write(self):
        lock = Ty.builtin("RwLock", (I32,))
        read_ref, read_ty = resolve_method(lock, "read", [])
        write_ref, write_ty = resolve_method(lock, "write", [])
        assert read_ty.arg(0).name == "RwLockReadGuard"
        assert write_ty.arg(0).name == "RwLockWriteGuard"

    def test_get_unchecked_is_unsafe(self):
        vec = Ty.builtin("Vec", (I32,))
        ref, _ty = resolve_method(vec, "get_unchecked", [I32])
        assert ref.is_unsafe

    def test_vec_get_returns_option_ref(self):
        vec = Ty.builtin("Vec", (I32,))
        _ref, ty = resolve_method(vec, "get", [I32])
        assert ty.name == "Option"
        assert ty.arg(0).is_ref

    def test_unknown_method_none(self):
        assert resolve_method(I32, "frobnicate", []) is None


class TestItemTable:
    def test_struct_fields_lowered(self):
        table = build_item_table(parse_source(
            "struct P { x: i32, v: Vec<u8> }"))
        info = table.structs["P"]
        assert info.field_ty("x").kind is TyKind.INT
        assert info.field_ty("v").name == "Vec"
        assert info.field_index("v") == 1

    def test_method_keys(self):
        table = build_item_table(parse_source("""
            struct S;
            impl S {
                fn a(&self) {}
                fn b(&mut self) {}
                fn c(self) {}
                fn d() {}
            }"""))
        assert table.lookup_method("S", "a").self_mode == "ref"
        assert table.lookup_method("S", "b").self_mode == "ref_mut"
        assert table.lookup_method("S", "c").self_mode == "value"
        assert table.lookup_method("S", "d").self_mode is None

    def test_unsafe_sync_recorded(self):
        table = build_item_table(parse_source("""
            struct S;
            unsafe impl Sync for S {}"""))
        assert table.structs["S"].unsafe_sync
        assert ("Sync", "S") in table.unsafe_impls

    def test_enum_variants(self):
        table = build_item_table(parse_source(
            "enum E { A, B(i32, bool), C }"))
        info = table.enums["E"]
        assert info.variant_index("B") == 1
        assert len(info.variant_payload("B")) == 2

    def test_statics(self):
        table = build_item_table(parse_source(
            "static mut COUNTER: i32 = 0;"))
        assert table.statics["COUNTER"].mutable

    def test_self_type_resolution(self):
        table = build_item_table(parse_source("""
            struct S { v: i32 }
            impl S {
                fn make() -> Self { S { v: 0 } }
            }"""))
        fn = table.lookup_method("S", "make")
        assert fn.ret_ty.name == "S"

    def test_generics_become_params(self):
        table = build_item_table(parse_source("""
            struct Holder<T> { value: T }"""))
        assert table.structs["Holder"].field_ty("value").kind is \
            TyKind.TYPE_PARAM


class TestBorrowck:
    def test_use_after_move_detected(self):
        from repro.analysis.borrowck import check_program
        compiled = compile_("""
            fn main() {
                let v: Vec<i32> = Vec::new();
                let w = v;
                let n = v.len();
            }""")
        errors = check_program(compiled.program)
        assert any(e.kind == "use_after_move" for e in errors)

    def test_clean_program_passes(self):
        from repro.analysis.borrowck import check_program
        compiled = compile_("""
            fn main() {
                let v: Vec<i32> = Vec::new();
                let n = v.len();
                let w = v;
            }""")
        errors = check_program(compiled.program)
        assert not [e for e in errors if e.kind == "use_after_move"]

    def test_conflicting_mutable_borrows(self):
        from repro.analysis.borrowck import check_program
        compiled = compile_("""
            fn main() {
                let mut x = 1;
                let r1 = &mut x;
                let r2 = &mut x;
                print(*r1 + *r2);
            }""")
        errors = check_program(compiled.program)
        assert any(e.kind == "conflicting_borrow" for e in errors)

    def test_two_shared_borrows_fine(self):
        from repro.analysis.borrowck import check_program
        compiled = compile_("""
            fn main() {
                let x = 1;
                let r1 = &x;
                let r2 = &x;
                print(*r1 + *r2);
            }""")
        errors = check_program(compiled.program)
        assert not [e for e in errors if e.kind == "conflicting_borrow"]

    def test_generated_corpus_is_borrowck_clean(self):
        # Safe generated code must pass the checker; both rule families
        # skip code inside `unsafe`.
        from repro.analysis.borrowck import check_program
        from repro.corpus import generate_corpus
        errors = check_program(
            compile_(generate_corpus(0, 1).combined_source()).program)
        assert not errors, [e.render() for e in errors[:5]]
