"""Memory-safety scan of OS-style code (the paper's §5, Redox-flavoured).

Redox contributed 20 of the 70 studied memory bugs, including Figure 6's
invalid free in relibc's ``_fdopen``.  This example builds a miniature
libc-style file layer containing three of the study's §5.1 patterns
(invalid free, uninitialised read, ptr::read double free), cross-checks
every static finding dynamically with the Miri-style interpreter, and
shows the §5.2 fixes.

Run with::

    python examples/os_memory_scan.py
"""

from repro import api, compile_source
from repro.mir.interp import run_program

FILE_LAYER = """
struct FileHandle { buf: Vec<u8>, fd: i32 }

// Figure 6: `*f = ...` drops the uninitialised old value.
unsafe fn fdopen(fd: i32) -> *mut FileHandle {
    let f = alloc(128) as *mut FileHandle;
    *f = FileHandle { buf: vec![0u8; 128], fd: fd };
    f
}

// §5.1 "reading uninitialized memory".
unsafe fn stat_inode() -> i32 {
    let meta = alloc(32) as *mut i32;
    let size = *meta;
    size
}

// §5.1 double free: ptr::read duplicates ownership.
fn clone_handle(h: FileHandle) {
    let original = h;
    unsafe {
        let duplicate = ptr::read(&original);
        drop(duplicate);
    }
}
"""

FILE_LAYER_FIXED = """
struct FileHandle { buf: Vec<u8>, fd: i32 }

// Fixed as in the paper: ptr::write does not drop the old value.
unsafe fn fdopen(fd: i32) -> *mut FileHandle {
    let f = alloc(128) as *mut FileHandle;
    ptr::write(f, FileHandle { buf: vec![0u8; 128], fd: fd });
    f
}

// Initialise before reading.
unsafe fn stat_inode() -> i32 {
    let meta = alloc(32) as *mut i32;
    ptr::write(meta, 0);
    let size = *meta;
    size
}

// Keep single ownership: forget the original after duplicating.
fn clone_handle(h: FileHandle) {
    let original = h;
    unsafe {
        let duplicate = ptr::read(&original);
        mem::forget(original);
        drop(duplicate);
    }
}
"""

DRIVERS = {
    "fdopen": 'fn main() { unsafe { let f = fdopen(3); } }',
    "stat_inode": 'fn main() { unsafe { let s = stat_inode(); print(s); } }',
    "clone_handle": """
fn main() {
    let h = FileHandle { buf: vec![1u8; 4], fd: 1 };
    clone_handle(h);
}""",
}


def scan(title: str, library: str) -> None:
    print(f"\n==== {title} " + "=" * max(0, 60 - len(title)))
    session = api.AnalysisSession()
    compiled = session.compile(library, name="file_layer.rs")
    report = session.analyze_compiled(compiled)
    print("static findings:")
    print("  " + report.render().replace("\n", "\n  "))

    print("dynamic confirmation (one interpreter run per entry point):")
    for fn_name, driver in DRIVERS.items():
        program = compile_source(library + driver).program
        result = run_program(program)
        detail = f" ({result.error})" if result.error else ""
        print(f"  {fn_name:14} -> {result.outcome}{detail}")


def main() -> None:
    scan("buggy file layer (Figure 6 + two §5.1 siblings)", FILE_LAYER)
    scan("fixed file layer (§5.2 strategies applied)", FILE_LAYER_FIXED)


if __name__ == "__main__":
    main()
