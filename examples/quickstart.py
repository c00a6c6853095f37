"""Quickstart: compile MiniRust, inspect MIR, detect bugs, execute.

Run with::

    python examples/quickstart.py
"""

from repro import api
from repro.mir.interp import run_program
from repro.mir.pretty import pretty_body

# The paper's canonical use-after-free shape: a raw pointer obtained from
# a Vec outlives the Vec.
SOURCE = """
fn main() {
    let v = vec![1, 2, 3];
    let p = v.as_ptr();
    drop(v);
    unsafe {
        let x = *p;
        print(x);
    }
}
"""


def main() -> None:
    session = api.AnalysisSession()
    print("== 1. compile to MIR " + "=" * 45)
    compiled = session.compile(SOURCE, name="quickstart.rs")
    print(pretty_body(compiled.program.functions["main"]))

    print("\n== 2. static detectors (the paper's §7 tooling) " + "=" * 18)
    report = session.analyze_compiled(compiled)
    print(report.render())

    print("\n== 3. dynamic check (Miri-style interpretation) " + "=" * 18)
    result = run_program(compiled.program)
    print(f"outcome: {result.outcome}")
    if result.error is not None:
        print(f"error:   {result.error}")

    print("\n== 4. the fix: read before dropping " + "=" * 31)
    fixed = SOURCE.replace("""    let p = v.as_ptr();
    drop(v);
    unsafe {
        let x = *p;
        print(x);
    }""", """    let p = v.as_ptr();
    unsafe {
        let x = *p;
        print(x);
    }
    drop(v);""")
    compiled_fixed = session.compile(fixed, name="quickstart_fixed.rs")
    print("static: ", session.analyze_compiled(compiled_fixed).render())
    result = run_program(compiled_fixed.program)
    print(f"dynamic: outcome={result.outcome}, stdout={result.stdout}")


if __name__ == "__main__":
    main()
