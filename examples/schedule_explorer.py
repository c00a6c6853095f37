"""Dynamic concurrency checking: schedules, races, poisoning, fixes.

The paper (§2.4) notes that dynamic detectors "rely on user-provided
inputs that can trigger memory bugs" — for concurrency bugs the
*schedule* is part of the input.  This example drives the interpreter's
deterministic scheduler across seeds to manifest an atomicity violation
(the Figure 9 shape, de-atomicised), shows the race monitor and lock
poisoning, then applies the paper's fix and re-explores.

Run with::

    python examples/schedule_explorer.py
"""

from repro import api, compile_source
from repro.mir.interp import ScheduleConfig, explore_schedules, run_program
from repro.tools.fixes import suggest_fixes

RACY = """
struct Flag { taken: AtomicBool }
unsafe impl Sync for Flag {}
impl Flag {
    // Figure 9's check-then-act: both threads can pass the load before
    // either stores.
    fn try_take(&self) -> i32 {
        if self.taken.load() { return 0; }
        self.taken.store(true);
        return 1;
    }
}
fn main() {
    let flag = Arc::new(Flag { taken: AtomicBool::new(false) });
    let f2 = Arc::clone(&flag);
    let h = thread::spawn(move || f2.try_take());
    let mine = flag.try_take();
    let theirs = h.join().unwrap();
    println!("{}", mine + theirs);
}
"""

FIXED = RACY.replace(
    """        if self.taken.load() { return 0; }
        self.taken.store(true);
        return 1;""",
    """        if !self.taken.compare_and_swap(false, true) {
            return 1;
        }
        return 0;""")


def explore(title: str, source: str) -> None:
    print(f"\n==== {title} " + "=" * max(0, 58 - len(title)))
    program = compile_source(source).program
    outcomes = {}
    for seed in range(10):
        result = run_program(program, schedule=ScheduleConfig(
            seed=seed, quantum=1, max_steps=200_000))
        winners = result.stdout[0] if result.stdout else "?"
        outcomes.setdefault(winners, []).append(seed)
    print("sum of take_flag() winners per schedule seed "
          "(1 = exactly one thread won, 2 = both 'won'):")
    for value, seeds in sorted(outcomes.items()):
        print(f"  result {value}: seeds {seeds}")
    if "2" in outcomes:
        print("  -> the check-then-act window is real: some schedules let "
              "both threads claim the flag")
    else:
        print("  -> every interleaving yields exactly one winner")


def main() -> None:
    print("static findings on the racy version:")
    session = api.AnalysisSession()
    report = session.analyze_compiled(session.compile(RACY))
    for line in report.render().splitlines():
        print("  " + line)
    print("suggested fixes (from the paper's strategy catalogue):")
    for line in suggest_fixes(report.findings):
        print("  " + line)

    explore("racy try_take (Figure 9 shape)", RACY)
    explore("fixed with compare_and_swap", FIXED)

    print("\nlock poisoning across threads (§6.2 'poisoned mutex'):")
    poison = """
    fn main() {
        let data = Arc::new(Mutex::new(0));
        let d2 = Arc::clone(&data);
        let h = thread::spawn(move || {
            let g = d2.lock().unwrap();
            panic!("worker died holding the lock");
        });
        h.join();
        match data.lock() {
            Ok(g) => println!("lock ok"),
            Err(e) => println!("lock poisoned -> handled"),
        };
    }
    """
    result = run_program(compile_source(poison).program)
    print(f"  outcome={result.outcome}, stdout={result.stdout}")


if __name__ == "__main__":
    main()
