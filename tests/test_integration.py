"""End-to-end integration tests: realistic multi-module programs through
the full pipeline (parse → MIR → detectors → interpretation)."""

from conftest import check, compile_, interp

from repro.mir.pretty import body_stats, pretty_body, pretty_program
from repro.study.unsafe_scan import scan_program


KV_STORE = """
// A TiKV-flavoured in-memory store: sharded maps behind RwLocks, a write
// queue, worker threads, and an interior-unsafe fast path done right.

struct Shard { data: HashMap<String, i32>, hits: i32 }

struct Store { shard: Arc<RwLock<Shard>> }

impl Store {
    fn new() -> Store {
        Store {
            shard: Arc::new(RwLock::new(Shard {
                data: HashMap::new(),
                hits: 0,
            })),
        }
    }

    fn put(&self, key: String, value: i32) {
        let mut guard = self.shard.write().unwrap();
        guard.data.insert(key, value);
    }

    fn get(&self, key: String) -> Option<i32> {
        let mut guard = self.shard.write().unwrap();
        guard.hits += 1;
        match guard.data.get(key) {
            Some(v) => Some(*v),
            None => None,
        }
    }

    fn hits(&self) -> i32 {
        let guard = self.shard.read().unwrap();
        guard.hits
    }
}

fn main() {
    let store = Store::new();
    store.put(String::from("a"), 1);
    store.put(String::from("b"), 2);
    let a = store.get(String::from("a")).unwrap_or(0);
    let missing = store.get(String::from("zzz")).unwrap_or(-1);
    println!("{} {} {}", a, missing, store.hits());
}
"""


class TestKvStore:
    def test_runs_correctly(self):
        result = interp(KV_STORE)
        assert result.ok, result.error
        assert result.stdout == ["1 -1 2"]

    def test_no_findings(self):
        report = check(KV_STORE)
        assert not report.errors, report.render()

    def test_scan_sees_no_unsafe(self):
        compiled = compile_(KV_STORE)
        result = scan_program(compiled.program, compiled.crate)
        assert result.counts.total == 0


PIPELINE = """
// A Servo-flavoured pipeline: producer thread, worker pool via channels,
// and a result aggregation mutex.

fn worker(rx: &Receiver<i32>, out: &Arc<Mutex<i32>>) {
    while let Ok(job) = rx.recv() {
        let mut total = out.lock().unwrap();
        *total += job * job;
    }
}

fn main() {
    let (tx, rx) = channel();
    let out = Arc::new(Mutex::new(0));
    let out2 = Arc::clone(&out);
    let h = thread::spawn(move || {
        while let Ok(job) = rx.recv() {
            let mut total = out2.lock().unwrap();
            *total += job * job;
        }
    });
    for i in 0..5 {
        tx.send(i);
    }
    drop(tx);
    h.join();
    println!("{}", *out.lock().unwrap());
}
"""


class TestPipeline:
    def test_runs_to_completion(self):
        result = interp(PIPELINE)
        assert result.ok, result.error
        assert result.stdout == ["30"]   # 0+1+4+9+16

    def test_clean_under_detectors(self):
        report = check(PIPELINE)
        assert not report.errors, report.render()

    def test_deterministic_across_seeds(self):
        outputs = {interp(PIPELINE, seed=s, quantum=3).stdout[0]
                   for s in range(5)}
        assert outputs == {"30"}


UNSAFE_ARENA = """
// A Redox-flavoured arena with a sound interior-unsafe API: bounds are
// checked before every unchecked access (the §4.3 good practice).

struct Arena { storage: Vec<i32>, len: usize }

impl Arena {
    fn with_capacity(n: usize) -> Arena {
        Arena { storage: vec![0; n], len: n }
    }
    fn load(&self, index: usize) -> i32 {
        if index >= self.len {
            return 0;
        }
        unsafe { *self.storage.get_unchecked(index) }
    }
    fn store(&mut self, index: usize, value: i32) {
        if index >= self.len {
            return;
        }
        self.storage[index] = value;
    }
}

fn main() {
    let mut arena = Arena::with_capacity(8);
    arena.store(3, 77);
    arena.store(100, 1);
    println!("{} {} {}", arena.load(3), arena.load(100), arena.load(7));
}
"""


class TestArena:
    def test_runs(self):
        result = interp(UNSAFE_ARENA)
        assert result.ok, result.error
        assert result.stdout == ["77 0 0"]

    def test_interior_unsafe_judged_well_encapsulated(self):
        compiled = compile_(UNSAFE_ARENA)
        scan = scan_program(compiled.program, compiled.crate)
        classes = {row["fn"]: row["classification"]
                   for row in scan.audit.rows}
        assert classes["Arena::load"] == "checked"
        assert scan.audit.unchecked == []

    def test_no_buffer_overflow_findings(self):
        report = check(UNSAFE_ARENA)
        assert not [f for f in report.findings
                    if f.detector == "buffer-overflow"
                    and f.metadata.get("definite")]


class TestPrettyPrinter:
    def test_pretty_program_covers_all_functions(self):
        compiled = compile_(KV_STORE)
        text = pretty_program(compiled.program)
        for key in compiled.program.functions:
            assert key in text

    def test_body_stats(self):
        compiled = compile_(KV_STORE)
        stats = body_stats(compiled.program.functions["main"])
        assert stats["blocks"] > 0
        assert stats["statements"] > 0
        assert stats["drops"] > 0
        assert stats["unsafe_statements"] == 0

    def test_unsafe_marker_in_dump(self):
        compiled = compile_("""
            fn main() {
                let x = 1;
                let p = &x as *const i32;
                unsafe { let y = *p; }
            }""")
        assert "// unsafe" in pretty_body(compiled.program.functions["main"])
