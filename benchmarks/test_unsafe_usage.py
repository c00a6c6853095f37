"""§4 unsafe-usage benchmarks: the published statistics plus the same
pipeline run live over the synthetic corpus."""

from conftest import emit

from repro.corpus import generate_corpus
from repro.study import tables
from repro.study.taxonomy import UnsafeOpKind
from repro.study.unsafe_scan import scan_sources


def test_section4_published_statistics(benchmark):
    stats = benchmark(tables.section4_unsafe_usage)
    emit("§4 unsafe usages (paper: 4990 total = 3665 blocks + 1302 fns + "
         "23 traits; std: 1581/861/12)",
         f"apps: {stats['apps_total']} = {stats['apps_blocks']} blocks + "
         f"{stats['apps_fns']} fns + {stats['apps_traits']} traits; "
         f"std: {stats['std_blocks']}/{stats['std_fns']}/"
         f"{stats['std_traits']}")
    emit("§4.1 operations (paper: 66% memory / 29% unsafe calls)",
         str(stats["operations_pct"]))
    emit("§4.1 purposes (paper: 42% reuse / 22% perf / 14% sharing)",
         str(stats["purposes_pct"]))
    assert stats["operations_pct"]["unsafe memory operation"] == 66
    assert stats["purposes_pct"]["reuse existing code"] == 42


def test_section4_removals(benchmark):
    removals = benchmark(tables.section4_removals)
    emit("§4.2 unsafe removals (paper: 130 cases, 61%/24%/10%/3%/2%; "
         "43 to safe, 48+29+10 to interior unsafe)", str(removals))
    assert removals["reasons_pct"]["improve memory safety"] == 61
    assert removals["to_safe"] == 43


def test_section4_interior_audit(benchmark):
    audit = benchmark(tables.section4_interior_unsafe)
    emit("§4.3 interior-unsafe audit (paper: 58% rely on inputs/"
         "environment, 19 improperly encapsulated)", str(audit))
    assert audit["checks_pct"]["correct inputs / environment"] == 58
    assert audit["improper"] == 19


def _scan_corpus():
    corpus = generate_corpus(seed=0, scale=1)
    return scan_sources((f.name, f.text) for f in corpus.files), corpus


def test_corpus_unsafe_scan(benchmark):
    """The §4 pipeline end-to-end on generated code: unsafe blocks are the
    dominant marker and memory operations dominate unsafe statements, the
    same shape as the paper's Table-less §4 numbers."""
    result, corpus = benchmark(_scan_corpus)
    shares = result.operation_shares()
    emit("§4 live scan over the synthetic corpus",
         f"{corpus.total_loc} LOC, counts: {result.counts}, "
         f"operation shares: { {k: round(v, 2) for k, v in shares.items()} }, "
         f"interior-unsafe fns: {result.audit.total}, "
         f"unchecked: {len(result.audit.unchecked)}")
    assert result.counts.blocks > result.counts.functions
    mem = shares.get(UnsafeOpKind.MEMORY_OPERATION.value, 0.0)
    calls = shares.get(UnsafeOpKind.UNSAFE_CALL.value, 0.0)
    other = shares.get(UnsafeOpKind.OTHER.value, 0.0)
    assert mem > other            # paper: memory ops dominate (66%)
    assert mem + calls > 0.8      # paper: 66% + 29% = 95%
