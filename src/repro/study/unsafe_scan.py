"""Source-level unsafe-usage scanner (the §4 study pipeline, over MiniRust).

Given parsed crates, counts and classifies:

* unsafe blocks / unsafe functions / unsafe traits / unsafe impls;
* what each unsafe region *does* (raw-pointer ops, unsafe calls, static
  mutation — the §4.1 operation classification);
* interior-unsafe functions (safe signature, unsafe inside) and how they
  encapsulate their unsafe code (the §4.3 census).  That part is the
  summary-based ``interior-unsafe-audit`` detector's rows, the same ones
  ``minirust audit-unsafe`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.config import AnalysisConfig
from repro.api import UnsafeAuditReport
from repro.detectors.registry import run_detectors
from repro.lang import ast_nodes as ast
from repro.mir.nodes import (
    Body, Program, RvalueKind, StatementKind, TerminatorKind,
)
from repro.study.taxonomy import UnsafeOpKind


@dataclass
class UnsafeCounts:
    blocks: int = 0
    functions: int = 0
    traits: int = 0
    impls: int = 0

    @property
    def total(self) -> int:
        return self.blocks + self.functions + self.traits + self.impls

    def add(self, other: "UnsafeCounts") -> "UnsafeCounts":
        return UnsafeCounts(self.blocks + other.blocks,
                            self.functions + other.functions,
                            self.traits + other.traits,
                            self.impls + other.impls)


@dataclass
class ScanResult:
    counts: UnsafeCounts = field(default_factory=UnsafeCounts)
    #: §4.1 operation classification of unsafe statements.
    operations: Dict[UnsafeOpKind, int] = field(default_factory=dict)
    #: §4.3 census: one audit row per interior-unsafe function.
    audit: UnsafeAuditReport = field(default_factory=UnsafeAuditReport)

    def operation_shares(self) -> Dict[str, float]:
        total = sum(self.operations.values()) or 1
        return {kind.value: count / total
                for kind, count in self.operations.items()}


def count_unsafe_in_crate(crate: ast.Crate) -> UnsafeCounts:
    """Count syntactic unsafe markers in one parsed crate."""
    counts = UnsafeCounts()
    for item in crate.walk_items():
        if isinstance(item, ast.FnDef):
            if item.is_unsafe:
                counts.functions += 1
            counts.blocks += _count_unsafe_blocks(item.body)
        elif isinstance(item, ast.TraitDef):
            if item.is_unsafe:
                counts.traits += 1
            for fn in item.items:
                if fn.is_unsafe:
                    counts.functions += 1
                counts.blocks += _count_unsafe_blocks(fn.body)
        elif isinstance(item, ast.ImplBlock):
            if item.is_unsafe:
                counts.impls += 1
            for fn in item.items:
                if fn.is_unsafe:
                    counts.functions += 1
                counts.blocks += _count_unsafe_blocks(fn.body)
    return counts


def _count_unsafe_blocks(node) -> int:
    """Recursively count ``unsafe { }`` blocks under an AST node."""
    if node is None:
        return 0
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Block) and current.is_unsafe:
            count += 1
        if isinstance(current, ast.Node):
            for name in ast.field_names(type(current)):
                value = getattr(current, name)
                if isinstance(value, ast.Node):
                    stack.append(value)
                elif isinstance(value, list):
                    for element in value:
                        if isinstance(element, ast.Node):
                            stack.append(element)
                        elif isinstance(element, tuple):
                            stack.extend(e for e in element
                                         if isinstance(e, ast.Node))
    return count


# ---------------------------------------------------------------------------
# MIR-level classification
# ---------------------------------------------------------------------------

def classify_unsafe_operations(body: Body) -> Dict[UnsafeOpKind, int]:
    """§4.1: what do the unsafe statements of this body do?"""
    out: Dict[UnsafeOpKind, int] = {}

    def bump(kind: UnsafeOpKind) -> None:
        out[kind] = out.get(kind, 0) + 1

    for _bb, _i, stmt in body.iter_statements():
        if not stmt.in_unsafe:
            continue
        if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None:
            rv = stmt.rvalue
            memory_like = (
                stmt.place.has_deref
                or rv.kind is RvalueKind.CAST
                or rv.kind is RvalueKind.ADDRESS_OF
                or any(op.place is not None and op.place.has_deref
                       for op in rv.operands))
            static_access = (
                (body.locals[stmt.place.local].name or "").startswith("static:")
                or any(op.place is not None and
                       (body.locals[op.place.local].name or "").startswith("static:")
                       for op in rv.operands if op.place is not None))
            if memory_like or static_access:
                bump(UnsafeOpKind.MEMORY_OPERATION)
            # Plain temp-to-temp copies inside an unsafe region are
            # compiler plumbing, not "unsafe operations" — skipped.
    for _bb, term in body.iter_terminators():
        if term.kind is TerminatorKind.CALL and term.in_unsafe \
                and term.func is not None:
            if term.func.is_unsafe or \
                    term.func.kind.value in ("user", "unknown"):
                bump(UnsafeOpKind.UNSAFE_CALL)
            elif term.func.builtin_op is not None and \
                    term.func.builtin_op.value.startswith(("ptr::", "alloc",
                                                           "dealloc",
                                                           "mem::")):
                bump(UnsafeOpKind.MEMORY_OPERATION)
            else:
                bump(UnsafeOpKind.OTHER)
    return out


#: The §4.3 census is the ``interior-unsafe-audit`` detector's rows.
_CENSUS = AnalysisConfig(detectors=("interior-unsafe-audit",))


def scan_program(program: Program,
                 crate: Optional[ast.Crate] = None) -> ScanResult:
    """Full §4 scan of a lowered program (plus its AST, when available)."""
    result = ScanResult()
    if crate is not None:
        result.counts = count_unsafe_in_crate(crate)
    for body in program.bodies():
        for kind, count in classify_unsafe_operations(body).items():
            result.operations[kind] = result.operations.get(kind, 0) + count
    report = run_detectors(program, source=program.source, config=_CENSUS)
    result.audit = UnsafeAuditReport.of(
        [(program.source.name, report.findings)])
    return result


def scan_sources(sources: Iterable[Tuple[str, str]]) -> ScanResult:
    """Scan many (name, source) crates, merging the results."""
    from repro.driver import compile_source
    merged = ScanResult()
    rows = []
    for name, text in sources:
        compiled = compile_source(text, name=name)
        partial = scan_program(compiled.program, compiled.crate)
        merged.counts = merged.counts.add(partial.counts)
        for kind, count in partial.operations.items():
            merged.operations[kind] = merged.operations.get(kind, 0) + count
        rows.extend(partial.audit.rows)
    merged.audit = UnsafeAuditReport(rows=rows)
    return merged
