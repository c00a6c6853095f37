"""Memory-safety detectors beyond use-after-free.

These realise the §7.1 suggestion that "it is feasible to build static
checkers to detect invalid-free, use-after-free, double-free memory bugs
by analyzing object lifetime and ownership relationships":

* :class:`DoubleFreeDetector` — ownership duplicated by ``ptr::read``
  (the paper's §5.1 ``t2 = ptr::read::<T>(&t1)`` pattern): two owners of
  one value both reach a drop.
* :class:`InvalidFreeDetector` — the Figure 6 pattern: assigning a
  droppable value through a raw pointer into *uninitialised* memory runs
  drop glue on garbage (``*f = FILE {...}`` instead of ``ptr::write``).
* :class:`UninitReadDetector` — reading from an allocation that was never
  initialised (``alloc`` / ``MaybeUninit`` / ``mem::uninitialized``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.scan import cfg_of
from repro.analysis.summaries import value_chain
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.nodes import (
    Body, RvalueKind, StatementKind, TerminatorKind,
)

# Allocation ops that yield *uninitialised* memory.
_RAW_ALLOC_OPS = {BuiltinOp.ALLOC, BuiltinOp.MEM_UNINITIALIZED,
                  BuiltinOp.MAYBE_UNINIT}
_WRITE_OPS = {BuiltinOp.PTR_WRITE, BuiltinOp.PTR_COPY,
              BuiltinOp.PTR_COPY_NONOVERLAPPING, BuiltinOp.MEM_ZEROED}


class DoubleFreeDetector(Detector):
    name = "double-free"
    description = ("Ownership duplicated via ptr::read so the same value "
                   "is dropped twice")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        # Find `dup = ptr::read(&orig)` call sites.
        for bb, term in body.iter_terminators():
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            if term.func.builtin_op is not BuiltinOp.PTR_READ:
                continue
            if term.destination is None or not term.destination.is_local:
                continue
            if not term.args or term.args[0].place is None:
                continue
            src_base, _proj = resolve_ref_chain(body, term.args[0].place.local)
            src_ty = body.local_ty(src_base)
            dup = term.destination.local
            dup_ty = body.local_ty(dup)
            if not (src_ty.needs_drop or dup_ty.needs_drop):
                continue
            # Both the original and the duplicate reach a drop?
            orig_chain = value_chain(body, src_base)
            dup_chain = value_chain(body, dup)
            orig_dropped = self._chain_dropped(ctx, body, orig_chain)
            dup_dropped = self._chain_dropped(ctx, body, dup_chain)
            forgotten = self._chain_forgotten(body, orig_chain | dup_chain)
            if orig_dropped and dup_dropped and not forgotten:
                src_name = body.locals[src_base].name or f"_{src_base}"
                findings.append(Finding(
                    detector=self.name, kind="double-free",
                    message=(f"`ptr::read` duplicates ownership of "
                             f"`{src_name}`; both copies are dropped, "
                             f"freeing the same resource twice (move the "
                             f"value or `mem::forget` one owner)"),
                    fn_key=body.key, span=term.span,
                    metadata={"source": src_base, "duplicate": dup}))
        return findings

    @staticmethod
    def _chain_dropped(ctx: AnalysisContext, body: Body,
                       chain: Set[int]) -> bool:
        for _bb, _i, stmt in body.iter_statements():
            if stmt.kind is StatementKind.DROP and stmt.place.is_local \
                    and stmt.place.local in chain:
                return True
        for _bb, term in body.iter_terminators():
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            if term.func.builtin_op is BuiltinOp.MEM_DROP:
                for arg in term.args:
                    if arg.place is not None and arg.place.local in chain:
                        return True
            elif term.func.kind in (FuncKind.USER, FuncKind.CLOSURE) \
                    and term.func.builtin_op is not BuiltinOp.THREAD_SPAWN:
                # Moved into a callee whose summary drops that argument:
                # the value dies inside the call tree.
                summary = ctx.summary(term.func.user_fn)
                for j, arg in enumerate(term.args):
                    if arg.place is not None and arg.is_move \
                            and arg.place.local in chain \
                            and summary.drops_arg(j):
                        return True
        return False

    @staticmethod
    def _chain_forgotten(body: Body, chain: Set[int]) -> bool:
        for _bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op is BuiltinOp.MEM_FORGET:
                for arg in term.args:
                    if arg.place is not None and arg.place.local in chain:
                        return True
        return False


class InvalidFreeDetector(Detector):
    name = "invalid-free"
    description = ("Assignment through a raw pointer into uninitialised "
                   "memory drops a garbage value (Figure 6 pattern)")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        uninit_sites = self._uninit_sites(body)
        if not uninit_sites:
            return findings
        written = self._sites_written_before(body, pt, uninit_sites)
        for bb, i, stmt in body.iter_statements():
            if stmt.kind is not StatementKind.ASSIGN or not stmt.place.has_deref:
                continue
            base_ty = body.local_ty(stmt.place.local)
            if not base_ty.is_raw_ptr:
                continue
            value_ty = base_ty.referent
            if not value_ty.needs_drop:
                continue
            for target in pt.targets(stmt.place.local):
                if target[0] == "heap" and target[1] in uninit_sites \
                        and (bb, i) not in written.get(target[1], set()):
                    ptr_name = body.locals[stmt.place.local].name or \
                        f"_{stmt.place.local}"
                    findings.append(Finding(
                        detector=self.name, kind="invalid-free",
                        message=(f"`*{ptr_name} = ...` assigns into "
                                 f"uninitialised memory: the assignment "
                                 f"drops the old (garbage) value; use "
                                 f"`ptr::write` instead"),
                        fn_key=body.key, span=stmt.span,
                        metadata={"pointer": stmt.place.local,
                                  "site": target[1]}))
                    break
        return findings

    def _uninit_sites(self, body: Body) -> Set[str]:
        sites = set()
        for bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op in _RAW_ALLOC_OPS:
                sites.add(f"{body.key}:{bb}")
        return sites

    def _sites_written_before(self, body: Body, pt, sites: Set[str]) -> Dict:
        """For each site: the set of points at which it has definitely been
        written (a ptr::write dominates).  Approximation: once a
        ``ptr::write``/copy targets the site, every point in blocks
        dominated by the write block counts as written."""
        cfg = cfg_of(body)
        written: Dict[str, Set[Tuple[int, int]]] = {s: set() for s in sites}
        write_blocks: Dict[str, List[int]] = {s: [] for s in sites}
        for bb, term in body.iter_terminators():
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            if term.func.builtin_op not in _WRITE_OPS:
                continue
            for arg in term.args[:1]:
                if arg.place is None:
                    continue
                for target in pt.targets(arg.place.local):
                    if target[0] == "heap" and target[1] in sites:
                        write_blocks[target[1]].append(bb)
        for site, blocks in write_blocks.items():
            for wb in blocks:
                for block in body.blocks:
                    if cfg.dominates(wb, block.index) and block.index != wb:
                        for i in range(len(block.statements) + 1):
                            written[site].add((block.index, i))
        return written


class UninitReadDetector(Detector):
    name = "uninit-read"
    description = ("Read of memory that was allocated but never "
                   "initialised")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        uninit_sites: Set[str] = set()
        for bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op in _RAW_ALLOC_OPS:
                uninit_sites.add(f"{body.key}:{bb}")
        if not uninit_sites:
            return findings

        # A site is "ever written" if any write op or deref-assignment
        # targets it anywhere in the body (coarse; flow handled by the
        # invalid-free detector's dominance check).
        written: Set[str] = set()
        for bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op in _WRITE_OPS and term.args:
                arg = term.args[0]
                if arg.place is not None:
                    for target in pt.targets(arg.place.local):
                        if target[0] == "heap":
                            written.add(target[1])
        for _bb, _i, stmt in body.iter_statements():
            if stmt.kind is StatementKind.ASSIGN and stmt.place.has_deref:
                for target in pt.targets(stmt.place.local):
                    if target[0] == "heap":
                        written.add(target[1])

        # Reads: deref in an rvalue, or ptr::read.
        def report(pointer: int, site: str, span) -> None:
            ptr_name = body.locals[pointer].name or f"_{pointer}"
            findings.append(Finding(
                detector=self.name, kind="uninit-read",
                message=(f"`{ptr_name}` reads memory that is never "
                         f"initialised (allocated with an uninitialised "
                         f"constructor and never written)"),
                fn_key=body.key, span=span,
                metadata={"pointer": pointer, "site": site}))

        reported = set()
        for _bb, _i, stmt in body.iter_statements():
            if stmt.kind is not StatementKind.ASSIGN or stmt.rvalue is None:
                continue
            for op in stmt.rvalue.operands:
                if op.place is None or not op.place.has_deref:
                    continue
                if not body.local_ty(op.place.local).is_raw_ptr:
                    continue
                for target in pt.targets(op.place.local):
                    if target[0] == "heap" and target[1] in uninit_sites \
                            and target[1] not in written \
                            and (op.place.local, target[1]) not in reported:
                        reported.add((op.place.local, target[1]))
                        report(op.place.local, target[1], stmt.span)
        for bb, term in body.iter_terminators():
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            if term.func.builtin_op is not BuiltinOp.PTR_READ:
                continue
            for arg in term.args[:1]:
                if arg.place is None:
                    continue
                base, _ = resolve_ref_chain(body, arg.place.local)
                for local in (arg.place.local, base):
                    for target in pt.targets(local):
                        if target[0] == "heap" and target[1] in uninit_sites \
                                and target[1] not in written \
                                and (local, target[1]) not in reported:
                            reported.add((local, target[1]))
                            report(local, target[1], term.span)
        return findings


class NullDerefDetector(Detector):
    """Null-pointer dereference detector.

    Table 2's largest pure-unsafe category (12 of 70 memory bugs) is
    "dereferencing a null pointer in unsafe code", typically a
    ``ptr::null_mut()`` placeholder flowing into a deref without an
    ``is_null`` guard.  Reports:

    * **definite** — the pointer can *only* be null at the deref;
    * **possible** (warning) — null is one of several targets and no
      ``is_null`` check guards the access.
    """

    name = "null-deref"
    description = "Dereference of a (possibly) null raw pointer"
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        guarded = self._null_checked_locals(body)

        def inspect(place, span) -> None:
            if place is None or not place.has_deref:
                return
            base_ty = body.local_ty(place.local)
            if not base_ty.is_raw_ptr:
                return
            base, _ = resolve_ref_chain(body, place.local)
            targets = pt.targets(place.local) | pt.targets(base)
            if not targets or ("null",) not in targets:
                return
            if place.local in guarded or base in guarded:
                return
            only_null = all(t == ("null",) for t in targets)
            name = body.locals[place.local].name or f"_{place.local}"
            findings.append(Finding(
                detector=self.name, kind="null-deref",
                message=(f"pointer `{name}` is "
                         f"{'always' if only_null else 'possibly'} null at "
                         f"this dereference and no `is_null` check guards "
                         f"it"),
                fn_key=body.key, span=span,
                severity=Severity.ERROR if only_null else Severity.WARNING,
                metadata={"definite": only_null}))

        for _bb, _i, stmt in body.iter_statements():
            if stmt.kind is not StatementKind.ASSIGN or stmt.rvalue is None:
                continue
            inspect(stmt.place, stmt.span)
            for op in stmt.rvalue.operands:
                inspect(op.place, stmt.span)
        for _bb, term in body.iter_terminators():
            if term.kind is not TerminatorKind.CALL or term.func is None:
                continue
            if term.func.builtin_op in (BuiltinOp.PTR_READ,
                                        BuiltinOp.PTR_WRITE):
                arg = term.args[0] if term.args else None
                if arg is not None and arg.place is not None:
                    pointer = arg.place.local
                    base, _ = resolve_ref_chain(body, pointer)
                    targets = pt.targets(pointer) | pt.targets(base)
                    # Only the pointer itself is tested against
                    # `guarded` here, not its resolved base as
                    # `inspect` does; widening it would change findings.
                    if ("null",) in targets and pointer not in guarded:
                        only_null = all(t == ("null",) for t in targets)
                        name = body.locals[pointer].name or f"_{pointer}"
                        findings.append(Finding(
                            detector=self.name, kind="null-deref",
                            message=(f"`ptr::read`/`ptr::write` on "
                                     f"{'always' if only_null else 'possibly'}"
                                     f"-null pointer `{name}`"),
                            fn_key=body.key, span=term.span,
                            severity=Severity.ERROR if only_null
                            else Severity.WARNING,
                            metadata={"definite": only_null}))
        # One finding per (local, kind) is enough.
        unique = {}
        for finding in findings:
            key = (finding.fn_key, finding.message)
            unique.setdefault(key, finding)
        return list(unique.values())

    @staticmethod
    def _null_checked_locals(body: Body) -> Set[int]:
        """Locals that flow through an `is_null()` call (any guard counts;
        flow-sensitivity is deliberately coarse to avoid FPs)."""
        checked: Set[int] = set()
        for _bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op is BuiltinOp.PTR_IS_NULL:
                for arg in term.args[:1]:
                    if arg.place is not None:
                        checked.add(arg.place.local)
                        base, _ = resolve_ref_chain(body, arg.place.local)
                        checked.add(base)
        return checked
