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

from typing import Dict, List, Set

from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.scan import cfg_of, scan_of
from repro.analysis.summaries import chain_fate, value_chain
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Body

# Allocation ops that yield *uninitialised* memory.
_RAW_ALLOC_OPS = {BuiltinOp.ALLOC, BuiltinOp.MEM_UNINITIALIZED,
                  BuiltinOp.MAYBE_UNINIT}
_WRITE_OPS = {BuiltinOp.PTR_WRITE, BuiltinOp.PTR_COPY,
              BuiltinOp.PTR_COPY_NONOVERLAPPING, BuiltinOp.MEM_ZEROED}


def _uninit_sites(body: Body, scan) -> Set[str]:
    """Heap site ids of the body's uninitialised allocations."""
    return {f"{body.key}:{bb}" for bb, _term in scan.calls_of(*_RAW_ALLOC_OPS)}


def _written_sites(scan, pt) -> Set[str]:
    """Heap sites some write op or deref-assignment in the body targets."""
    written: Set[str] = set()
    for _bb, term in scan.calls_of(*_WRITE_OPS):
        if term.args and term.args[0].place is not None:
            for target in pt.targets(term.args[0].place.local):
                if target[0] == "heap":
                    written.add(target[1])
    for _bb, _i, stmt, _place, is_write in scan.deref_places:
        if is_write:
            for target in pt.targets(stmt.place.local):
                if target[0] == "heap":
                    written.add(target[1])
    return written


class DoubleFreeDetector(Detector):
    name = "double-free"
    description = ("Ownership duplicated via ptr::read so the same value "
                   "is dropped twice")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        scan = scan_of(body)
        findings: List[Finding] = []
        # Find `dup = ptr::read(&orig)` call sites.
        for bb, term in scan.calls_of(BuiltinOp.PTR_READ):
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
            orig = chain_fate(scan, value_chain(body, src_base), ctx.summary)
            copy = chain_fate(scan, value_chain(body, dup), ctx.summary)
            if orig.dies and copy.dies \
                    and not (orig.forgotten or copy.forgotten):
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


class InvalidFreeDetector(Detector):
    name = "invalid-free"
    description = ("Assignment through a raw pointer into uninitialised "
                   "memory drops a garbage value (Figure 6 pattern)")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        scan = scan_of(body)
        uninit_sites = _uninit_sites(body, scan)
        if not uninit_sites:
            return []
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        cfg = cfg_of(body)
        write_blocks = self._write_blocks(scan, pt, uninit_sites)
        for bb, _i, stmt, _place, is_write in scan.deref_places:
            if not is_write:
                continue
            base_ty = body.local_ty(stmt.place.local)
            if not base_ty.is_raw_ptr:
                continue
            value_ty = base_ty.referent
            if not value_ty.needs_drop:
                continue
            for target in pt.targets(stmt.place.local):
                if target[0] == "heap" and target[1] in uninit_sites \
                        and not any(wb != bb and cfg.dominates(wb, bb)
                                    for wb in write_blocks[target[1]]):
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

    @staticmethod
    def _write_blocks(scan, pt, sites: Set[str]) -> Dict[str, List[int]]:
        """For each site: the blocks of the ``ptr::write``/copy calls that
        target it.  A site counts as written at a point when one of those
        blocks strictly dominates the point's block."""
        write_blocks: Dict[str, List[int]] = {s: [] for s in sites}
        for bb, term in scan.calls_of(*_WRITE_OPS):
            for arg in term.args[:1]:
                if arg.place is None:
                    continue
                for target in pt.targets(arg.place.local):
                    if target[0] == "heap" and target[1] in sites:
                        write_blocks[target[1]].append(bb)
        return write_blocks


class UninitReadDetector(Detector):
    name = "uninit-read"
    description = ("Read of memory that was allocated but never "
                   "initialised")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        scan = scan_of(body)
        uninit_sites = _uninit_sites(body, scan)
        if not uninit_sites:
            return []
        findings: List[Finding] = []
        pt = ctx.points_to(body)

        # A site is "ever written" if any write op or deref-assignment
        # targets it anywhere in the body (coarse; flow handled by the
        # invalid-free detector's dominance check).
        written = _written_sites(scan, pt)

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
        for _bb, _i, stmt, place, is_write in scan.deref_places:
            if is_write:
                continue
            if not body.local_ty(place.local).is_raw_ptr:
                continue
            for target in pt.targets(place.local):
                if target[0] == "heap" and target[1] in uninit_sites \
                        and target[1] not in written \
                        and (place.local, target[1]) not in reported:
                    reported.add((place.local, target[1]))
                    report(place.local, target[1], stmt.span)
        for bb, term in scan.calls_of(BuiltinOp.PTR_READ):
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
        # Every finding needs a local that may point to null: a body
        # whose points-to has no null target holds nothing to check.
        scan = scan_of(body)
        if not self._may_point_to_null(ctx, scan):
            return []
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        guarded = scan.null_checked

        def inspect(place, span) -> None:
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

        for _bb, _i, stmt, place, _is_write in scan.deref_places:
            if stmt.rvalue is not None:
                inspect(place, stmt.span)
        for _bb, term in scan.calls_of(BuiltinOp.PTR_READ,
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
    def _may_point_to_null(ctx: AnalysisContext, scan) -> bool:
        """Can the body's points-to hold a null target?  Null enters only
        through a ``ptr::null`` result or a call whose callee's return
        summary says it may return null (the same summaries points-to
        expands its user calls with)."""
        if scan.null_seeded:
            return True
        summaries = ctx.engine.summaries_map()
        for _dst, callee, _args, _site in scan.pt_skeleton.user_calls:
            summary = summaries.get(callee)
            if summary is not None and "null" in summary.returns:
                return True
        return False
