"""CVE-class detectors over the unwind-aware CFG (§5.1 / §7.1).

The advisory classes that motivated RUSTSEC's memory-safety taxonomy are
exception-safety bugs: code that is correct on the straight-line path
but leaves memory in a corrupt state when a panic unwinds through it.
These three detectors consume the panic model built by
:mod:`repro.analysis.panic` (unwind successor edges, landing pads, the
``panic`` component of every function summary):

* :class:`PanicSafetyDetector` — an unsafe region duplicates ownership
  (``ptr::read``) and a may-panic operation runs before the window is
  closed (write-back / ``mem::forget``): the landing pad drops the
  original while the duplicate also owns the value.
* :class:`BadDropDetector` — a ``Drop`` impl that double-drops a field
  (``ptr::read`` of ``self.field`` whose duplicate is dropped, on top of
  the compiler's own drop glue) or drops a value it constructed
  uninitialised.
* :class:`UninitExposureDetector` — a public safe function returns a
  pointer to memory it allocated uninitialised and never wrote:
  uninitialised bytes escape the API boundary (CVE-2018-1000810 shape).

``panic-safety`` is the only panic-*path* detector of the three and goes
quiet under the ``--no-unwind-edges`` ablation; the other two reason
about drop glue and escapes that exist with or without unwinding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.scan import scan_of, terminator_panic_source
from repro.analysis.summaries import call_effect, chain_fate, value_chain
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.memory_misc import (
    _RAW_ALLOC_OPS, _WRITE_OPS, _written_sites,
)
from repro.detectors.report import Finding
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.nodes import (
    Body, StatementKind, Terminator, TerminatorKind,
)
from repro.obs.provenance import fact

#: Uninit constructors whose result has drop glue when dropped as a
#: value (``alloc`` returns a raw pointer — no glue — so it is excluded
#: from the drop-uninit pattern but kept for the exposure pattern).
_UNINIT_VALUE_OPS = {BuiltinOp.MEM_UNINITIALIZED, BuiltinOp.MAYBE_UNINIT}


def _call_op(term: Terminator) -> Optional[BuiltinOp]:
    if term.kind is not TerminatorKind.CALL or term.func is None:
        return None
    return term.func.builtin_op


def _arg_base(body: Body, term: Terminator, index: int = 0) -> Optional[int]:
    """The base local an argument's reference/pointer chain resolves to."""
    if index >= len(term.args) or term.args[index].place is None:
        return None
    base, _proj = resolve_ref_chain(body, term.args[index].place.local)
    return base


class PanicSafetyDetector(Detector):
    """A may-panic operation inside an open ownership-duplication window.

    ``ptr::read`` leaves the original bitwise intact, so between the
    read and the compensating write-back (or ``mem::forget``) *two*
    owners of one value exist.  Straight-line code closes the window
    before anything can observe it — but a panic doesn't: the landing
    pad drops the original by its scope obligation while the duplicate
    is dropped by its own, freeing the same resource twice.  The walk
    follows the *success* CFG from the read; the first may-panic
    terminator met before a closing event is the report site.  Callee
    panics come from the summary fixpoint's ``panic`` component, so the
    fallible operation may be arbitrarily many calls deep.
    """

    name = "panic-safety"
    description = ("May-panic operation while `ptr::read` has duplicated "
                   "ownership: the unwind path drops the value twice")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if not ctx.config.unwind_edges:
            return []
        findings: List[Finding] = []
        for bb, term in scan_of(body).calls_of(BuiltinOp.PTR_READ):
            if not term.in_unsafe:
                continue
            if term.destination is None or not term.destination.is_local:
                continue
            src_base = _arg_base(body, term)
            if src_base is None:
                continue
            dup = term.destination.local
            if not (body.local_ty(src_base).needs_drop
                    or body.local_ty(dup).needs_drop):
                continue
            hit = self._first_panic_in_window(ctx, body, term, src_base, dup)
            if hit is None:
                continue
            panic_term, source, chain = hit
            src_name = body.locals[src_base].name or f"_{src_base}"
            desc = source if chain is None else \
                f"call into `{chain[0]}` (panics in `{chain[-1]}`)"
            provenance = [
                fact("ownership-dup",
                     f"`ptr::read` duplicates ownership of `{src_name}` "
                     f"inside an unsafe region: original and duplicate "
                     f"both own the value until a write-back or "
                     f"`mem::forget`",
                     local=src_base, duplicate=dup),
                fact("may-panic",
                     f"`{desc}` can panic while the duplication window "
                     f"is still open",
                     source=source, callee_chain=chain),
                fact("unwind-drops",
                     f"the landing pad for this panic drops `{src_name}` "
                     f"by its scope obligation while the duplicate still "
                     f"owns the same resource",
                     obligations=self._pad_drops(body, panic_term)),
            ]
            findings.append(Finding(
                detector=self.name, kind="panic-safety",
                message=(f"`{desc}` can panic between `ptr::read` of "
                         f"`{src_name}` and its write-back; unwinding "
                         f"drops both owners of the same value "
                         f"(double free on the panic path)"),
                fn_key=body.key, span=panic_term.span,
                metadata={"source": src_base, "duplicate": dup,
                          "panic_source": source},
                provenance=provenance))
        return findings

    def _first_panic_in_window(
            self, ctx: AnalysisContext, body: Body, read_term: Terminator,
            src_base: int, dup: int
    ) -> Optional[Tuple[Terminator, str, Optional[List[str]]]]:
        """BFS the success CFG from the read; stop each path at a closing
        event, report the first may-panic terminator met while open."""
        if read_term.target is None:
            return None
        worklist = [read_term.target]
        visited: Set[int] = set()
        while worklist:
            index = worklist.pop(0)
            if index in visited:
                continue
            visited.add(index)
            block = body.blocks[index]
            if block.cleanup:
                continue
            if any(stmt.kind is StatementKind.ASSIGN
                   and stmt.place.is_local and stmt.place.local == src_base
                   for stmt in block.statements):
                continue  # whole reassignment: window closed on this path
            term = block.terminator
            if term is None:
                continue
            hit = self._panic_source(ctx, term)
            if hit is not None:
                return (term, hit[0], hit[1])
            if self._closes_window(body, term, src_base, dup):
                continue
            for succ in term.successors():
                if succ != term.unwind:
                    worklist.append(succ)
        return None

    @staticmethod
    def _panic_source(ctx: AnalysisContext, term: Terminator
                      ) -> Optional[Tuple[str, Optional[List[str]]]]:
        source = terminator_panic_source(term)
        if source is not None:
            return (source, None)
        if term.kind is TerminatorKind.CALL and term.func is not None \
                and term.func.kind in (FuncKind.USER, FuncKind.CLOSURE) \
                and term.func.user_fn:
            summary = ctx.summary(term.func.user_fn)
            if summary.panic.may_panic:
                chain = ctx.panic_chain(term.func.user_fn)
                sources = sorted(summary.panic.sources)
                return (sources[0] if sources else "panic", chain)
        return None

    @staticmethod
    def _closes_window(body: Body, term: Terminator, src_base: int,
                       dup: int) -> bool:
        if _call_op(term) is BuiltinOp.PTR_WRITE:
            return _arg_base(body, term) == src_base
        if term.kind is not TerminatorKind.CALL:
            return False
        forgets = call_effect(term).forgets
        if forgets:
            return any(resolve_ref_chain(body, place.local)[0]
                       in (src_base, dup) for place in forgets)
        # The original moved into a callee: the pad no longer owns it.
        return any(arg.is_move and arg.place is not None
                   and arg.place.is_local and arg.place.local == src_base
                   for arg in term.args)

    @staticmethod
    def _pad_drops(body: Body, term: Terminator) -> List[int]:
        if term.unwind is None:
            return []
        return [stmt.place.local
                for stmt in body.blocks[term.unwind].statements
                if stmt.kind is StatementKind.DROP and stmt.place.is_local]


class BadDropDetector(Detector):
    """Destructors that corrupt their own struct's drop glue.

    After a user ``fn drop`` returns, the compiler drops every field
    again — glue the impl cannot opt out of.  Two bad shapes:

    * **double-drop-field** — the impl ``ptr::read``\\ s a field and lets
      the duplicate drop (explicitly, at scope exit or in a callee)
      without ``mem::forget`` or a write-back: the glue then frees the
      same value a second time.
    * **drop-uninit** — the impl constructs a value via
      ``mem::uninitialized``/``MaybeUninit``, never writes it, and drops
      it: drop glue runs over garbage bytes.
    """

    name = "bad-drop"
    description = ("Drop impl double-drops a field or drops a value it "
                   "never initialised")
    paper_section = "5.1"

    _SELF = 1  # `&mut self` is always local 1 in a drop impl

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if not body.key.endswith("::drop") or body.arg_count < 1:
            return []
        scan = scan_of(body)
        findings: List[Finding] = []
        findings.extend(self._double_drop_fields(ctx, body, scan))
        findings.extend(self._drop_uninit(ctx, body, scan))
        return findings

    def _double_drop_fields(self, ctx: AnalysisContext, body: Body,
                            scan) -> List[Finding]:
        findings: List[Finding] = []
        for bb, term in scan.calls_of(BuiltinOp.PTR_READ):
            if term.destination is None or not term.destination.is_local:
                continue
            if not term.args or term.args[0].place is None:
                continue
            base, proj = resolve_ref_chain(body, term.args[0].place.local)
            if base != self._SELF or not proj:
                continue
            dup = term.destination.local
            if not body.local_ty(dup).needs_drop:
                continue
            fate = chain_fate(scan, value_chain(body, dup), ctx.summary)
            if not fate.dies or fate.forgotten \
                    or self._field_restored(body, scan):
                continue
            field_name = proj[-1].field_name or f"field {proj[-1].field_index}"
            findings.append(Finding(
                detector=self.name, kind="double-drop-field",
                message=(f"`ptr::read` of `self.{field_name}` inside "
                         f"`fn drop`: the duplicate is dropped here and "
                         f"the compiler's drop glue drops the field again "
                         f"when `drop` returns (use `ManuallyDrop` or "
                         f"`mem::forget`)"),
                fn_key=body.key, span=term.span,
                metadata={"field": field_name, "duplicate": dup},
                provenance=[
                    fact("ownership-dup",
                         f"`ptr::read` duplicates `self.{field_name}` "
                         f"while the struct still owns it",
                         field=field_name, duplicate=dup),
                    fact("drop-glue",
                         f"after `fn drop` returns, drop glue runs over "
                         f"every field of `self` — including "
                         f"`{field_name}`, whose value the duplicate "
                         f"already freed",
                         fn_key=body.key),
                ]))
        return findings

    def _drop_uninit(self, ctx: AnalysisContext, body: Body,
                     scan) -> List[Finding]:
        findings: List[Finding] = []
        for bb, term in scan.calls_of(*_UNINIT_VALUE_OPS):
            if term.destination is None or not term.destination.is_local:
                continue
            origin = term.destination.local
            chain = value_chain(body, origin)
            if self._chain_written(body, scan, chain) \
                    or not chain_fate(scan, chain, ctx.summary).dies:
                continue
            name = body.locals[origin].name or f"_{origin}"
            findings.append(Finding(
                detector=self.name, kind="drop-uninit",
                message=(f"`{name}` is constructed uninitialised inside "
                         f"`fn drop`, never written, and dropped: drop "
                         f"glue runs over garbage bytes"),
                fn_key=body.key, span=term.span,
                metadata={"origin": origin},
                provenance=[
                    fact("uninit-origin",
                         f"`{name}` comes from an uninitialised "
                         f"constructor and is never written",
                         local=origin),
                    fact("drop-glue",
                         "dropping it runs the payload type's drop glue "
                         "over uninitialised memory", fn_key=body.key),
                ]))
        return findings

    def _field_restored(self, body: Body, scan) -> bool:
        """A `ptr::write` back into any `self` field counts as a restore:
        the impl replaced what it read out."""
        return any(_arg_base(body, term) == self._SELF
                   for _bb, term in scan.calls_of(BuiltinOp.PTR_WRITE))

    @staticmethod
    def _chain_written(body: Body, scan, chain: Set[int]) -> bool:
        for _bb, term in scan.calls_of(*_WRITE_OPS,
                                       BuiltinOp.MAYBE_UNINIT_ASSUME):
            for arg in term.args[:1]:
                if arg.place is not None and \
                        resolve_ref_chain(body, arg.place.local)[0] in chain:
                    return True
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local \
                    and stmt.place.local in chain and stmt.rvalue is not None:
                operands = [op.place.local for op in stmt.rvalue.operands
                            if op.place is not None and op.place.is_local]
                if not any(local in chain for local in operands):
                    return True
        return False


class UninitExposureDetector(Detector):
    """Uninitialised memory escaping a public safe API.

    A ``pub`` (non-``unsafe``) function that returns a pointer into an
    allocation it created with an uninitialised constructor and never
    wrote hands its callers garbage bytes — the CVE-2018-1000810 /
    uninitialised-buffer advisory shape.  Reuses the unsafe-propagation
    taint (the pointer provably originates in an unsafe region) and the
    uninit-read detectors' allocation-site bookkeeping; the subsumption
    pass retires the weaker ``unsafe-leak`` escape report on the same
    function.
    """

    name = "uninit-exposure"
    description = ("Public safe function returns a pointer to memory it "
                   "allocated uninitialised and never wrote")
    paper_section = "5.3"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if not body.is_pub or body.is_unsafe_fn:
            return []
        if not body.local_ty(0).is_raw_ptr:
            return []
        scan = scan_of(body)
        uninit_sites: Dict[str, Terminator] = {
            f"{body.key}:{bb}": term
            for bb, term in scan.calls_of(*_RAW_ALLOC_OPS)}
        if not uninit_sites:
            return []
        pt = ctx.points_to(body)
        written = _written_sites(scan, pt)
        prov = ctx.summary(body.key).unsafe_provenance
        findings: List[Finding] = []
        for target in sorted(pt.targets(0), key=repr):
            if target[0] != "heap" or target[1] not in uninit_sites \
                    or target[1] in written:
                continue
            alloc_term = uninit_sites[target[1]]
            findings.append(Finding(
                detector=self.name, kind="uninit-exposure",
                message=(f"public safe function returns a pointer to "
                         f"memory allocated uninitialised at this call "
                         f"and never written: callers read garbage bytes "
                         f"through a safe API"),
                fn_key=body.key, span=alloc_term.span,
                metadata={"site": target[1]},
                provenance=[
                    fact("uninit-alloc",
                         "the allocation yields uninitialised bytes",
                         site=target[1]),
                    fact("never-written",
                         "no `ptr::write`/`copy`/zeroing targets the "
                         "allocation anywhere in this function",
                         site=target[1]),
                    fact("pub-escape",
                         "the pointer is returned from a `pub` safe "
                         "function, so the uninitialised window escapes "
                         "the API boundary",
                         returns_unsafe_ptr=prov.returns_unsafe_ptr),
                ]))
        return findings
