"""Unsafe-encapsulation detectors (paper §5).

Three detectors consume the engine's unsafe-provenance summary component
(:mod:`repro.analysis.unsafe_prop`):

* ``unsafe-leak`` — a raw pointer *born in an unsafe region* escapes its
  encapsulation boundary: returned from a safe **public** API, or written
  to a static.  The paper's §5.3 observation that "interior unsafe
  functions sometimes leak raw pointers to their callers" and its memory
  bugs where the leaked pointer is later used unsafely.
* ``unchecked-unsafe-input`` — a caller-controlled argument reaches an
  unsafe dereference/index/offset with no dominating null/bounds check:
  the "improper input validation in interior unsafe" pattern.  ``unsafe
  fn`` bodies are skipped — there the obligation is the caller's by
  contract — and the interprocedural summary makes sure a public wrapper
  forwarding into an unchecked private helper is reported too.
* ``interior-unsafe-audit`` — the §4.3 study regenerated as findings: one
  NOTE per interior-unsafe function with its checked / unchecked /
  caller-delegated classification.  The default registry run leaves it
  out, so plain ``check`` runs never mix audit rows into bug findings;
  it runs when a selection names it (``minirust audit-unsafe``,
  ``minirust scan``, ``check --detector interior-unsafe-audit``).
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.analysis.scan import scan_of
from repro.analysis.unsafe_prop import (
    classify_interior_unsafe, unsafe_born_locals,
)
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.lang.source import Span
from repro.mir.nodes import Body, CastKind, RvalueKind, StatementKind
from repro.obs.provenance import fact


def _born_site(body: Body) -> Optional[Span]:
    """The first unsafe-region statement/terminator that mints a raw
    pointer in this body, for provenance messages."""
    scan = scan_of(body)
    for _bb, _i, stmt in scan.statements:
        if stmt.in_unsafe and stmt.kind is StatementKind.ASSIGN \
                and stmt.rvalue is not None \
                and stmt.rvalue.kind is RvalueKind.CAST \
                and stmt.rvalue.cast_kind in (CastKind.REF_TO_RAW,
                                              CastKind.INT_TO_RAW):
            return stmt.span
    for _bb, term in scan.calls:
        if term.in_unsafe and term.func.is_unsafe:
            return term.span
    return None


class UnsafeLeakDetector(Detector):
    name = "unsafe-leak"
    description = ("Raw pointer born in an unsafe region escapes through "
                   "a safe public API return or a write to shared state")
    paper_section = "5.3"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        findings: List[Finding] = []
        summaries = ctx.engine.summaries_map()
        prov = ctx.summary(body.key).unsafe_provenance

        if body.is_pub and not body.is_unsafe_fn \
                and body.local_ty(0).is_raw_ptr and prov.returns_unsafe_ptr:
            facts = [fact("unsafe-born",
                          "the returned pointer is derived inside an "
                          "unsafe region somewhere in the call tree")]
            site = _born_site(body)
            if site is not None:
                facts.append(fact("born-site",
                                  "raw pointer minted here",
                                  span={"lo": site.lo, "hi": site.hi}))
            facts.append(fact(
                "public-api",
                f"`{body.key}` is a safe `pub fn` returning a raw "
                f"pointer: callers outside the module receive the "
                f"pointer with no usage contract"))
            findings.append(Finding(
                detector=self.name, kind="raw-ptr-return-escape",
                message=(f"safe public fn `{body.key}` returns a raw "
                         f"pointer born in an unsafe region; the unsafe "
                         f"obligation silently escapes its encapsulation "
                         f"boundary (paper §5.3)"),
                fn_key=body.key, span=body.span,
                severity=Severity.WARNING, provenance=facts))

        born = unsafe_born_locals(body, summaries)
        if born:
            pt = ctx.points_to(body)
            for _bb, _i, stmt in scan_of(body).statements:
                if stmt.kind is not StatementKind.ASSIGN \
                        or stmt.rvalue is None \
                        or stmt.rvalue.kind not in (RvalueKind.USE,
                                                    RvalueKind.CAST):
                    continue
                if not any(op.place is not None
                           and op.place.local in born
                           for op in stmt.rvalue.operands):
                    continue
                dest = stmt.place.local
                name = body.locals[dest].name or ""
                is_static = name.startswith("static:")
                static_name = name[7:] if is_static else None
                if not is_static and stmt.place.has_deref:
                    for target in pt.targets(dest):
                        if target[0] == "static":
                            is_static, static_name = True, target[1]
                            break
                if not is_static:
                    continue
                findings.append(Finding(
                    detector=self.name, kind="raw-ptr-static-escape",
                    message=(f"raw pointer born in an unsafe region is "
                             f"stored to static `{static_name}`; any code "
                             f"can now reach the unsafe pointer through "
                             f"shared state (paper §5.3)"),
                    fn_key=body.key, span=stmt.span,
                    severity=Severity.WARNING,
                    provenance=[fact("unsafe-born",
                                     "the stored pointer is derived "
                                     "inside an unsafe region"),
                                fact("shared-state",
                                     f"static `{static_name}` is "
                                     f"reachable program-wide")]))
        return findings


class UncheckedUnsafeInputDetector(Detector):
    name = "unchecked-unsafe-input"
    description = ("Caller-controlled argument reaches an unsafe "
                   "deref/index/offset with no dominating guard")
    paper_section = "5.3"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if body.is_unsafe_fn or body.is_closure:
            # `unsafe fn`: the check obligation is the caller's by
            # contract.  Closures: their "arguments" include captures,
            # which are not caller-controlled API inputs.
            return []
        prov = ctx.summary(body.key).unsafe_provenance
        findings: List[Finding] = []
        for position in sorted(prov.arg_sinks):
            kind, hop, span = prov.arg_sinks[position]
            arg_name = body.locals[position + 1].name \
                if position + 1 < len(body.locals) else None
            arg_label = f"`{arg_name}`" if arg_name \
                else f"#{position}"
            facts = [fact("taint-source",
                          f"argument {arg_label} of `{body.key}` is "
                          f"caller-controlled")]
            if hop is None:
                facts.append(fact(
                    "unsafe-sink",
                    f"reaches an unsafe {kind} in this body with no "
                    f"dominating null/bounds check"))
            else:
                chain = ctx.engine.sink_chain(body.key, position)
                facts.append(fact(
                    "summary-chain",
                    f"flows unguarded into the unsafe {kind} via "
                    + " -> ".join(f"`{f}`" for f in chain),
                    chain=chain))
            where = "in this body" if hop is None \
                else f"via `{hop[0]}`"
            findings.append(Finding(
                detector=self.name, kind="unchecked-unsafe-input",
                message=(f"argument {arg_label} of safe fn `{body.key}` "
                         f"reaches an unsafe {kind} {where} with no "
                         f"dominating guard; a hostile value corrupts "
                         f"memory from safe code (paper §5.3)"),
                fn_key=body.key, span=span, severity=Severity.WARNING,
                provenance=facts))
        return findings


class InteriorUnsafeAuditDetector(Detector):
    name = "interior-unsafe-audit"
    description = ("Study-style classification of every interior-unsafe "
                   "function as checked / unchecked / caller-delegated "
                   "(runs only when selected by name)")
    paper_section = "4.3"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if not body.has_interior_unsafe:
            return []
        prov = ctx.summary(body.key).unsafe_provenance
        classification = classify_interior_unsafe(prov)
        obs.count(f"audit.interior_unsafe.{classification}")
        detail = {
            "classification": classification,
            "unsafe_sites": prov.unsafe_sites,
            "unchecked_args": sorted(prov.arg_sinks),
            "guarded_args": sorted(prov.guarded_args),
            "delegated_args": sorted(prov.delegated_args),
            "returns_unsafe_ptr": prov.returns_unsafe_ptr,
            "is_pub": body.is_pub,
        }
        return [Finding(
            detector=self.name, kind="interior-unsafe",
            message=(f"interior-unsafe fn `{body.key}`: {classification} "
                     f"({prov.unsafe_sites} unsafe MIR sites)"),
            fn_key=body.key, span=body.span, severity=Severity.NOTE,
            metadata=detail,
            provenance=[fact("classification",
                             f"§5.3 encapsulation verdict: "
                             f"{classification}", **detail)])]
