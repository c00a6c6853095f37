"""Source annotation: the paper's proposed IDE visualisations, as text.

* :func:`annotate_lifetimes` — §7.1: "Being able to visualize objects'
  lifetime and owner(s) during programming time could largely help Rust
  programmers avoid memory bugs."  For each user variable of a function
  we report the source lines its storage spans and where its drop runs.
* :func:`annotate_critical_sections` — Suggestion 6: "Future IDEs should
  add plug-ins to highlight the location of Rust's implicit unlock."
  For each lock acquisition we report the acquisition line, the lines the
  guard is held across, and the implicit-unlock (release) line(s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.detectors.base import AnalysisContext
from repro.lang.source import SourceFile
from repro.mir.nodes import StatementKind
from repro.driver import CompiledProgram


@dataclass
class VarLifetime:
    name: str
    local: int
    ty: str
    first_line: Optional[int] = None
    last_line: Optional[int] = None
    drop_lines: List[int] = field(default_factory=list)


@dataclass
class CriticalSection:
    kind: str
    acquire_line: Optional[int]
    held_lines: List[int]
    release_lines: List[int]
    #: Set when the guard came back from a callee (summary engine's
    #: held-on-return fact): the callee's function key.
    via: Optional[str] = None


@dataclass
class AnnotatedSource:
    fn_key: str
    source: SourceFile
    lifetimes: List[VarLifetime] = field(default_factory=list)
    critical_sections: List[CriticalSection] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"fn {self.fn_key}:"]
        for var in self.lifetimes:
            drops = (", dropped at line " +
                     "/".join(str(l) for l in sorted(set(var.drop_lines)))
                     ) if var.drop_lines else ""
            lines.append(f"  let {var.name}: {var.ty} — storage lines "
                         f"{var.first_line}..{var.last_line}{drops}")
        for cs in self.critical_sections:
            held = sorted(set(cs.held_lines))
            span = f"{held[0]}..{held[-1]}" if held else "-"
            releases = "/".join(str(l) for l in sorted(set(cs.release_lines))) \
                or "end of scope"
            via = f" (guard returned by `{cs.via}`)" if cs.via else ""
            lines.append(f"  [{cs.kind} critical section] acquired line "
                         f"{cs.acquire_line}{via}, held over lines {span}, "
                         f"implicit unlock at line {releases}")
        return "\n".join(lines)


def _line(source: SourceFile, span) -> Optional[int]:
    if span is None or span.is_dummy:
        return None
    return source.line_col(span.lo)[0]


def annotate_lifetimes(compiled: CompiledProgram,
                       fn_key: str) -> AnnotatedSource:
    """Lifetime/ownership annotations for every named variable of one
    function."""
    body = compiled.program.functions[fn_key]
    source = compiled.source
    out = AnnotatedSource(fn_key=fn_key, source=source)
    named = {l.index: l for l in body.locals
             if l.name and not l.name.startswith("static:") and not l.is_temp}

    spans: Dict[int, List[int]] = {}
    drops: Dict[int, List[int]] = {}
    for _bb, _i, stmt in body.iter_statements():
        line = _line(source, stmt.span)
        if line is None:
            continue
        if stmt.kind in (StatementKind.STORAGE_LIVE,
                         StatementKind.STORAGE_DEAD) \
                and stmt.local in named:
            spans.setdefault(stmt.local, []).append(line)
        elif stmt.kind is StatementKind.ASSIGN:
            locals_touched = {stmt.place.local} | {
                op.place.local for op in stmt.rvalue.operands
                if op.place is not None}
            for local in locals_touched & set(named):
                spans.setdefault(local, []).append(line)
        elif stmt.kind is StatementKind.DROP and stmt.place.local in named:
            # Scope-exit drops carry the enclosing block's span; its *end*
            # line is where the drop actually runs.
            end_line = source.line_col(stmt.span.hi)[0] \
                if not stmt.span.is_dummy else line
            drops.setdefault(stmt.place.local, []).append(end_line)

    for local, info in sorted(named.items()):
        lines = spans.get(local, [])
        out.lifetimes.append(VarLifetime(
            name=info.name, local=local, ty=str(info.ty),
            first_line=min(lines) if lines else None,
            last_line=max(lines) if lines else None,
            drop_lines=drops.get(local, [])))
    return out


def annotate_critical_sections(compiled: CompiledProgram,
                               fn_key: str,
                               ctx: Optional[AnalysisContext] = None
                               ) -> AnnotatedSource:
    """Critical-section annotations: where each lock is taken, held, and
    implicitly released.  Guard regions come from the shared
    :class:`AnalysisContext`, so sections opened by a callee that returns
    its guard are annotated too (with the callee named).  Try-lock
    regions are left out: a try-lock never blocks."""
    body = compiled.program.functions[fn_key]
    source = compiled.source
    out = AnnotatedSource(fn_key=fn_key, source=source)
    if ctx is None:
        ctx = AnalysisContext(compiled.program)

    for region in ctx.guard_regions(body):
        if region.is_try:
            continue
        held_lines: List[int] = []
        for bb, i in sorted(region.points):
            block = body.blocks[bb]
            if i < len(block.statements):
                line = _line(source, block.statements[i].span)
            elif block.terminator is not None:
                line = _line(source, block.terminator.span)
            else:
                line = None
            if line is not None:
                held_lines.append(line)
        release_lines: List[int] = []
        for bb, i in sorted(region.release_points):
            block = body.blocks[bb]
            if i < len(block.statements):
                line = _line(source, block.statements[i].span)
            elif block.terminator is not None:
                line = _line(source, block.terminator.span)
            else:
                line = None
            if line is not None:
                release_lines.append(line)
        out.critical_sections.append(CriticalSection(
            kind=region.kind,
            acquire_line=_line(source, region.span),
            held_lines=held_lines,
            release_lines=release_lines,
            via=region.via_call))
    return out
