"""Diagnostics: the rustc-style messages of the compiler stages.

A stage that cannot proceed raises :class:`CompileError`, which carries
one rendered :class:`Diagnostic`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang.source import SourceFile, Span


class DiagnosticLevel(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass
class Diagnostic:
    """One compiler message, rustc-style."""

    level: DiagnosticLevel
    message: str
    span: Span = Span.DUMMY
    notes: List[str] = field(default_factory=list)

    def render(self, source: Optional[SourceFile] = None) -> str:
        parts = [f"{self.level.value}: {self.message}"]
        if source is not None and not self.span.is_dummy:
            line, col = source.line_col(self.span.lo)
            parts.append(f"  --> {source.name}:{line}:{col}")
            text = source.line_text(line)
            if text:
                parts.append(f"   | {text}")
                width = max(1, min(self.span.hi, len(source.text)) - self.span.lo)
                parts.append("   | " + " " * (col - 1) + "^" * min(width, max(1, len(text) - col + 1)))
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)


class CompileError(Exception):
    """Raised when a stage cannot proceed (syntax error, unresolved name...)."""

    def __init__(self, message: str, span: Span = Span.DUMMY,
                 source: Optional[SourceFile] = None) -> None:
        self.diagnostic = Diagnostic(DiagnosticLevel.ERROR, message, span)
        self.source = source
        rendered = self.diagnostic.render(source)
        super().__init__(rendered)

    def __reduce__(self):
        # Rebuild from the parts, not from ``args`` (the rendered text),
        # so a worker's error renders once in the parent.
        return (type(self), (self.message, self.span, self.source))

    @property
    def span(self) -> Span:
        return self.diagnostic.span

    @property
    def message(self) -> str:
        return self.diagnostic.message
