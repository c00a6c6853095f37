"""Source files and spans.

Every token, AST node, HIR node, and MIR statement carries a :class:`Span`
so that detector findings point back at concrete source locations, exactly
the way rustc diagnostics and the paper's bug reports do.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(slots=True, unsafe_hash=True)
class Span:
    """A half-open byte range ``[lo, hi)`` in one source file.

    A slotted value atom: equal and hashed by its fields, and never
    mutated after construction.  ``tests/test_ir_values.py`` holds
    that; a frozen dataclass would check it at run time, which makes
    every construction several times slower.
    """

    lo: int
    hi: int
    file_name: str = "<input>"

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``."""
        if other is None or other is Span.DUMMY:
            return self
        if self is Span.DUMMY:
            return other
        return Span(min(self.lo, other.lo), max(self.hi, other.hi), self.file_name)

    @property
    def is_dummy(self) -> bool:
        return self.lo == 0 and self.hi == 0 and self.file_name == "<dummy>"

    def __repr__(self) -> str:
        return f"Span({self.lo}..{self.hi})"


# Sentinel used for compiler-generated constructs with no source location.
# A plain class attribute assigned after the class, so it is not a field.
Span.DUMMY = Span(0, 0, "<dummy>")


@dataclass
class SourceFile:
    """A named source file with line-offset indexing for diagnostics."""

    name: str
    text: str
    _line_starts: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        starts = [0]
        find = self.text.find
        i = find("\n")
        while i != -1:
            starts.append(i + 1)
            i = find("\n", i + 1)
        self._line_starts = starts

    def line_col(self, offset: int) -> tuple:
        """1-based ``(line, column)`` for a byte offset."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self._line_starts, offset) - 1
        col = offset - self._line_starts[line]
        return line + 1, col + 1

    def line_text(self, line: int) -> str:
        """The text of a 1-based line number, without the newline."""
        if line < 1 or line > len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    def snippet(self, span: Span) -> str:
        """The raw text covered by ``span``."""
        return self.text[span.lo : span.hi]
