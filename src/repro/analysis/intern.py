"""Per-analysis intern table for summary atoms.

Summary lattices are built from small immutable tuples — lock identities
``("static", name, proj, kind)``, access locations ``("arg", pos,
proj)``, access keys ``(loc, is_write, lockset)`` — that recur across
thousands of summaries: every function touching the same static lock
carries an equal-but-distinct copy of its id.  Interning maps every
equal atom to one canonical object, which

* collapses the duplicate tuples (memory: one object per distinct atom),
* makes the engine's per-iteration summary comparisons cheap — dict and
  frozenset equality shortcut on identical elements (``PyObject_RichCompare``
  hits the identity fast path), so the SCC worklist's "did anything
  change?" check stops re-hashing deep tuple trees,
* keeps cached hashes warm: one canonical object's hash is computed once
  and reused at every dict/frozenset membership test instead of being
  recomputed per copy.

One :class:`Interner` lives per :class:`~repro.analysis.engine.SummaryEngine`
(per-analysis, as the tentpole specifies) — tables are never shared
across programs, so an engine's lifetime bounds the table's.  Hit/miss
counts surface as ``analysis.intern.{hits,misses}`` gauges for the
micro-benchmark.
"""

from __future__ import annotations

from typing import Dict, FrozenSet


class Interner:
    """Canonicalising table: equal atoms in, one shared object out."""

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: Dict[object, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, atom):
        """The canonical object equal to ``atom`` (``atom`` itself on
        first sight).  Atoms must be hashable."""
        table = self._table
        canonical = table.get(atom)
        if canonical is not None:
            self.hits += 1
            return canonical
        self.misses += 1
        table[atom] = atom
        return atom

    def intern_set(self, atoms) -> FrozenSet:
        """A canonical frozenset whose members are interned atoms.
        The set itself is interned too (locksets repeat heavily)."""
        return self.intern(frozenset(self.intern(a) for a in atoms))
