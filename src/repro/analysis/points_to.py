"""Flow-insensitive, field-insensitive Andersen-style points-to analysis.

The paper's UAF detector "conduct[s] a 'points-to' analysis [that]
maintain[s] which variable [each pointer/reference] points to/references"
(§7.1).  This module is that analysis, over one MIR body.

Points-to targets:

* ``("local", l)`` — the storage of local ``l`` (refs created by ``&x``,
  ``&mut x``, ``&raw``-style casts, ``as_ptr()`` on a container local);
* ``("heap", site)`` — an allocation made at call-site id ``site``
  (``Box::new``, ``alloc``, ``Vec::new`` …);
* ``("static", name)`` — a global;
* ``("argval", i)`` — the value of the function's own argument ``i``
  (seeded on every argument local so return-value aliasing like
  ``f(x) = g(x)`` composes across call chains);
* ``("unknown",)`` — escape hatch for FFI / unresolved sources.

The solver is a straightforward transitive-closure iteration; bodies are
small, precision needs are modest (the detectors re-filter by type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.analysis.scan import NULL_TARGET, UNKNOWN_TARGET, scan_of
from repro.mir.nodes import Body

Target = Tuple


@dataclass(slots=True)
class PointsTo:
    """Result: ``points_to[local]`` is a set of targets."""

    body: Body
    points_to: Dict[int, Set[Target]] = field(default_factory=dict)

    def targets(self, local: int) -> Set[Target]:
        return self.points_to.get(local, set())

    def local_targets(self, local: int) -> Set[int]:
        """Just the ``("local", l)`` targets, as local indices."""
        return {t[1] for t in self.targets(local) if t[0] == "local"}


def compute_points_to(body: Body,
                      return_summaries: Optional[Dict[str, Set[int]]] = None
                      ) -> PointsTo:
    """Compute points-to facts for one body.

    ``return_summaries`` optionally maps user-function keys to the set of
    argument positions their return value may point into — the light
    inter-procedural summary that lets ``p = b.as_ptr()`` alias ``b``
    across a call boundary (needed for the paper's Figure 7 bug).
    """
    skeleton = scan_of(body).pt_skeleton
    result = PointsTo(body)
    pt = result.points_to

    def ensure(local: int) -> Set[Target]:
        return pt.setdefault(local, set())

    # Seed every argument local with its own-value marker so copies of an
    # argument (and values returned through callees that pass the argument
    # along) stay identifiable as "aliases caller argument i".
    for position in range(body.arg_count):
        ensure(position + 1).add(("argval", position))
    for local, target in skeleton.seeds:
        ensure(local).add(target)

    copies: Set[Tuple[int, int]] = set(skeleton.copies)
    loads = skeleton.loads
    stores = skeleton.stores
    if return_summaries:
        for dst, callee, arg_locals, heap_site in skeleton.user_calls:
            items = return_summaries.get(callee) or set()
            for item in items:
                if item == "null":
                    ensure(dst).add(NULL_TARGET)
                elif item == "heap":
                    # The callee returns a fresh allocation; model it as
                    # an allocation made at this call site.
                    ensure(dst).add(("heap", heap_site))
                elif item == "unknown":
                    ensure(dst).add(UNKNOWN_TARGET)
                elif isinstance(item, int) and item < len(arg_locals):
                    src = arg_locals[item]
                    if src is not None:
                        copies.add((dst, src))

    # Fixpoint.
    changed = True
    while changed:
        changed = False
        for dst, src in copies:
            before = len(ensure(dst))
            ensure(dst).update(ensure(src))
            if len(pt[dst]) != before:
                changed = True
        for dst, src in loads:
            before = len(ensure(dst))
            for target in list(ensure(src)):
                if target[0] == "local":
                    ensure(dst).update(ensure(target[1]))
                elif target[0] in ("heap", "static", "unknown", "null",
                                   "argval"):
                    # ``argval`` passes through so a pointer-transfer call
                    # on a reference argument (``Arc::clone(a)`` with
                    # ``a: &Arc<T>``) still summarises as "aliases caller
                    # argument i".
                    ensure(dst).add(target)
            if len(pt[dst]) != before:
                changed = True
        for dst, src in stores:
            for target in list(ensure(dst)):
                if target[0] == "local":
                    before = len(ensure(target[1]))
                    ensure(target[1]).update(ensure(src))
                    if len(pt[target[1]]) != before:
                        changed = True
    # ``ensure`` made a set for every local it touched; the empty ones
    # read the same as a missing local through ``targets``.
    result.points_to = {local: targets for local, targets in pt.items()
                        if targets}
    return result


def return_items(body: Body, pt: PointsTo) -> Set:
    """Extract the return-summary items for one body from its points-to
    result: argument positions the return value may point into or alias,
    plus ``"null"``."""
    items: Set = set()
    for target in pt.targets(0):
        if target[0] == "local" and 0 < target[1] <= body.arg_count:
            items.add(target[1] - 1)
        elif target[0] == "argval":
            items.add(target[1])
        elif target == NULL_TARGET:
            items.add("null")
    return items
