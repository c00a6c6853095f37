"""An approximate NLL-style borrow checker over MIR.

This is the *substrate* half of Rust's safety story: safe MiniRust code is
expected to pass these checks, and the test suite holds the generated
corpus to them.  Two rule families are enforced (both approximately, both
skipped inside ``unsafe`` regions, mirroring how real unsafe code opts out
of parts of the discipline):

* **use-after-move** — reading or re-moving a local whose value may have
  been moved out and not reinitialised;
* **conflicting borrows** — two overlapping borrows of the same local
  where at least one is mutable, or mutation of a local while a shared
  borrow of it is live (borrow regions are approximated by the storage
  range of the reference-holding local, i.e. lexical-lifetime precision).

Both rules read the shared per-body facts: the init solution
(:func:`~repro.analysis.init.init_of`) and storage liveness
(:func:`~repro.analysis.lifetime.compute_storage_ranges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.init import init_of
from repro.analysis.lifetime import StorageRanges, compute_storage_ranges
from repro.lang.source import Span
from repro.mir.nodes import (
    Body, RvalueKind, StatementKind, TerminatorKind,
)


@dataclass
class BorrowError:
    kind: str                  # "use_after_move" | "conflicting_borrow" | ...
    message: str
    span: Span
    fn_key: str
    local: Optional[int] = None

    def render(self) -> str:
        return f"error[{self.kind}] in {self.fn_key}: {self.message}"


@dataclass
class _Borrow:
    holder: int                # local holding the reference
    target: int                # local borrowed
    mutable: bool
    point: Tuple[int, int]
    span: Span
    in_unsafe: bool


def check_body(body: Body) -> List[BorrowError]:
    errors: List[BorrowError] = []
    errors.extend(_check_use_after_move(body))
    errors.extend(_check_conflicting_borrows(body))
    return errors


def check_program(program) -> List[BorrowError]:
    errors: List[BorrowError] = []
    for body in program.bodies():
        errors.extend(check_body(body))
    return errors


# ---------------------------------------------------------------------------
# Use after move
# ---------------------------------------------------------------------------

def _check_use_after_move(body: Body) -> List[BorrowError]:
    errors: List[BorrowError] = []
    init = init_of(body)
    moved_here = init.moved_out
    named = {l.index for l in body.locals if l.name and not l.is_temp}

    for block in body.blocks:
        if not init.reached(block.index):
            continue
        states = init.states_in_block(block.index)
        for i, stmt in enumerate(block.statements):
            state = states[i]
            if stmt.in_unsafe:
                continue
            if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None:
                reads: Set[int] = set()
                for op in stmt.rvalue.operands:
                    if op.place is not None:
                        reads.add(op.place.local)
                if stmt.rvalue.place is not None:
                    reads.add(stmt.rvalue.place.local)
                for local in reads & named:
                    if moved_here(state, local):
                        errors.append(BorrowError(
                            kind="use_after_move",
                            message=f"use of moved value "
                                    f"`{body.locals[local].name}`",
                            span=stmt.span, fn_key=body.key, local=local))
        term = block.terminator
        if term is not None and term.kind is TerminatorKind.CALL \
                and not term.in_unsafe:
            state = states[-1]
            for op in term.args:
                if op.place is not None and op.place.local in named \
                        and moved_here(state, op.place.local):
                    errors.append(BorrowError(
                        kind="use_after_move",
                        message=f"use of moved value "
                                f"`{body.locals[op.place.local].name}`",
                        span=term.span, fn_key=body.key,
                        local=op.place.local))
    return errors


# ---------------------------------------------------------------------------
# Conflicting borrows
# ---------------------------------------------------------------------------

def _collect_borrows(body: Body) -> List[_Borrow]:
    borrows: List[_Borrow] = []
    for bb, i, stmt in body.iter_statements():
        if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None \
                and stmt.rvalue.kind in (RvalueKind.REF, RvalueKind.ADDRESS_OF) \
                and stmt.place.is_local:
            borrows.append(_Borrow(
                holder=stmt.place.local,
                target=stmt.rvalue.place.local,
                mutable=stmt.rvalue.mutable,
                point=(bb, i), span=stmt.span,
                in_unsafe=stmt.in_unsafe))
    return borrows


def _check_conflicting_borrows(body: Body) -> List[BorrowError]:
    errors: List[BorrowError] = []
    borrows = _collect_borrows(body)
    if not borrows:
        return errors
    ranges = compute_storage_ranges(body)
    named = {l.index for l in body.locals if l.name and not l.is_temp}

    # Reference expressions lower through a temp (`_t = &x; r = _t`), so
    # resolve each borrow's holder to the named local it lands in.
    forwarded: Dict[int, int] = {}
    for _bb, _i, stmt in body.iter_statements():
        if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local \
                and stmt.place.local in named \
                and stmt.rvalue is not None \
                and stmt.rvalue.kind is RvalueKind.USE:
            op = stmt.rvalue.operands[0]
            if op.place is not None and op.place.is_local:
                forwarded[op.place.local] = stmt.place.local
    for borrow in borrows:
        if borrow.holder not in named and borrow.holder in forwarded:
            borrow.holder = forwarded[borrow.holder]

    # Restrict to borrows of *named* locals whose holder is also named:
    # compiler temps for method receivers would otherwise flood this check
    # with borrows that real NLL kills instantly.
    user_borrows = [b for b in borrows
                    if b.target in named and b.holder in named
                    and not b.in_unsafe]

    for i, a in enumerate(user_borrows):
        for b in user_borrows[i + 1:]:
            if a.target != b.target:
                continue
            if not (a.mutable or b.mutable):
                continue
            if _live_together(ranges, body, a.holder, b.holder):
                which = "mutable" if (a.mutable and b.mutable) else \
                    "mutable and shared"
                errors.append(BorrowError(
                    kind="conflicting_borrow",
                    message=f"conflicting {which} borrows of "
                            f"`{body.locals[a.target].name}`",
                    span=b.span, fn_key=body.key, local=a.target))
    return errors


def _live_together(ranges: StorageRanges, body: Body, a: int,
                   b: int) -> bool:
    """Is there a program point where the storage of both ``a`` and
    ``b`` is live?"""
    both = 1 << a | 1 << b
    solution = ranges.solution
    return any(state & both == both
               for bb in range(len(body.blocks)) if solution.reached(bb)
               for state in solution.states_in_block(bb))
