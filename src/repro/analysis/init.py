"""Forward initialisation-state analysis.

Tracks, per local, whether it is *maybe initialised* and whether it is
*maybe moved-out* at each program point.  This replicates the drop-flag
reasoning rustc's drop elaboration performs and is what lets the detectors
distinguish a live owner from a hollowed-out one (paper §5.1's double-free
via ``ptr::read`` duplication, invalid-free via never-initialised struct).

States are int bitsets (:mod:`repro.analysis.dataflow`) over a body's
``n`` locals: bit ``l`` is "``l`` maybe initialised", bit ``n + l`` is
"``l`` maybe moved out".  The solution is computed once per body and
kept in its store (:func:`init_of`); unwind lowering solves the pre-pad
CFG and patches its landing pads in (:meth:`InitStates.add_landing_pads`).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.analysis.dataflow import GenKill, Mask, Solution, solve
from repro.analysis.scan import cfg_of, store_of
from repro.mir.nodes import Body, StatementKind, TerminatorKind


class InitStates(Solution):
    """The maybe-init / maybe-moved solution of one body."""

    __slots__ = ("num_locals",)

    def __init__(self, solution: Solution, num_locals: int) -> None:
        super().__init__(solution.masks, solution.entry)
        self.num_locals = num_locals

    def is_init(self, state: int, local: int) -> bool:
        """Is ``local`` maybe initialised in ``state``?"""
        return bool(state >> local & 1)

    def is_moved(self, state: int, local: int) -> bool:
        """Is ``local`` maybe moved out in ``state``?"""
        return bool(state >> (self.num_locals + local) & 1)

    def moved_out(self, state: int, local: int) -> bool:
        """Maybe moved out and not maybe initialised: definitely hollow."""
        return self.is_moved(state, local) and not self.is_init(state, local)

    def moved_out_locals(self, state: int) -> Iterator[int]:
        """The :meth:`moved_out` locals of ``state``, ascending."""
        n = self.num_locals
        return _bits((state >> n) & ~state & ((1 << n) - 1))

    def add_landing_pads(self, body: Body, first_pad: int) -> None:
        """Catch up with the landing pads unwind lowering appended to
        ``body`` from block ``first_pad`` on (the body's Cfg already
        extended).  A pad ends in ``RESUME``, so no other block's entry
        moves; each pad's entry is the union of its sites' exit states."""
        n = self.num_locals
        self.add_blocks(cfg_of(body), [
            _block_masks(block, n) for block in body.blocks[first_pad:]])


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _block_masks(block, n: int) -> Tuple[List[int], Mask]:
    """One block's flat statement ``gen, kill`` pairs and its
    terminator's pair."""
    statements: List[int] = []
    for stmt in block.statements:
        kind = stmt.kind
        gen = kill = 0
        if kind is StatementKind.ASSIGN:
            # Moves out of operand locals, then (re)initialises the
            # destination.
            if stmt.rvalue is not None:
                for op in stmt.rvalue.operands:
                    if op.is_move and op.place is not None \
                            and op.place.is_local:
                        local = op.place.local
                        gen = (gen | 1 << (n + local)) & ~(1 << local)
                        kill = (kill | 1 << local) & ~(1 << (n + local))
            if stmt.place.is_local:
                local = stmt.place.local
                gen = (gen | 1 << local) & ~(1 << (n + local))
                kill = (kill | 1 << (n + local)) & ~(1 << local)
        elif kind is StatementKind.DROP:
            if stmt.place.is_local:
                kill = 1 << stmt.place.local
        elif kind is StatementKind.STORAGE_LIVE \
                or kind is StatementKind.STORAGE_DEAD:
            kill = 1 << stmt.local | 1 << (n + stmt.local)
        statements += (gen, kill)
    gen = kill = 0
    term = block.terminator
    if term is not None and term.kind is TerminatorKind.CALL:
        for op in term.args:
            if op.is_move and op.place is not None and op.place.is_local:
                local = op.place.local
                gen = (gen | 1 << (n + local)) & ~(1 << local)
                kill = (kill | 1 << local) & ~(1 << (n + local))
        if term.destination is not None and term.destination.is_local:
            local = term.destination.local
            gen = (gen | 1 << local) & ~(1 << (n + local))
            kill = (kill | 1 << (n + local)) & ~(1 << local)
    return statements, (gen, kill)


def compute_init(body: Body) -> InitStates:
    """Solve maybe-init / maybe-moved for ``body`` (arguments are
    initialised at entry).  Use :func:`init_of` for the shared,
    once-per-body solution."""
    n = len(body.locals)
    masks = GenKill()
    for block in body.blocks:
        masks.add_block(*_block_masks(block, n))
    boundary = 0
    for local in body.locals:
        if local.is_arg:
            boundary |= 1 << local.index
    return InitStates(solve(cfg_of(body), masks, boundary), n)


def init_of(body: Body) -> InitStates:
    """The body's init solution, solved on first use and kept in its
    store (unwind lowering re-seeds it with its landing pads patched in)."""
    return store_of(body).memo("init", lambda: compute_init(body))

