"""Generic forward/backward dataflow framework over MIR.

Analyses subclass :class:`DataflowAnalysis` with set-typed states (a
powerset lattice joined by union or intersection) and per-statement /
per-terminator transfer functions; :func:`solve` runs a worklist to a fixed
point and returns block-entry states, from which per-statement states can
be replayed on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Generic, List, TypeVar

from repro.analysis.scan import cfg_of
from repro.mir.nodes import Body, Statement, Terminator

T = TypeVar("T")
State = FrozenSet[T]


class DataflowAnalysis(Generic[T]):
    """Base class: override the transfer functions and direction."""

    FORWARD = True
    #: ``union`` (may) or ``intersection`` (must) join.
    JOIN_UNION = True

    def __init__(self, body: Body) -> None:
        self.body = body
        self.cfg = cfg_of(body)

    # -- overridables --------------------------------------------------------

    def boundary_state(self) -> State:
        """State at function entry (forward) or exit (backward)."""
        return frozenset()

    def initial_state(self) -> State:
        """State assumed for not-yet-visited blocks."""
        if self.JOIN_UNION:
            return frozenset()
        return None   # "top": identity for intersection; handled in join

    def transfer_statement(self, state: State, stmt: Statement,
                           block: int, index: int) -> State:
        return state

    def transfer_terminator(self, state: State, term: Terminator,
                            block: int) -> State:
        return state

    # -- engine ----------------------------------------------------------------

    def join(self, states: List[State]) -> State:
        real = [s for s in states if s is not None]
        if not real:
            return frozenset()
        if self.JOIN_UNION:
            out = set()
            for s in real:
                out |= s
            return frozenset(out)
        out = set(real[0])
        for s in real[1:]:
            out &= s
        return frozenset(out)

    def transfer_block(self, state: State, block_index: int) -> State:
        block = self.body.blocks[block_index]
        if self.FORWARD:
            for i, stmt in enumerate(block.statements):
                state = self.transfer_statement(state, stmt, block_index, i)
            if block.terminator is not None:
                state = self.transfer_terminator(state, block.terminator,
                                                 block_index)
            return state
        if block.terminator is not None:
            state = self.transfer_terminator(state, block.terminator,
                                             block_index)
        for i in range(len(block.statements) - 1, -1, -1):
            state = self.transfer_statement(state, block.statements[i],
                                            block_index, i)
        return state


def solve(analysis: DataflowAnalysis) -> Dict[int, State]:
    """Run to fixpoint; returns block-*entry* states (forward) or
    block-*exit* states (backward)."""
    body = analysis.body
    cfg = analysis.cfg
    n = len(body.blocks)
    entry_states: Dict[int, State] = {}

    if analysis.FORWARD:
        preds = cfg.predecessors
        start_blocks = [0] if n else []
    else:
        preds = cfg.successors
        start_blocks = [b.index for b in body.blocks
                        if b.terminator is not None and
                        not b.terminator.successors()]

    for start in start_blocks:
        entry_states[start] = analysis.boundary_state()

    order = cfg.reverse_post_order()
    if not analysis.FORWARD:
        order = list(reversed(order))
    worklist = deque(order)
    in_worklist = set(worklist)

    while worklist:
        bb = worklist.popleft()
        in_worklist.discard(bb)
        incoming = [analysis.transfer_block(entry_states[p], p)
                    for p in preds[bb] if p in entry_states]
        if bb in start_blocks:
            incoming.append(analysis.boundary_state())
        if not incoming:
            if bb not in entry_states:
                entry_states[bb] = analysis.boundary_state() if bb in start_blocks \
                    else frozenset()
            continue
        new_state = analysis.join(incoming)
        if bb not in entry_states or entry_states[bb] != new_state:
            entry_states[bb] = new_state
            next_nodes = cfg.successors[bb] if analysis.FORWARD \
                else cfg.predecessors[bb]
            for nxt in next_nodes:
                if nxt not in in_worklist:
                    worklist.append(nxt)
                    in_worklist.add(nxt)
    return entry_states


def statement_states(analysis: DataflowAnalysis,
                     entry_states: Dict[int, State],
                     block_index: int) -> List[State]:
    """Replay one block, returning the state *before* each statement (and,
    as the final element, before the terminator) for a forward analysis."""
    assert analysis.FORWARD, "statement_states is for forward analyses"
    state = entry_states.get(block_index, frozenset())
    block = analysis.body.blocks[block_index]
    states = []
    for i, stmt in enumerate(block.statements):
        states.append(state)
        state = analysis.transfer_statement(state, stmt, block_index, i)
    states.append(state)
    return states
