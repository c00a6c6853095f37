"""Forward gen/kill dataflow over int bitsets.

The per-body analyses (maybe-init/moved in :mod:`repro.analysis.init`,
storage liveness in :mod:`repro.analysis.lifetime`, the use-after-free
detector's freed state in :mod:`repro.detectors.use_after_free`) are
may-analyses whose transfer functions have the gen/kill shape ``out =
(in & ~kill) | gen``.  This module is their one solver, after rustc's
``rustc_mir_dataflow`` (``BitSet`` + ``GenKill``):

* a state is a Python ``int`` used as a bitset, one bit per fact;
* :class:`GenKill` holds one ``(gen, kill)`` pair per statement, plus
  their composition per block (the statements alone, and with the
  terminator), built once per body and stored flat in int lists;
* :func:`solve` runs a union worklist over the body's :class:`Cfg` in
  reverse post-order and keeps only the block-entry states;
* a per-point question replays one block from its entry state
  (:meth:`Solution.before`); no per-point state is stored.

Only blocks reachable from the entry get a state.  Since a landing pad
ends in ``RESUME`` and has no successors, adding one after solving
changes no other block's entry: :meth:`Solution.add_blocks` patches each
new block in as the union of its predecessors' exit states.

The module also holds the one may-reachability closure,
:func:`reach`: where a value can flow inside a body (value, guard and
taint chains, unsafe births), which functions a call graph reaches,
which blocks follow a spawn.  Each caller supplies its own successor
function; none writes its own worklist.
"""

from __future__ import annotations

from typing import (
    Callable, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from repro.mir.cfg import Cfg

Mask = Tuple[int, int]          # (gen, kill)
Node = TypeVar("Node")


def reach(seeds: Iterable[Node],
          successors: Callable[[Node], Iterable[Node]]) -> Set[Node]:
    """The seeds plus every node reachable from them along
    ``successors`` (depth-first; each node's successors are asked for
    once)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for node in successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


class GenKill:
    """Gen/kill masks of one body: one ``(gen, kill)`` pair per statement,
    and per block the statements composed (entry to before the
    terminator) and the whole block (entry to exit).

    Pairs are stored flat, ``gen`` then ``kill``, in lists of ints: a
    body's masks are a handful of objects however long it is, so keeping
    a solution alive costs the cyclic collector nothing per statement."""

    __slots__ = ("offsets", "statements", "head", "block")

    def __init__(self) -> None:
        #: block ``bb``'s pairs are ``statements[offsets[bb]:offsets[bb + 1]]``
        self.offsets: List[int] = [0]
        self.statements: List[int] = []
        self.head: List[int] = []
        self.block: List[int] = []

    def add_block(self, statements: Sequence[int], terminator: Mask) -> None:
        """Append a block: its statements' flat ``gen, kill`` pairs, and
        its terminator's pair."""
        gen = kill = 0
        for j in range(0, len(statements), 2):
            gen = (gen & ~statements[j + 1]) | statements[j]
            kill |= statements[j + 1]
        self.statements.extend(statements)
        self.offsets.append(len(self.statements))
        self.head += (gen, kill)
        term_gen, term_kill = terminator
        self.block += ((gen & ~term_kill) | term_gen, kill | term_kill)


class Solution:
    """Block-entry states of one solved body (``None``: unreached)."""

    __slots__ = ("masks", "entry")

    def __init__(self, masks: GenKill, entry: List[Optional[int]]) -> None:
        self.masks = masks
        self.entry = entry

    def reached(self, bb: int) -> bool:
        return bb < len(self.entry) and self.entry[bb] is not None

    def before(self, bb: int, index: int) -> int:
        """The state before statement ``index`` of ``bb`` (``index ==
        len(statements)``: before the terminator), replayed from an empty
        entry if ``bb`` is unreached."""
        masks = self.masks
        start = masks.offsets[bb]
        stop = start + 2 * index
        if stop >= masks.offsets[bb + 1]:
            return self.before_terminator(bb)
        state = self.entry[bb] or 0
        pairs = masks.statements
        for j in range(start, stop, 2):
            state = (state & ~pairs[j + 1]) | pairs[j]
        return state

    def before_terminator(self, bb: int) -> int:
        """The state before ``bb``'s terminator (from an empty entry if
        unreached)."""
        head = self.masks.head
        return ((self.entry[bb] or 0) & ~head[2 * bb + 1]) | head[2 * bb]

    def states_in_block(self, bb: int) -> List[int]:
        """The state before each statement of ``bb``, then before its
        terminator."""
        masks = self.masks
        pairs = masks.statements
        state = self.entry[bb] or 0
        states = [state]
        for j in range(masks.offsets[bb], masks.offsets[bb + 1], 2):
            state = (state & ~pairs[j + 1]) | pairs[j]
            states.append(state)
        return states

    def exit(self, bb: int) -> int:
        """The state after ``bb``'s terminator (from an empty entry if
        unreached)."""
        block = self.masks.block
        return ((self.entry[bb] or 0) & ~block[2 * bb + 1]) | block[2 * bb]

    def add_blocks(self, cfg: Cfg, masks: Sequence[
            Tuple[Sequence[int], Mask]]) -> None:
        """Patch in blocks appended to the body after solving, with
        ``cfg`` already extended to them (``masks`` as for
        :meth:`GenKill.add_block`).  Each new block must have no
        successors; its entry is the union of its reached predecessors'
        exit states."""
        first = len(self.entry)
        for statements, terminator in masks:
            self.masks.add_block(statements, terminator)
        for bb in range(first, first + len(masks)):
            assert not cfg.successors[bb], "patched block has successors"
            state = None
            for pred in cfg.predecessors[bb]:
                if pred < first and self.entry[pred] is not None:
                    state = (state or 0) | self.exit(pred)
            self.entry.append(state)


def solve(cfg: Cfg, masks: GenKill, boundary: int) -> Solution:
    """The least fixed point of a forward union analysis: ``boundary`` at
    the entry block, each block's exit state flowing into its
    successors.  Sweeps the blocks in reverse post-order while some
    block's entry changed since it was last visited (one sweep for an
    acyclic body)."""
    n = cfg.num_blocks
    entry: List[Optional[int]] = [None] * n
    if not n:
        return Solution(masks, entry)
    entry[0] = boundary
    order = cfg.reverse_post_order()
    successors = cfg.successors
    block = masks.block
    dirty = [False] * n
    dirty[0] = True
    pending = 1
    while pending:
        for bb in order:
            if not dirty[bb]:
                continue
            dirty[bb] = False
            pending -= 1
            out = (entry[bb] & ~block[2 * bb + 1]) | block[2 * bb]
            for succ in successors[bb]:
                old = entry[succ]
                if old is None:
                    entry[succ] = out
                elif old | out != old:
                    entry[succ] = old | out
                else:
                    continue
                if not dirty[succ]:
                    dirty[succ] = True
                    pending += 1
    return Solution(masks, entry)
