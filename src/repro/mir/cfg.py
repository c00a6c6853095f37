"""Control-flow-graph utilities over MIR bodies.

Provides predecessor/successor maps, reverse post-order, reachable
blocks and dominators (Cooper-Harvey-Kennedy) — the graph substrate
every dataflow analysis and detector builds on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.mir.nodes import Body


class Cfg:
    """Successor/predecessor view of one body, plus derived orders."""

    def __init__(self, body: Body) -> None:
        # No reference back to ``body``: the Cfg is cached on the body's
        # scan, and a back-reference would put every body in a cycle.
        self.num_blocks = len(body.blocks)
        self.successors: List[List[int]] = [[] for _ in range(self.num_blocks)]
        self.predecessors: List[List[int]] = [[] for _ in range(self.num_blocks)]
        for block in body.blocks:
            if block.terminator is None:
                continue
            for succ in block.terminator.successors():
                if succ is None or not (0 <= succ < self.num_blocks):
                    continue
                self.successors[block.index].append(succ)
                self.predecessors[succ].append(block.index)
        self._rpo: Optional[List[int]] = None
        self._idom: Optional[List[Optional[int]]] = None

    def add_landing_pads(self, body: Body, lowered) -> None:
        """Catch up in place with unwind lowering: the landing pads
        ``body`` grew, and the unwind edge of each ``(block, terminator)``
        in ``lowered`` (in block order).  The result equals a fresh
        build."""
        grown = len(body.blocks) - self.num_blocks
        self.successors.extend([] for _ in range(grown))
        self.predecessors.extend([] for _ in range(grown))
        self.num_blocks += grown
        for bb, term in lowered:
            pad = term.unwind
            if pad is not None and pad in term.successors():
                self.successors[bb].append(pad)
                self.predecessors[pad].append(bb)
        self._rpo = None
        self._idom = None

    # -- orders -------------------------------------------------------------

    def reverse_post_order(self) -> List[int]:
        if self._rpo is not None:
            return self._rpo
        visited: Set[int] = set()
        post: List[int] = []

        def dfs(start: int) -> None:
            stack = [(start, iter(self.successors[start]))]
            visited.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in visited:
                        visited.add(succ)
                        stack.append((succ, iter(self.successors[succ])))
                        advanced = True
                        break
                if not advanced:
                    post.append(node)
                    stack.pop()

        if self.num_blocks:
            dfs(0)
        self._rpo = list(reversed(post))
        return self._rpo

    def reachable_blocks(self) -> Set[int]:
        return set(self.reverse_post_order())

    # -- dominators ------------------------------------------------------------

    def immediate_dominators(self) -> List[Optional[int]]:
        """Cooper-Harvey-Kennedy iterative dominator computation."""
        if self._idom is not None:
            return self._idom
        rpo = self.reverse_post_order()
        order_index = {bb: i for i, bb in enumerate(rpo)}
        idom: List[Optional[int]] = [None] * self.num_blocks
        if not rpo:
            self._idom = idom
            return idom
        entry = rpo[0]
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for bb in rpo[1:]:
                preds = [p for p in self.predecessors[bb]
                         if idom[p] is not None and p in order_index]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom,
                                               order_index)
                if idom[bb] != new_idom:
                    idom[bb] = new_idom
                    changed = True
        self._idom = idom
        return idom

    @staticmethod
    def _intersect(a: int, b: int, idom: List[Optional[int]],
                   order: Dict[int, int]) -> int:
        while a != b:
            while order.get(a, -1) > order.get(b, -1):
                a = idom[a]
            while order.get(b, -1) > order.get(a, -1):
                b = idom[b]
        return a

    def dominates(self, a: int, b: int) -> bool:
        idom = self.immediate_dominators()
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            parent = idom[node]
            if parent == node:
                return node == a
            node = parent
        return False
