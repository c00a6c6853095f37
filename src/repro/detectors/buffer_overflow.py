"""Buffer-overflow detector for unchecked accesses.

The paper found that 17/21 buffer-overflow bugs compute a size or index in
safe code and then perform the out-of-bounds access in unsafe code
(`get_unchecked`, raw-pointer offset) — the checks that would have caught
it are exactly the ones `unsafe` bypasses (§5.1).

Two rules:

* **definite overflow** — a constant index into a container whose length
  is a known constant (``vec![x; N]``, array literals) with ``index >= N``;
* **unguarded unchecked access** — ``get_unchecked`` / pointer-offset
  dereference whose index is not dominated by any comparison of that index
  against the container's length.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.scan import cfg_of, scan_of
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.cfg import Cfg
from repro.mir.nodes import (
    Body, BinOpKind, RvalueKind, StatementKind, TerminatorKind,
)

_UNCHECKED_OPS = {BuiltinOp.VEC_GET_UNCHECKED,
                  BuiltinOp.VEC_GET_UNCHECKED_MUT}
_CMP_OPS = {BinOpKind.LT, BinOpKind.LE, BinOpKind.GT, BinOpKind.GE,
            BinOpKind.EQ, BinOpKind.NE}


class BufferOverflowDetector(Detector):
    name = "buffer-overflow"
    description = ("Out-of-bounds or unguarded unchecked container access")
    paper_section = "5.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        # Both rules fire only at a `get_unchecked(_mut)` call: a body
        # without one skips the length, constant and dominance passes
        # (DESIGN.md §9, "Per-body facts on demand, on bitsets").
        scan = scan_of(body)
        unchecked = scan.calls_of(*_UNCHECKED_OPS)
        if not unchecked:
            return []
        findings: List[Finding] = []
        cfg = cfg_of(body)
        lengths = self._known_lengths(body)
        consts = self._const_locals(ctx, scan)
        guarded = self._guarded_blocks(body, scan, cfg)

        for bb, term in unchecked:
            if len(term.args) < 2 or term.args[0].place is None:
                continue
            recv_base, _ = resolve_ref_chain(body, term.args[0].place.local)
            index_op = term.args[1]
            index_value: Optional[int] = None
            index_local: Optional[int] = None
            if index_op.is_const and isinstance(index_op.constant.value, int):
                index_value = index_op.constant.value
            elif index_op.place is not None and index_op.place.is_local:
                index_local = index_op.place.local
                index_value = consts.get(index_local)

            length = lengths.get(recv_base)
            recv_name = body.locals[recv_base].name or f"_{recv_base}"
            if index_value is not None and length is not None:
                if index_value >= length:
                    findings.append(Finding(
                        detector=self.name, kind="buffer-overflow",
                        message=(f"`get_unchecked({index_value})` on "
                                 f"`{recv_name}` of length {length} reads "
                                 f"out of bounds"),
                        fn_key=body.key, span=term.span,
                        metadata={"index": index_value, "length": length,
                                  "definite": True}))
                continue
            if index_local is not None:
                if not self._index_guarded(scan, guarded, bb, index_local):
                    findings.append(Finding(
                        detector=self.name, kind="unguarded-unchecked",
                        message=(f"`get_unchecked` on `{recv_name}` with an "
                                 f"index that is never compared against the "
                                 f"container length (no bounds guard "
                                 f"dominates the access)"),
                        fn_key=body.key, span=term.span,
                        severity=Severity.WARNING,
                        metadata={"index_local": index_local,
                                  "definite": False}))
        return findings

    def _known_lengths(self, body: Body) -> Dict[int, int]:
        """Container local → constant length, where derivable."""
        scan = scan_of(body)
        lengths: Dict[int, int] = {}
        for bb, term in scan.calls_of(BuiltinOp.VEC_MACRO):
            if term.destination is not None \
                    and term.destination.is_local:
                if len(term.args) == 2 and term.args[1].is_const \
                        and isinstance(term.args[1].constant.value, int):
                    lengths[term.destination.local] = \
                        term.args[1].constant.value
                elif all(a.is_const or a.place is not None
                         for a in term.args) and len(term.args) != 2:
                    lengths[term.destination.local] = len(term.args)
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None \
                    and stmt.place.is_local:
                rv = stmt.rvalue
                if rv.kind is RvalueKind.AGGREGATE and \
                        rv.aggregate_kind is not None and \
                        rv.aggregate_kind.value == "array":
                    lengths[stmt.place.local] = len(rv.operands)
                elif rv.kind is RvalueKind.REPEAT and len(rv.operands) == 2 \
                        and rv.operands[1].is_const \
                        and isinstance(rv.operands[1].constant.value, int):
                    lengths[stmt.place.local] = rv.operands[1].constant.value
                elif rv.kind is RvalueKind.USE:
                    op = rv.operands[0]
                    if op.place is not None and op.place.is_local \
                            and op.place.local in lengths:
                        lengths[stmt.place.local] = lengths[op.place.local]
        return lengths

    def _const_locals(self, ctx: AnalysisContext, scan) -> Dict[int, int]:
        """Locals assigned a constant integer exactly once.  A call to a
        function whose summary has a ``const_return`` counts as a constant
        assignment, so indices computed by helpers propagate."""
        consts: Dict[int, Optional[int]] = {}

        def record(local: int, value: Optional[int]) -> None:
            if local in consts:
                consts[local] = None      # multiple assignments: unknown
            else:
                consts[local] = value

        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local:
                rv = stmt.rvalue
                value: Optional[int] = None
                if rv is not None and rv.kind is RvalueKind.USE \
                        and rv.operands[0].is_const \
                        and isinstance(rv.operands[0].constant.value, int):
                    value = rv.operands[0].constant.value
                record(stmt.place.local, value)
        for _bb, term in scan.calls:
            if term.destination is None \
                    or not term.destination.is_local:
                continue
            value = None
            if term.func.kind in (FuncKind.USER, FuncKind.CLOSURE):
                value = ctx.summary(term.func.user_fn).const_return
            record(term.destination.local, value)
        return {l: v for l, v in consts.items() if v is not None}

    def _guarded_blocks(self, body: Body, scan,
                        cfg: Cfg) -> Dict[int, Set[int]]:
        """index-local → blocks where a comparison involving it controls
        entry (i.e. blocks dominated by a comparison's switch)."""
        cmp_blocks: Dict[int, List[int]] = {}
        cmp_locals: Dict[int, Set[int]] = {}
        for bb, i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None \
                    and stmt.rvalue.kind is RvalueKind.BINARY \
                    and stmt.rvalue.bin_op in _CMP_OPS \
                    and stmt.place.is_local:
                involved = {op.place.local for op in stmt.rvalue.operands
                            if op.place is not None}
                cmp_locals.setdefault(stmt.place.local, set()).update(involved)
        guard: Dict[int, Set[int]] = {}
        for bb, term in scan.terminators:
            if term.kind is not TerminatorKind.SWITCH_INT or term.discr is None:
                continue
            if term.discr.place is None:
                continue
            involved = cmp_locals.get(term.discr.place.local)
            if not involved:
                continue
            for index_local in involved:
                blocks = guard.setdefault(index_local, set())
                for succ in term.successors():
                    for candidate in range(len(body.blocks)):
                        if cfg.dominates(succ, candidate):
                            blocks.add(candidate)
        # Assert-based guards (safe indexing emits these).
        for bb, term in scan.terminators:
            if term.kind is not TerminatorKind.ASSERT or term.cond is None \
                    or term.cond.place is None:
                continue
            involved = cmp_locals.get(term.cond.place.local)
            if not involved:
                continue
            for index_local in involved:
                blocks = guard.setdefault(index_local, set())
                if term.target is not None:
                    for candidate in range(len(body.blocks)):
                        if cfg.dominates(term.target, candidate):
                            blocks.add(candidate)
                    blocks.add(term.target)
        return guard

    def _index_guarded(self, scan, guarded, access_block: int,
                       index_local: int) -> bool:
        blocks = guarded.get(index_local, set())
        if access_block in blocks:
            return True
        # Follow one copy backwards: idx temp copied from a named local.
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local \
                    and stmt.place.local == index_local \
                    and stmt.rvalue is not None \
                    and stmt.rvalue.kind is RvalueKind.USE:
                op = stmt.rvalue.operands[0]
                if op.place is not None and op.place.is_local:
                    src_blocks = guarded.get(op.place.local, set())
                    if access_block in src_blocks:
                        return True
        return False
