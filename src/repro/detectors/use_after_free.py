"""Use-after-free detector (the paper's first detector, §7.1).

Mirrors the paper's construction: "Our detector maintains the state of
each variable (alive or dead) by monitoring when MIR calls StorageLive or
StorageDead on the variable.  For each pointer/reference, we conduct a
'points-to' analysis [...].  When a pointer/reference is dereferenced, our
tool checks if the object it points to is dead and reports a bug if so."

Three ways a pointee can be dead at a deref:

* **stack storage dead** — the pointed-to local's storage range has ended
  (pointer outlived a scoped value, e.g. the Figure 7 temporary);
* **value dropped** — an explicit ``drop``/``Drop`` ran on the owner while
  the raw pointer still aliases its heap allocation;
* **heap freed** — the allocation's owner chain was dropped or the memory
  was ``dealloc``-ated.

Pointers that *escape* into calls (FFI or user functions) while dangling
are reported too — that is exactly the Figure 7 ``CMS_sign(p)`` shape.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.scan import scan_of
from repro.analysis.summaries import value_chain
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.nodes import (
    Body, Operand, Place, RvalueKind, StatementKind, TerminatorKind,
)

__all__ = ["UseAfterFreeDetector", "DanglingReturnDetector", "value_chain"]

_ALLOC_OPS = {
    BuiltinOp.BOX_NEW, BuiltinOp.RC_NEW, BuiltinOp.ARC_NEW,
    BuiltinOp.VEC_NEW, BuiltinOp.VEC_WITH_CAPACITY, BuiltinOp.VEC_MACRO,
    BuiltinOp.ALLOC, BuiltinOp.STRING_NEW, BuiltinOp.HASHMAP_NEW,
    BuiltinOp.VEC_FROM_RAW_PARTS,
}
_PTR_USE_OPS = {BuiltinOp.PTR_READ, BuiltinOp.PTR_WRITE, BuiltinOp.PTR_COPY,
                BuiltinOp.PTR_COPY_NONOVERLAPPING}


class UseAfterFreeDetector(Detector):
    name = "use-after-free"
    description = ("Deref or escape of a raw pointer whose pointee's "
                   "storage has died, been dropped, or been freed")
    paper_section = "7.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        # Every finding is a deref or escape of a raw-pointer local, so a
        # body without one holds nothing to check (DESIGN.md §9,
        # "One walk per body").
        scan = scan_of(body)
        if not scan.raw_ptr_locals:
            return []
        findings: List[Finding] = []
        pt = ctx.points_to(body)
        ranges = ctx.storage_ranges(body)
        init = ctx.init_states(body)

        # Heap allocation sites and their owner chains.
        site_chains: Dict[str, Set[int]] = {}
        for bb, term in scan.calls_of(*_ALLOC_OPS):
            if term.destination is not None \
                    and term.destination.is_local:
                site = f"{body.key}:{bb}"
                site_chains[site] = value_chain(body, term.destination.local)

        freed, drop_reasons = self._compute_freed(
            ctx, body, pt, site_chains, init)

        # Scan every deref / pointer-escaping use.
        for block in body.blocks:
            bb = block.index
            for i, stmt in enumerate(block.statements):
                point = (bb, i)
                state = freed.get(point, frozenset())
                if stmt.kind is StatementKind.ASSIGN and stmt.rvalue is not None:
                    for place in self._rvalue_deref_places(body, stmt.rvalue):
                        findings.extend(self._check_deref(
                            ctx, body, pt, ranges, state, place, point,
                            stmt.span, drop_reasons))
                    if stmt.place.has_deref:
                        findings.extend(self._check_deref(
                            ctx, body, pt, ranges, state, stmt.place, point,
                            stmt.span, drop_reasons))
            term = block.terminator
            if term is None or term.kind is not TerminatorKind.CALL:
                continue
            point = (bb, len(block.statements))
            state = freed.get(point, frozenset())
            func = term.func
            for arg in term.args:
                if arg.place is None:
                    continue
                base_ty = body.local_ty(arg.place.local)
                if arg.place.has_deref:
                    findings.extend(self._check_deref(
                        ctx, body, pt, ranges, state, arg.place, point,
                        term.span, drop_reasons))
                    continue
                if not base_ty.is_raw_ptr:
                    continue
                is_ptr_use = func is not None and \
                    func.builtin_op in _PTR_USE_OPS
                escapes = func is not None and (
                    func.kind in (FuncKind.USER, FuncKind.UNKNOWN)
                    or func.builtin_op is BuiltinOp.FFI)
                if is_ptr_use or escapes:
                    findings.extend(self._check_pointer(
                        ctx, body, pt, ranges, state, arg.place.local, point,
                        term.span,
                        reason="dereferenced" if is_ptr_use else
                        f"passed to `{func.name}`",
                        drop_reasons=drop_reasons))
        return findings

    # -- freed-state dataflow ------------------------------------------------

    def _compute_freed(self, ctx, body: Body, pt, site_chains, init):
        """Forward may-freed facts per program point.

        Facts: ``("heap", site)`` and ``("dropped", local)``.  Returns
        ``(point_states, drop_reasons)`` where ``drop_reasons`` maps a
        fact to the ``(callee, arg position)`` whose summary freed it —
        present only for frees that happen inside a callee.
        """
        drop_reasons: Dict[Tuple, Tuple[str, int]] = {}
        chain_of: Dict[int, List[str]] = {}
        for site, chain in site_chains.items():
            for local in chain:
                chain_of.setdefault(local, []).append(site)

        entry: Dict[int, Set] = {0: set()}
        point_states: Dict[Tuple[int, int], FrozenSet] = {}
        worklist = deque([0])
        visited: Dict[int, Set] = {}

        while worklist:
            bb = worklist.popleft()
            state = set(entry.get(bb, set()))
            prev = visited.get(bb)
            if prev is not None and state <= prev:
                continue
            visited[bb] = set(state) | (prev or set())
            block = body.blocks[bb]
            init_states = None
            if init.reached(bb):
                init_states = init.states_in_block(bb)
            for i, stmt in enumerate(block.statements):
                point_states[(bb, i)] = frozenset(
                    point_states.get((bb, i), frozenset()) | state)
                if stmt.kind is StatementKind.DROP and stmt.place.is_local:
                    local = stmt.place.local
                    definitely_moved = False
                    if init_states is not None:
                        definitely_moved = init.moved_out(init_states[i],
                                                          local)
                    if not definitely_moved:
                        state.add(("dropped", local))
                        for site in chain_of.get(local, []):
                            state.add(("heap", site))
                elif stmt.kind is StatementKind.ASSIGN and stmt.place.is_local:
                    state.discard(("dropped", stmt.place.local))
            term = block.terminator
            term_point = (bb, len(block.statements))
            point_states[term_point] = frozenset(
                point_states.get(term_point, frozenset()) | state)
            if term is not None and term.kind is TerminatorKind.CALL \
                    and term.func is not None:
                op = term.func.builtin_op
                if op is BuiltinOp.MEM_DROP:
                    for arg in term.args:
                        if arg.place is not None and arg.place.is_local:
                            local = arg.place.local
                            state.add(("dropped", local))
                            for site in chain_of.get(local, []):
                                state.add(("heap", site))
                elif op is BuiltinOp.DEALLOC:
                    for arg in term.args:
                        if arg.place is None:
                            continue
                        for target in pt.targets(arg.place.local):
                            if target[0] == "heap":
                                state.add(("heap", target[1]))
                elif op is BuiltinOp.MEM_FORGET:
                    # forget suppresses the drop: un-free nothing, but the
                    # owner no longer frees at scope end — nothing to do in
                    # a may-analysis.
                    pass
                elif term.func.kind in (FuncKind.USER, FuncKind.CLOSURE) \
                        and op is not BuiltinOp.THREAD_SPAWN:
                    # The callee's summary says it drops an argument we
                    # moved into it: the value is freed when it returns.
                    callee = term.func.user_fn
                    summary = ctx.summary(callee)
                    for j, arg in enumerate(term.args):
                        if arg.place is None or not arg.place.is_local \
                                or not arg.is_move \
                                or not summary.drops_arg(j):
                            continue
                        local = arg.place.local
                        state.add(("dropped", local))
                        drop_reasons[("dropped", local)] = (callee, j)
                        for site in chain_of.get(local, []):
                            state.add(("heap", site))
                            drop_reasons[("heap", site)] = (callee, j)
                if term.destination is not None and term.destination.is_local:
                    state.discard(("dropped", term.destination.local))
            if term is not None:
                for succ in term.successors():
                    prev_in = entry.get(succ)
                    if prev_in is None:
                        entry[succ] = set(state)
                        worklist.append(succ)
                    elif not state <= prev_in:
                        prev_in |= state
                        worklist.append(succ)
        return point_states, drop_reasons

    # -- deref checks -----------------------------------------------------------

    def _rvalue_deref_places(self, body: Body, rvalue) -> List[Place]:
        places = []
        for op in rvalue.operands:
            if op.place is not None and op.place.has_deref:
                places.append(op.place)
        if rvalue.place is not None and rvalue.place.has_deref:
            places.append(rvalue.place)
        return places

    def _check_deref(self, ctx, body, pt, ranges, freed_state, place: Place,
                     point, span, drop_reasons=None) -> List[Finding]:
        base_ty = body.local_ty(place.local)
        if not base_ty.is_raw_ptr:
            return []
        return self._check_pointer(ctx, body, pt, ranges, freed_state,
                                   place.local, point, span,
                                   reason="dereferenced",
                                   drop_reasons=drop_reasons)

    def _check_pointer(self, ctx, body, pt, ranges, freed_state,
                       pointer: int, point, span, reason: str,
                       drop_reasons=None) -> List[Finding]:
        from repro.obs.provenance import fact
        findings: List[Finding] = []
        pointer_name = body.locals[pointer].name or f"_{pointer}"

        def chain_fact(freed_fact):
            """A summary-chain provenance fact when the free happened
            inside a callee (appended after the core facts)."""
            hop = (drop_reasons or {}).get(freed_fact)
            if hop is None:
                return None
            callee, position = hop
            chain = [body.key] + ctx.drop_chain(callee, position)
            return fact("summary-chain",
                        f"summary engine: `{callee}` may drop its "
                        f"argument {position}; the value is freed along "
                        f"{' → '.join(chain)}",
                        chain=chain, callee=callee, position=position)

        def use_fact():
            return fact("pointer-use",
                        f"`{pointer_name}` {reason} at block {point[0]}, "
                        f"statement {point[1]}",
                        fn=body.key, point=point)

        for target in pt.targets(pointer):
            target_desc = " ".join(str(part) for part in target)
            edge = fact("points-to",
                        f"points-to analysis: `{pointer_name}` may point "
                        f"to {target_desc}",
                        pointer=pointer_name, target=target)
            if target[0] == "local":
                local = target[1]
                if body.locals[local].is_arg:
                    continue
                if not ranges.is_live_at(local, point):
                    target_name = body.locals[local].name or f"_{local}"
                    findings.append(Finding(
                        detector=self.name, kind="use-after-free",
                        message=(f"pointer `{pointer_name}` {reason} after "
                                 f"its pointee `{target_name}`'s storage is "
                                 f"dead (pointer outlived the value)"),
                        fn_key=body.key, span=span,
                        metadata={"pointer": pointer, "target": local,
                                  "mode": "storage-dead"},
                        provenance=[
                            edge,
                            fact("storage-dead",
                                 f"storage-range analysis: `{target_name}`'s "
                                 f"StorageDead precedes this point",
                                 local=target_name, point=point),
                            use_fact()]))
                elif ("dropped", local) in freed_state:
                    target_name = body.locals[local].name or f"_{local}"
                    provenance = [
                        edge,
                        fact("freed-state",
                             f"may-freed dataflow: `{target_name}` was "
                             f"dropped on a path reaching this point",
                             state="dropped", local=target_name),
                        use_fact()]
                    extra = chain_fact(("dropped", local))
                    if extra is not None:
                        provenance.append(extra)
                    findings.append(Finding(
                        detector=self.name, kind="use-after-free",
                        message=(f"pointer `{pointer_name}` {reason} after "
                                 f"`{target_name}` was dropped"),
                        fn_key=body.key, span=span,
                        metadata={"pointer": pointer, "target": local,
                                  "mode": "dropped"},
                        provenance=provenance))
            elif target[0] == "heap":
                if ("heap", target[1]) in freed_state:
                    provenance = [
                        edge,
                        fact("freed-state",
                             f"may-freed dataflow: allocation site "
                             f"{target[1]} is freed on a path reaching "
                             f"this point",
                             state="heap-freed", site=target[1]),
                        use_fact()]
                    extra = chain_fact(("heap", target[1]))
                    if extra is not None:
                        provenance.append(extra)
                    findings.append(Finding(
                        detector=self.name, kind="use-after-free",
                        message=(f"pointer `{pointer_name}` {reason} after "
                                 f"its heap allocation was freed"),
                        fn_key=body.key, span=span,
                        metadata={"pointer": pointer, "site": target[1],
                                  "mode": "heap-freed"},
                        provenance=provenance))
        return findings


class DanglingReturnDetector(Detector):
    """Returning a pointer into the function's own dead frame.

    The complementary inter-procedural shape to Figure 7: instead of a
    caller outliving a callee temporary, the callee itself hands out
    ``&local as *const T``.  Rust's borrow checker rejects the reference
    form; the raw-pointer form compiles and is UB to use.
    """

    name = "dangling-return"
    description = ("Function returns a raw pointer into its own stack "
                   "frame")
    paper_section = "7.1"

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        if not body.ret_ty.is_raw_ptr:
            return []
        pt = ctx.points_to(body)
        findings: List[Finding] = []
        for target in pt.targets(0):
            if target[0] != "local":
                continue
            local = target[1]
            info = body.locals[local]
            if info.is_arg or local == 0:
                continue
            if (info.name or "").startswith("static:"):
                continue
            name = info.name or f"_{local}"
            from repro.obs.provenance import fact
            findings.append(Finding(
                detector=self.name, kind="dangling-return",
                message=(f"returns a raw pointer into local `{name}`, "
                         f"whose stack storage dies when the function "
                         f"returns"),
                fn_key=body.key, span=body.span,
                metadata={"local": local},
                provenance=[
                    fact("points-to",
                         f"points-to analysis: the return place may point "
                         f"to local `{name}`",
                         pointer="_0", target=("local", local)),
                    fact("frame-death",
                         f"`{name}` lives in `{body.key}`'s own stack "
                         f"frame, which dies at return",
                         fn=body.key, local=name)]))
            break
        return findings
