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

from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple

from repro.analysis.dataflow import GenKill, Mask, Solution, solve
from repro.analysis.scan import cfg_of, scan_of
from repro.analysis.summaries import call_effect, value_chain
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.mir.nodes import Body, StatementKind

__all__ = ["UseAfterFreeDetector", "DanglingReturnDetector", "value_chain"]

_ALLOC_OPS = {
    BuiltinOp.BOX_NEW, BuiltinOp.RC_NEW, BuiltinOp.ARC_NEW,
    BuiltinOp.VEC_NEW, BuiltinOp.VEC_WITH_CAPACITY, BuiltinOp.VEC_MACRO,
    BuiltinOp.ALLOC, BuiltinOp.STRING_NEW, BuiltinOp.HASHMAP_NEW,
    BuiltinOp.VEC_FROM_RAW_PARTS,
}
_PTR_USE_OPS = {BuiltinOp.PTR_READ, BuiltinOp.PTR_WRITE, BuiltinOp.PTR_COPY,
                BuiltinOp.PTR_COPY_NONOVERLAPPING}


class FreedStates(NamedTuple):
    """The may-freed solution of one body.

    Bit ``l`` is ``("dropped", l)``, local ``l`` was dropped; bit
    ``heap_bits[site]`` is ``("heap", site)``, the allocation made at
    ``site`` was freed.  ``drop_reasons`` maps a fact to the ``(callee,
    arg position)`` whose summary frees it, for frees that happen inside
    a callee."""

    solution: Solution
    heap_bits: Dict[str, int]
    drop_reasons: Dict[Tuple, Tuple[str, int]]

    def before(self, bb: int, index: int) -> int:
        """The state before statement ``index`` of ``bb`` (empty if the
        block is unreachable)."""
        if not self.solution.reached(bb):
            return 0
        return self.solution.before(bb, index)

    def holds(self, state: int, fact: Tuple) -> bool:
        """Does ``state`` hold ``("dropped", l)`` or ``("heap", site)``?"""
        bit = fact[1] if fact[0] == "dropped" \
            else self.heap_bits.get(fact[1])
        return bit is not None and bool(state >> bit & 1)


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
        raw = scan.raw_ptr_locals
        if not raw:
            return []
        pt = ctx.points_to(body)
        ranges = ctx.storage_ranges(body)
        freed = self.freed_states(ctx, body, pt)

        # Every deref / pointer-escaping use of a raw pointer, as
        # ``(point, rank, pointer, span, reason)``.  Within a statement
        # the operands come first, then the rvalue's own place, then the
        # destination; a block's terminator follows its statements.
        uses = []
        for bb, i, stmt, place, is_write in scan.deref_places:
            if place.local in raw:
                uses.append(((bb, i), 2 if is_write else 0, place.local,
                             stmt.span, "dereferenced"))
        for bb, i, stmt, place in scan.rvalue_place_derefs:
            if place.local in raw:
                uses.append(((bb, i), 1, place.local, stmt.span,
                             "dereferenced"))
        for bb, term in scan.calls:
            point = (bb, len(body.blocks[bb].statements))
            func = term.func
            is_ptr_use = func.builtin_op in _PTR_USE_OPS
            escapes = func.kind in (FuncKind.USER, FuncKind.UNKNOWN) \
                or func.builtin_op is BuiltinOp.FFI
            for arg in term.args:
                place = arg.place
                if place is None or place.local not in raw:
                    continue
                if place.has_deref:
                    uses.append((point, 0, place.local, term.span,
                                 "dereferenced"))
                elif is_ptr_use or escapes:
                    uses.append((point, 0, place.local, term.span,
                                 "dereferenced" if is_ptr_use else
                                 f"passed to `{func.name}`"))
        uses.sort(key=itemgetter(0, 1))

        findings: List[Finding] = []
        for point, _rank, pointer, span, reason in uses:
            findings.extend(self._check_pointer(
                ctx, body, pt, ranges, freed, freed.before(*point), pointer,
                point, span, reason))
        return findings

    # -- freed-state dataflow ------------------------------------------------

    def freed_states(self, ctx: AnalysisContext, body: Body,
                     pt) -> FreedStates:
        """Forward may-freed facts, solved on :mod:`repro.analysis.dataflow`.

        Transfers: a ``DROP`` of a local that is not definitely moved out
        frees it and every allocation it owns (its value chain); an
        assignment to a local un-drops it; a call frees the local
        arguments it drops (:func:`~repro.analysis.summaries.call_effect`:
        ``mem::drop``, or a move into a callee whose summary drops it)
        likewise, and ``dealloc`` the allocations its arguments point to;
        a call's destination is un-dropped after the call.  Landing pads
        hold only ``DROP`` statements and end in ``RESUME``, so no state
        flows out of one and none is queried in one: they get no-op
        masks.

        ``drop_reasons`` records, per fact, the first call site in block
        order (argument order within a call) that frees it inside a
        callee, among the blocks reachable from the entry."""
        scan = scan_of(body)
        init = ctx.init_states(body)
        n = len(body.locals)

        # One bit per heap id: allocation sites, then dealloc-ed pointees.
        heap_bits: Dict[str, int] = {}
        owned: Dict[int, int] = {}      # local -> bits of the sites it owns
        for bb, term in scan.calls_of(*_ALLOC_OPS):
            if term.destination is not None and term.destination.is_local:
                site = f"{body.key}:{bb}"
                bit = 1 << heap_bits.setdefault(site, n + len(heap_bits))
                for local in value_chain(body, term.destination.local):
                    owned[local] = owned.get(local, 0) | bit

        pairs: Dict[int, List[int]] = {}
        row_bb, row = -1, None
        for bb, i, stmt in scan.statements:
            gen = kill = 0
            if stmt.kind is StatementKind.DROP and stmt.place.is_local:
                local = stmt.place.local
                if bb != row_bb:
                    row_bb = bb
                    row = init.states_in_block(bb) if init.reached(bb) \
                        else None
                if row is None or not init.moved_out(row[i], local):
                    gen = 1 << local | owned.get(local, 0)
            elif stmt.kind is StatementKind.ASSIGN and stmt.place.is_local:
                kill = 1 << stmt.place.local
            block_pairs = pairs.get(bb)
            if block_pairs is None:
                block_pairs = pairs[bb] = []
            block_pairs += (gen, kill)

        terminators: Dict[int, Mask] = {}
        reasons: List[Tuple] = []
        for bb, term in scan.calls:
            gen = kill = 0
            if term.func.builtin_op is BuiltinOp.DEALLOC:
                for arg in term.args:
                    if arg.place is None:
                        continue
                    for target in pt.targets(arg.place.local):
                        if target[0] == "heap":
                            gen |= 1 << heap_bits.setdefault(
                                target[1], n + len(heap_bits))
            else:
                for _j, place, hop in call_effect(term, ctx.summary).drops:
                    if not place.is_local:
                        continue
                    local = place.local
                    gen |= 1 << local | owned.get(local, 0)
                    if hop is None:
                        continue
                    # Freed inside the callee when it returns.
                    reasons.append((bb, ("dropped", local), hop))
                    for site, bit in heap_bits.items():
                        if owned.get(local, 0) >> bit & 1:
                            reasons.append((bb, ("heap", site), hop))
            if term.destination is not None and term.destination.is_local:
                kill = 1 << term.destination.local
            if gen or kill:
                terminators[bb] = (gen & ~kill, kill)

        cfg = cfg_of(body)
        masks = GenKill()
        for bb in range(cfg.num_blocks):
            masks.add_block(pairs.get(bb, ()), terminators.get(bb, (0, 0)))
        solution = solve(cfg, masks, 0)
        drop_reasons: Dict[Tuple, Tuple[str, int]] = {}
        for bb, fact, reason in reasons:
            if solution.reached(bb):
                drop_reasons.setdefault(fact, reason)
        return FreedStates(solution, heap_bits, drop_reasons)

    # -- deref checks -----------------------------------------------------------

    def _check_pointer(self, ctx, body, pt, ranges, freed: FreedStates,
                       state: int, pointer: int, point, span,
                       reason: str) -> List[Finding]:
        from repro.obs.provenance import fact
        findings: List[Finding] = []
        pointer_name = body.locals[pointer].name or f"_{pointer}"

        def chain_fact(freed_fact):
            """A summary-chain provenance fact when the free happened
            inside a callee (appended after the core facts)."""
            hop = freed.drop_reasons.get(freed_fact)
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
                elif freed.holds(state, ("dropped", local)):
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
                if freed.holds(state, ("heap", target[1])):
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
