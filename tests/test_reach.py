"""``repro.analysis.dataflow.reach``, the one may-reachability closure.

:class:`TestReachPort` keeps the hand-written walks ``reach`` replaced
(value and guard chains, argument taint, unsafe births, the call-graph
closures, live functions, global escape targets, blocks after a spawn)
verbatim as references and checks that every port agrees with its
reference on every golden-ledger input.  :func:`test_no_new_fixpoint_loops`
keeps new ones from appearing.
"""

import ast
import os
from typing import Dict, FrozenSet, Set

from repro.analysis import escape, lockgraph
from repro.analysis.dataflow import reach
from repro.analysis.engine import SummaryEngine
from repro.analysis.lifetime import _guard_chain, _guardish_ty
from repro.analysis.scan import scan_of
from repro.analysis.summaries import value_chain
from repro.analysis.unsafe_prop import (
    _TAINT_FLOW, _TAINT_FLOW_CALLS, arg_taint, taint_seeds,
    unsafe_born_locals,
)
from repro.detectors.data_race import DataRaceDetector
from repro.driver import compile_source
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import RvalueKind, StatementKind

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


class TestReach:
    def test_seeds_are_included(self):
        assert reach([3], lambda node: ()) == {3}

    def test_follows_successors_and_stops_on_cycles(self):
        edges = {1: [2], 2: [3, 1], 3: [], 4: [1]}
        assert reach([1], edges.__getitem__) == {1, 2, 3}
        assert reach([4], edges.__getitem__) == {1, 2, 3, 4}

    def test_asks_each_node_once(self):
        asked = []
        edges = {1: [2, 3], 2: [3], 3: [1]}

        def successors(node):
            asked.append(node)
            return edges[node]

        reach([1, 2], successors)
        assert sorted(asked) == [1, 2, 3]


# ---------------------------------------------------------------------------
# The replaced walks, verbatim
# ---------------------------------------------------------------------------

_REFERENCE_VALUE_EXTRACT_OPS = frozenset({
    BuiltinOp.UNWRAP, BuiltinOp.EXPECT, BuiltinOp.TAKE,
    BuiltinOp.OK_METHOD})

_REFERENCE_GUARD_EXTRACT_OPS = {
    BuiltinOp.UNWRAP, BuiltinOp.EXPECT, BuiltinOp.OK_METHOD,
    BuiltinOp.TAKE, BuiltinOp.UNWRAP_OR}


def _reference_value_chain(scan, seed: int) -> Set[int]:
    ref_map = scan.ref_map
    extracts = scan.calls_of(*_REFERENCE_VALUE_EXTRACT_OPS)
    chain = {seed}
    changed = True
    while changed:
        changed = False
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local \
                    and stmt.rvalue is not None \
                    and stmt.rvalue.kind is RvalueKind.USE:
                op = stmt.rvalue.operands[0]
                if op.place is not None and op.place.is_local \
                        and op.place.local in chain \
                        and stmt.place.local not in chain \
                        and not op.place.projection:
                    chain.add(stmt.place.local)
                    changed = True
        for _bb, term in extracts:
            if term.args:
                arg = term.args[0]
                if arg.place is not None and arg.place.is_local:
                    src = ref_map.get(arg.place.local, arg.place.local)
                    if src in chain and term.destination is not None \
                            and term.destination.is_local \
                            and term.destination.local not in chain:
                        chain.add(term.destination.local)
                        changed = True
    return chain


def _reference_guard_chain(body, scan, seed: int) -> Set[int]:
    ref_map = scan.ref_map
    extracts = scan.calls_of(*_REFERENCE_GUARD_EXTRACT_OPS)
    chain = {seed}
    changed = True
    while changed:
        changed = False
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is StatementKind.ASSIGN and stmt.place.is_local \
                    and stmt.rvalue is not None \
                    and stmt.rvalue.kind is RvalueKind.USE:
                op = stmt.rvalue.operands[0]
                if op.place is not None \
                        and op.place.local in chain \
                        and stmt.place.local not in chain \
                        and _guardish_ty(body.local_ty(stmt.place.local)):
                    chain.add(stmt.place.local)
                    changed = True
        for _bb, term in extracts:
            if term.args:
                arg = term.args[0]
                if arg.place is not None and arg.place.is_local:
                    src = arg.place.local
                    src = ref_map.get(src, src)
                    if src in chain and term.destination is not None \
                            and term.destination.is_local \
                            and term.destination.local not in chain:
                        chain.add(term.destination.local)
                        changed = True
    return chain


def _reference_arg_taint(body) -> Dict[int, FrozenSet[int]]:
    scan = scan_of(body)
    taint: Dict[int, Set[int]] = {l: set(s)
                                  for l, s in taint_seeds(body).items()}
    if not taint:
        return {}

    def flow_into(dest: int, sources: Set[int]) -> bool:
        have = taint.setdefault(dest, set())
        if sources <= have:
            return False
        have |= sources
        return True

    changed = True
    while changed:
        changed = False
        for _bb, _i, stmt in scan.statements:
            if stmt.kind is not StatementKind.ASSIGN \
                    or not stmt.place.is_local or stmt.rvalue is None \
                    or stmt.rvalue.kind not in _TAINT_FLOW:
                continue
            incoming: Set[int] = set()
            for op in stmt.rvalue.operands:
                if op.place is not None:
                    incoming |= taint.get(op.place.local, set())
            if stmt.rvalue.place is not None:
                incoming |= taint.get(stmt.rvalue.place.local, set())
            if incoming and flow_into(stmt.place.local, incoming):
                changed = True
        for _bb, term in scan.calls:
            if term.func.builtin_op not in _TAINT_FLOW_CALLS \
                    or term.destination is None \
                    or not term.destination.is_local:
                continue
            incoming = set()
            for arg in term.args:
                if arg.place is not None:
                    incoming |= taint.get(arg.place.local, set())
            if incoming and flow_into(term.destination.local, incoming):
                changed = True
    return {local: frozenset(positions)
            for local, positions in taint.items() if positions}


def _reference_unsafe_born_locals(body, summaries=None) -> Set[int]:
    mints, copy_edges, call_edges = scan_of(body).born_skeleton
    born: Set[int] = set(mints)
    if summaries is not None:
        for dest, callee in call_edges:
            callee_summary = summaries.get(callee)
            if callee_summary is not None and \
                    callee_summary.unsafe_provenance.returns_unsafe_ptr:
                born.add(dest)
    if not born:
        return born
    changed = True
    while changed:
        changed = False
        for dest, sources in copy_edges:
            if dest not in born and any(s in born for s in sources):
                born.add(dest)
                changed = True
    return born


def _reference_transitive_callees(graph, key: str,
                                  include_spawned: bool = False) -> Set[str]:
    seen: Set[str] = set()
    stack = [key]
    while stack:
        node = stack.pop()
        nexts = set(graph.edges.get(node, set()))
        if include_spawned:
            nexts |= graph.spawn_edges.get(node, set())
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reference_reachable_from_spawn(graph) -> Set[str]:
    roots: Set[str] = set()
    for spawned in graph.spawn_edges.values():
        roots |= spawned
    result = set(roots)
    for root in roots:
        result |= _reference_transitive_callees(graph, root,
                                                include_spawned=True)
    return result


def _reference_live_functions(engine) -> Set[str]:
    graph = engine.call_graph
    live: Set[str] = set()
    stack = [key for key, body in engine.program.functions.items()
             if not body.is_closure]
    live.update(stack)
    while stack:
        key = stack.pop()
        for nxt in graph.edges.get(key, set()) \
                | graph.spawn_edges.get(key, set()):
            if nxt not in live:
                live.add(nxt)
                stack.append(nxt)
    return live


def _reference_global_targets(pt, local: int) -> Set:
    out: Set = set()
    seen: Set[int] = set()
    work = [local]
    while work:
        current = work.pop()
        if current in seen:
            continue
        seen.add(current)
        for t in pt.targets(current):
            if t[0] in ("heap", "static"):
                out.add((t[0], t[1]))
            elif t[0] == "local":
                work.append(t[1])
    return out


def _reference_blocks_after(body, spawn_blocks: Set[int]) -> Set[int]:
    work = []
    for bb in spawn_blocks:
        term = body.blocks[bb].terminator
        if term is not None:
            work.extend(term.successors())
    seen: Set[int] = set()
    while work:
        bb = work.pop()
        if bb in seen:
            continue
        seen.add(bb)
        term = body.blocks[bb].terminator
        if term is not None:
            work.extend(term.successors())
    return seen


#: A shape no ledger input has: argument taint that enters a local only
#: through a borrow of the argument (``_3 = &_2``, an ``Rvalue.place``).
_REACH_SHAPES = """
fn index_through_borrow(v: &Vec<i32>, i: usize) -> i32 {
    let r = &i;
    unsafe { *v.get_unchecked(*r) }
}
fn main() {
    let v = vec![1, 2, 3];
    print(index_through_borrow(&v, 1));
}
"""


class TestReachPort:
    """Every closure ported onto :func:`reach` equals its replaced walk
    on every golden-ledger input and on :data:`_REACH_SHAPES`
    (program-level closures once per program, per-body ones for every
    body, chains for every local)."""

    def test_matches_the_references_on_the_ledger_inputs(self):
        import golden_ledger

        seen = dict.fromkeys(
            ("long_value", "long_guard", "taint", "born", "spawners",
             "aliases"), 0)
        inputs = golden_ledger.ledger_inputs()
        inputs.append(("shapes", "shapes.rs", _REACH_SHAPES))
        for _ident, name, text in inputs:
            program = compile_source(text, name=name).program
            engine = SummaryEngine(program)
            summaries = engine.summaries_map()
            graph = engine.call_graph
            for key in program.functions:
                reference = _reference_transitive_callees(graph, key)
                assert reach(graph.callees(key), graph.callees) \
                    == reference, key
                assert reach((key,), graph.callees) == {key} | reference
            assert graph.reachable_from_spawn() \
                == _reference_reachable_from_spawn(graph), name
            assert lockgraph.live_functions(engine) \
                == _reference_live_functions(engine), name
            for body in program.bodies():
                scan = scan_of(body)
                for local in range(len(body.locals)):
                    chain = value_chain(body, local)
                    assert chain == _reference_value_chain(scan, local), \
                        (body.key, local)
                    guard = _guard_chain(body, local)
                    assert guard == _reference_guard_chain(
                        body, scan, local), (body.key, local)
                    seen["long_value"] += len(chain) > 1
                    seen["long_guard"] += len(guard) > 1
                taint = arg_taint(body)
                assert taint == _reference_arg_taint(body), body.key
                seen["taint"] += len(taint) > len(taint_seeds(body))
                for given in (None, summaries):
                    born = unsafe_born_locals(body, given)
                    assert born == _reference_unsafe_born_locals(
                        body, given), body.key
                    seen["born"] += bool(born)
                pt = engine.points_to(body)
                for local in range(len(body.locals)):
                    targets = escape._global_targets(pt, local)
                    assert targets == _reference_global_targets(
                        pt, local), (body.key, local)
                    seen["aliases"] += bool(targets)
            spawners: Dict[str, Set[int]] = {}
            for site in engine.thread_escape().spawn_sites:
                spawners.setdefault(site.spawner, set()).add(site.block)
            for key, blocks in spawners.items():
                body = program.functions[key]
                assert DataRaceDetector._blocks_after(body, blocks) \
                    == _reference_blocks_after(body, blocks), key
                seen["spawners"] += 1
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# No new hand-written closures
# ---------------------------------------------------------------------------

#: Functions in ``src/repro`` allowed a ``while changed:`` fixpoint,
#: with the reason each may.  Anything else that needs a closure calls
#: :func:`reach`, or argues its case here.
_FIXPOINT_ALLOWED = {
    ("repro.mir.cfg", "Cfg.immediate_dominators"):
        "Cooper-Harvey-Kennedy iterates an intersection to a fixpoint; "
        "dominance is not reachability",
    ("repro.analysis.points_to", "compute_points_to"):
        "Andersen-style load/store constraints add edges as the "
        "points-to sets grow, so the graph is not known up front",
}


def _fixpoint_loops():
    """``(module, qualified function)`` of every ``while changed:`` loop
    under ``src/repro``."""
    found = []
    for root, _dirs, files in os.walk(SRC):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, os.path.dirname(SRC))
            module = rel[:-3].replace(os.sep, ".")
            module = module[:-len(".__init__")] \
                if module.endswith(".__init__") else module
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())

            def visit(node, scope):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        visit(child, scope + [child.name])
                        continue
                    if isinstance(child, ast.While) \
                            and isinstance(child.test, ast.Name) \
                            and child.test.id == "changed":
                        found.append((module, ".".join(scope)))
                    visit(child, scope)

            visit(tree, [])
    return found


def test_no_new_fixpoint_loops():
    loops = _fixpoint_loops()
    assert loops, "the scan found no loop at all"
    unexpected = [loop for loop in loops if loop not in _FIXPOINT_ALLOWED]
    assert not unexpected, unexpected
