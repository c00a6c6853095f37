"""The wait/wake query: can this blocking wait ever be woken?

A ``Condvar`` nobody notifies, a ``recv`` nobody feeds and a wait that
holds the lock its waker needs (the paper's §6.1 blocking bugs) are one
question about each ``Condvar::wait`` and ``recv`` site.  It is answered
once per :class:`~repro.detectors.base.AnalysisContext`
(:meth:`~repro.detectors.base.AnalysisContext.waits`): every wait gets
its identity (:func:`~repro.analysis.lockgraph.global_site_ids`), the
global locks held there (minus the guard a ``Condvar::wait`` releases)
and the ``notify_*``/``send`` sites in live functions whose identity
may match, then exactly one verdict, counted as ``waits.<verdict>``.
The ``condvar``, ``channel`` and ``deadlock`` detectors only emit the
verdicts; DESIGN.md §10 ("One wait/wake query") tabulates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro import obs
from repro.analysis import lockgraph
from repro.analysis.escape import translate_capture
from repro.analysis.lifetime import resolve_ref_chain
from repro.analysis.lockgraph import LockNode, global_site_ids
from repro.analysis.scan import scan_of
from repro.hir.builtins import BuiltinOp
from repro.mir.nodes import Body, Terminator

#: No matching live wake site (for a channel, a ``Sender`` is alive).
NO_WAKE = "no_wake"
#: No matching live ``send`` and no ``Sender`` alive: ``recv`` errs.
SENDER_DROPPED = "sender_dropped"
#: Some matching wake site takes no lock held at the wait.
WOKEN = "woken"
#: Every matching wake site takes one held lock, the identity resolves,
#: and (for a channel) some sender is on the other thread side.
WAKE_BLOCKED = "wake_blocked"
#: Some wake site takes a held lock, but not provably every one.
WAKE_MAYBE_BLOCKED = "wake_maybe_blocked"

NOTIFY_OPS = (BuiltinOp.CONDVAR_NOTIFY_ONE, BuiltinOp.CONDVAR_NOTIFY_ALL)

#: wait op → the ops that wake it.
WAKE_OPS = {BuiltinOp.CONDVAR_WAIT: NOTIFY_OPS,
            BuiltinOp.CHANNEL_RECV: (BuiltinOp.CHANNEL_SEND,)}


@dataclass
class Site:
    """One wait or wake call: where, on what, holding which locks."""

    body: Body
    block: int
    term: Terminator
    ids: FrozenSet[LockNode]
    held: FrozenSet[LockNode]
    #: Runs on a spawned thread (the thread-side test).
    spawned: bool


@dataclass
class Wait(Site):
    """A ``Condvar::wait`` / ``recv`` site and its one verdict."""

    #: The live wake sites whose identity may match, in walk order.
    wakes: List[Site] = field(default_factory=list)
    #: The ``wakes`` that take a lock held at the wait.
    blocked: List[Site] = field(default_factory=list)
    #: Held locks every wake site takes, sorted.
    blocking: List[LockNode] = field(default_factory=list)
    verdict: str = WOKEN


def build_waits(ctx) -> Dict[BuiltinOp, List[Wait]]:
    """Every ``Condvar::wait`` and ``recv`` with its verdict, per wait
    op, in :meth:`builtin_sites` order."""
    out: Dict[BuiltinOp, List[Wait]] = {}
    live = None
    for op, wake_ops in WAKE_OPS.items():
        waits = out[op] = []
        if not ctx.builtin_sites(op):
            continue
        if live is None:
            live = lockgraph.live_functions(ctx.engine)
        wakes = [_site(ctx, Site, body, bb, term)
                 for body, bb, term in ctx.builtin_sites(*wake_ops)
                 if body.key in live]
        for body, bb, term in ctx.builtin_sites(op):
            wait = _site(ctx, Wait, body, bb, term)
            wait.wakes = [site for site in wakes
                          if _may_match(wait.ids, site.ids)]
            wait.verdict = _verdict(ctx, wait)
            obs.count(f"waits.{wait.verdict}")
            waits.append(wait)
    return out


def _verdict(ctx, wait: Wait) -> str:
    is_recv = wait.term.func.builtin_op is BuiltinOp.CHANNEL_RECV
    if not wait.wakes:
        return NO_WAKE if not is_recv or _sender_alive(ctx, wait) \
            else SENDER_DROPPED
    wait.blocked = [site for site in wait.wakes if wait.held & site.held]
    if not wait.blocked:
        return WOKEN
    wait.blocking = sorted(wait.held.intersection(
        *(site.held for site in wait.wakes)))
    if wait.blocking and wait.ids - {lockgraph.OUTSIDE} and (
            not is_recv
            or any(site.spawned != wait.spawned for site in wait.wakes)):
        return WAKE_BLOCKED
    return WAKE_MAYBE_BLOCKED


def _may_match(a: FrozenSet, b: FrozenSet) -> bool:
    """Unresolved (empty) on either side matches anything."""
    return not a or not b or bool(a & b)


def _sender_alive(ctx, wait: Wait) -> bool:
    """Is a ``Sender`` local whose identity may match the recv's channel
    initialised at the recv, or, for a recv in a spawned closure, before
    a ``join`` in a function that spawns it?  A spawner that holds its
    ``Sender`` across the join keeps the channel open while it waits."""
    body = wait.body
    init = ctx.init_states(body)
    if _holds_sender(ctx, wait, body, init,
                     init.before_terminator(wait.block)):
        return True
    for spawn in ctx.thread_escape().sites_spawning(body.key):
        spawner = ctx.program.functions.get(spawn.spawner)
        if spawner is None:
            continue
        init = ctx.init_states(spawner)
        if any(_holds_sender(ctx, wait, spawner, init,
                             init.before_terminator(bb))
               for bb, _term in scan_of(spawner).calls_of(
                   BuiltinOp.THREAD_JOIN)):
            return True
    return False


def _holds_sender(ctx, wait: Wait, body: Body, init, state: int) -> bool:
    return any(
        local.ty.name in ("Sender", "SyncSender")
        and init.is_init(state, local.index)
        and _may_match(wait.ids, frozenset(
            global_site_ids(ctx.engine, body, local.index)))
        for local in body.locals)


def _site(ctx, cls, body: Body, bb: int, term) -> Site:
    """The call at ``bb``: its receiver's identity and the global lock
    nodes held before it.  Held locks come from the guard regions
    covering the call, with arg-relative ids (closure captures)
    resolved through every spawn site of this closure; a
    ``Condvar::wait`` releases the guard it is passed."""
    receiver = term.args[0].place if term.args else None
    ids = frozenset() if receiver is None \
        else frozenset(global_site_ids(ctx.engine, body, receiver.local))
    released = set()
    if term.func.builtin_op is BuiltinOp.CONDVAR_WAIT:
        for arg in term.args[1:]:
            if arg.place is not None and arg.place.is_local:
                released.add(arg.place.local)
                released.add(resolve_ref_chain(body, arg.place.local)[0])
    te = ctx.thread_escape()
    spawn_sites = te.sites_spawning(body.key) if body.is_closure else []
    point = (bb, len(body.blocks[bb].statements))
    held = set()
    for region in ctx.guard_regions(body):
        if region.is_try or not region.covers(point) \
                or region.guard_chain & released:
            continue
        for ident in region.lock_ids:
            if ident[0] in ("static", "heap"):
                held.add((ident[0], ident[1], tuple(ident[2])))
            elif ident[0] == "arg":
                for spawn in spawn_sites:
                    spawner = ctx.program.functions.get(spawn.spawner)
                    if spawner is not None:
                        held.update(translate_capture(
                            spawn, ctx.points_to(spawner),
                            ident[1], tuple(ident[2])))
    return cls(body, bb, term, ids, frozenset(held),
               body.key in te.thread_reachable)
