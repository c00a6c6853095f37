"""Per-function summaries: the facts the :class:`SummaryEngine` composes.

Zhou et al. (arXiv 2310.10298) and Zhang et al. (arXiv 2401.01114) both
scale whole-program unsafe-memory / deadlock analysis the same way: walk
the call graph bottom-up and compute, once per function, a *summary* that
callers can apply at their call sites without re-analysing the callee.
:class:`FunctionSummary` is our summary lattice; every field is a may-set
(or a flag that only flips ``False → True``), so iterating a strongly
connected component of the call graph to a fixpoint converges exactly.

Fields and their join direction:

* ``returns`` — what the return value may alias: argument positions
  (ints), ``"null"``, ``"heap"`` (a fresh allocation made somewhere in the
  call tree), ``"unknown"``.
* ``const_return`` — the constant integer the function always returns, if
  any (feeds the buffer-overflow detector's constant propagation).
* ``may_drop_args`` — argument positions whose (by-value, droppable) value
  may be dropped by the time the function returns, by the ownership-fate
  query (:func:`chain_fate` of the argument's value chain); the value is
  the next ``(function, arg position)`` hop of the drop chain, with a
  self-hop ``(own key, position)`` meaning "dropped in this very body".
* ``arg_escapes`` — argument positions whose value :func:`chain_fate`
  finds handed to unknown/FFI code; same hop encoding.
* ``locks`` — caller-translatable locks the function may acquire
  (transitively, same thread); the value is ``None`` for a direct
  acquisition or the ``(callee, callee lock)`` hop it came through.
* ``locks_held_on_return`` — locks still held when the function returns
  (a returned guard), in the same 4-tuple id format.
* ``acquires_any_lock`` — does any lock acquisition happen in the call
  tree (used by interior-mutability suppression)?
* ``calls_unknown`` — does the call tree reach FFI or an unresolved
  function?  The soundness fallback bit: facts about such functions are
  lower-bounds only.
* ``unsafe_provenance`` — the unsafe-provenance component (paper §5.3):
  which arguments may reach an unsafe deref/index/offset unguarded, which
  are sanitised by a dominating check, which are delegated to unsafe
  callees, and whether the return value carries a raw pointer born in an
  unsafe region.  See :mod:`repro.analysis.unsafe_prop`.
* ``lock_orders`` — ordered lock-acquisition pairs observed in the call
  tree, in caller-translatable 4-tuple ids: ``(first, second) → span``
  means the function may acquire ``second`` while holding ``first``.
  Ids are ``"arg"`` (translated per call site), ``"static"``, or
  ``"heap"`` — heap allocation-site ids are program-unique
  (``"fnkey:bb"``), so a pair over Arc-allocated mutexes stays globally
  identifiable as it propagates up the call chain.  Composing these
  through call sites is what lets the lock-order detector see an ABBA
  cycle whose two acquisitions live in a helper taking both locks as
  arguments, and what gives the cross-thread lock graph
  (:mod:`repro.analysis.lockgraph`) its per-thread-root edges.
* ``shared_accesses`` — the "accesses-shared-under-locks" component: every
  read/write the call tree performs through a pointer to potentially
  thread-shared data, keyed by :data:`AccessKey` ``(location, is_write,
  lockset)``.  The location is caller-translatable (``("arg", pos, proj)``)
  or globally identifiable (``("heap", site, proj)`` / ``("static", name,
  proj)``); the lockset is the set of lock ids (the 4-tuple format, heap
  ids included) held at the access — composed callee accesses gain the
  locks the caller holds at the call site, which is how protection through
  helper functions is seen.  The value is ``(hop, span)``: the
  ``(callee, callee access key)`` hop the entry came through (``None``
  when direct) and the span of the access / call site.

* ``panic`` — the panic-effects component (:mod:`repro.analysis.panic`):
  a may-panic bit with its source vocabulary and hop provenance, the
  moved-out-not-reinitialised window at this body's panic points, and
  the drop obligations live on unwind.  What the ``panic-safety`` /
  ``bad-drop`` detectors and ``panic_chain`` provenance consume.

Lock ids are the caller-translatable 4-tuples of
:func:`repro.analysis.callgraph.direct_locks`:
``(kind_of_id, payload, projection, lock_kind)`` with ``kind_of_id`` one
of ``"arg"`` / ``"static"`` / ``"heap"`` (heap ids only appear after the
engine resolves an arg-relative lock through points-to).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.dataflow import reach
from repro.analysis.panic import PanicEffects
from repro.analysis.scan import OWNER_EXTRACT_OPS, BodyScan, scan_of
from repro.analysis.unsafe_prop import UnsafeProvenance
from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.source import Span
from repro.mir.nodes import Body, Place, Terminator

#: ``(kind_of_id, payload, projection, lock_kind)``.
LockId = Tuple

#: One hop of a cross-function effect chain: (function key, arg position).
EffectHop = Tuple[str, int]

#: Shared-access summary key: ``(location, is_write, lockset)`` where
#: location is ``("arg", pos, proj)`` / ``("heap", site, proj)`` /
#: ``("static", name, proj)`` and lockset is a frozenset of lock ids.
AccessKey = Tuple


@dataclass(slots=True)
class FunctionSummary:
    """Composable interprocedural facts about one function.

    ``slots=True``: summaries are the densest objects the solve
    allocates (one per function per worklist iteration) — slots drop the
    per-instance dict and make field access / equality comparison during
    the worklist's change check measurably cheaper.
    """

    key: str
    returns: FrozenSet = frozenset()
    const_return: Optional[int] = None
    may_drop_args: Dict[int, EffectHop] = field(default_factory=dict)
    arg_escapes: Dict[int, EffectHop] = field(default_factory=dict)
    locks: Dict[LockId, Optional[Tuple[str, LockId]]] = \
        field(default_factory=dict)
    locks_held_on_return: FrozenSet[LockId] = frozenset()
    acquires_any_lock: bool = False
    calls_unknown: bool = False
    #: AccessKey → (hop or None, span) — see the module docstring.
    shared_accesses: Dict[AccessKey, Tuple] = field(default_factory=dict)
    #: The §5.3 unsafe-provenance component (see the module docstring).
    unsafe_provenance: UnsafeProvenance = \
        field(default_factory=UnsafeProvenance)
    #: (first lock, second lock) → span of the second acquisition.
    lock_orders: Dict[Tuple[LockId, LockId], Span] = \
        field(default_factory=dict)
    #: The panic-effects component (may-panic bit with source vocabulary
    #: and hop provenance, moved-at-panic window, unwind drop
    #: obligations) — see :mod:`repro.analysis.panic`.
    panic: PanicEffects = field(default_factory=PanicEffects)

    def drops_arg(self, position: int) -> bool:
        return position in self.may_drop_args


def value_chain(body: Body, seed: int) -> Set[int]:
    """Locals the value initially in ``seed`` may flow through (whole-value
    moves and the :data:`~repro.analysis.scan.OWNER_EXTRACT_OPS`
    extractions).  Memoised per seed on the body's scan — the may-drop
    loop re-requests the same chains every iteration."""
    scan = scan_of(body)

    def compute() -> FrozenSet[int]:
        edges = scan.flow_edges(OWNER_EXTRACT_OPS)
        return frozenset(reach((seed,), lambda local: edges.get(local, ())))

    return set(scan.memo(("value_chain", seed), compute))


def owned_value_args(body: Body) -> List[int]:
    """Argument positions (0-based) passed by value whose type runs drop
    glue — the candidates for may-drop / escape facts."""

    def compute() -> Tuple[int, ...]:
        return tuple(
            position for position in range(body.arg_count)
            if body.local_ty(position + 1).needs_drop
            and not body.local_ty(position + 1).is_pointer_like)

    return list(scan_of(body).memo("owned_value_args", compute))


# ---------------------------------------------------------------------------
# Ownership fate: does this value die here?  (DESIGN.md §11)
# ---------------------------------------------------------------------------

class CallEffect(NamedTuple):
    """What one call does with the values passed to it."""

    #: ``(position, place, hop)`` per argument the call drops: hop
    #: ``None`` for ``mem::drop``, ``(callee, position)`` for a move into
    #: a user or closure callee whose summary drops that argument.
    drops: Tuple[Tuple[int, Place, Optional[EffectHop]], ...] = ()
    #: The places ``mem::forget`` takes.
    forgets: Tuple[Place, ...] = ()
    #: The places handed to unknown/FFI code.
    escapes: Tuple[Place, ...] = ()


_NO_EFFECT = CallEffect()


def _places(term: Terminator) -> Tuple[Place, ...]:
    return tuple(arg.place for arg in term.args if arg.place is not None)


def call_effect(term: Terminator, summary_of=None) -> CallEffect:
    """The drop / forget / escape effect of call ``term``.
    ``summary_of(callee key)`` gives a user or closure callee's summary
    (or None) and is called for no other callee; without it, callee
    summaries are not consulted."""
    func = term.func
    op = func.builtin_op
    if op is BuiltinOp.MEM_DROP:
        return CallEffect(drops=tuple(
            (j, arg.place, None) for j, arg in enumerate(term.args)
            if arg.place is not None))
    if op is BuiltinOp.MEM_FORGET:
        return CallEffect(forgets=_places(term))
    if func.kind is FuncKind.UNKNOWN or op is BuiltinOp.FFI:
        return CallEffect(escapes=_places(term))
    if summary_of is None \
            or func.kind not in (FuncKind.USER, FuncKind.CLOSURE):
        return _NO_EFFECT
    callee = func.user_fn
    summary = summary_of(callee)
    if summary is None or not summary.may_drop_args:
        return _NO_EFFECT
    return CallEffect(drops=tuple(
        (j, arg.place, (callee, j)) for j, arg in enumerate(term.args)
        if arg.place is not None and arg.is_move and summary.drops_arg(j)))


class ChainFate(NamedTuple):
    """What one body's calls and ``DROP`` statements do to the locals of
    a value chain."""

    dropped: bool              # a DROP statement or `mem::drop` of one
    hop: Optional[EffectHop]   # the first callee that drops a moved one
    forgotten: bool            # `mem::forget` of one
    escaped: bool              # one handed to unknown/FFI code

    @property
    def dies(self) -> bool:
        return self.dropped or self.hop is not None


def chain_fate(scan: BodyScan, chain: Set[int],
               summary_of=None) -> ChainFate:
    """Fold :func:`call_effect` over the calls of ``scan``'s body for the
    value chain ``chain`` (:func:`value_chain`).  Callee summaries are
    asked for in walk order until the chain is known to die, and not
    after."""
    dropped = any(local in chain for local in scan.drop_locals)
    hop: Optional[EffectHop] = None
    forgotten = escaped = False
    for _bb, term in scan.calls:
        effect = call_effect(
            term, summary_of if not dropped and hop is None else None)
        for _j, place, via in effect.drops:
            if place.local in chain:
                if via is None:
                    dropped = True
                elif hop is None:
                    hop = via
        forgotten = forgotten or any(
            place.local in chain for place in effect.forgets)
        escaped = escaped or any(
            place.local in chain for place in effect.escapes)
    return ChainFate(dropped, hop, forgotten, escaped)


def translate_lock(lock: LockId,
                   sources: List[Optional[int]]) -> Optional[LockId]:
    """Translate a callee lock id into the caller's frame using the call
    site's operand → caller-argument mapping (statics and heap sites are
    program-global ids and pass through unchanged)."""
    if lock[0] in ("static", "heap"):
        return lock
    if lock[0] == "arg":
        index = lock[1]
        if index < len(sources) and sources[index] is not None:
            return ("arg", sources[index], lock[2], lock[3])
    return None


# ---------------------------------------------------------------------------
# Shared-access collection (feeds the data-race summary component)
# ---------------------------------------------------------------------------

def deref_access_sites(body: Body) -> Tuple[Tuple, ...]:
    """Every read/write that goes *through* a pointer or reference in
    ``body``: ``(point, base_local, projection, is_write, span)``.

    The base local is resolved through reference/cast chains, so a write
    ``*p = v`` with ``p = &x.f as *mut _`` reports base ``x`` with
    projection ``("f",)``.  Taking an address (``&place``) is not an
    access; atomics go through their own builtin calls and are excluded —
    they synchronise by construction.

    One entry of the body's fact index
    (:attr:`~repro.analysis.scan.BodyScan.deref_sites`): the site list
    only depends on the body text, and the shared-access summariser
    re-reads it every worklist iteration."""
    return scan_of(body).deref_sites


def translate_access_loc(loc: Tuple,
                         sources: List[Optional[int]]) -> Optional[Tuple]:
    """Translate a callee access location into the caller's frame by the
    argument-position route (heap sites and statics are global ids and
    pass through unchanged)."""
    if loc[0] in ("heap", "static"):
        return loc
    if loc[0] == "arg":
        index = loc[1]
        if index < len(sources) and sources[index] is not None:
            return ("arg", sources[index], loc[2])
    return None


def opaque_lock(callee: str, lock: Tuple) -> Tuple:
    """A lockset entry for a callee lock the caller cannot name.  It never
    matches another lock id, but its presence keeps the access marked as
    lock-protected rather than silently dropping the protection."""
    return ("opaque", callee) + tuple(lock)


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints (feeds the executor's cache)
# ---------------------------------------------------------------------------

def canonical(obj) -> str:
    """A deterministic textual form of analysis values.

    ``repr`` is *not* stable enough for content-addressed cache keys:
    set/frozenset iteration follows string hashing, which is randomised
    per process (``PYTHONHASHSEED``), and summary locksets are
    frozensets.  This walk sorts every unordered container and expands
    dataclasses field-by-field, so equal values — whether computed in
    this process, in a worker, or loaded from a previous run's cache —
    always canonicalise to the same bytes:

    * set / frozenset → ``{`` sorted member forms ``}``;
    * dict → ``{`` sorted ``key:value`` forms ``}``;
    * list / tuple → ``[`` member forms ``]``;
    * enum member → ``TypeName.MEMBER``;
    * dataclass instance → ``TypeName(field=form,...)`` in field order;
    * anything else → ``repr``.

    Each form is produced by a handler chosen once per ``type(obj)``
    (see :class:`_Handlers`), so the walk pays one dict lookup per
    object instead of an ``isinstance`` chain and a ``fields()`` call.
    """
    return _HANDLERS[type(obj)](obj)


def _canonical_set(obj) -> str:
    handlers = _HANDLERS
    return "{" + ",".join(sorted(
        [handlers[type(x)](x) for x in obj])) + "}"


def _canonical_dict(obj) -> str:
    handlers = _HANDLERS
    return "{" + ",".join(sorted(
        [handlers[type(k)](k) + ":" + handlers[type(v)](v)
         for k, v in obj.items()])) + "}"


def _canonical_sequence(obj) -> str:
    handlers = _HANDLERS
    return "[" + ",".join([handlers[type(x)](x) for x in obj]) + "]"


def _enum_handler(cls):
    names: Dict[enum.Enum, str] = {}
    prefix = cls.__name__ + "."

    def handle(member) -> str:
        text = names.get(member)
        if text is None:
            text = names[member] = prefix + member.name
        return text
    return handle


def _dataclass_handler(cls):
    head = cls.__name__ + "("
    pairs = tuple((f.name, f.name + "=") for f in fields(cls))

    def handle(obj) -> str:
        handlers = _HANDLERS
        parts = []
        for name, label in pairs:
            value = getattr(obj, name)
            parts.append(label + handlers[type(value)](value))
        return head + ",".join(parts) + ")"
    return handle


class _Handlers(dict):
    """``type`` → the function that canonicalises its instances.

    A handler is built on a type's first lookup, with the same
    ``issubclass`` order the forms above are listed in, so a subclass
    (a ``NamedTuple``, an ``IntEnum``) gets the form of the first base
    it matches.  Keyed by type only: the table is as large as the set
    of types canonicalised, never the set of values."""

    def __missing__(self, cls):
        if issubclass(cls, (frozenset, set)):
            handler = _canonical_set
        elif issubclass(cls, dict):
            handler = _canonical_dict
        elif issubclass(cls, (list, tuple)):
            handler = _canonical_sequence
        elif issubclass(cls, enum.Enum):
            handler = _enum_handler(cls)
        elif is_dataclass(cls) and not issubclass(cls, type):
            handler = _dataclass_handler(cls)
        else:
            handler = repr
        self[cls] = handler
        return handler


_HANDLERS = _Handlers()


def summary_fingerprint(summary: "FunctionSummary") -> str:
    """Content hash of a summary's *meaning* (order-insensitive).

    Two summaries with equal facts fingerprint identically even when
    their dicts were populated in different orders or their frozensets
    iterate differently — the property the executor's cache keys rely on
    for early cutoff (an edited callee whose summary did not change does
    not invalidate its callers).
    """
    return hashlib.sha256(canonical(summary).encode()).hexdigest()
