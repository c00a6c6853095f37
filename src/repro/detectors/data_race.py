"""Lockset-based static data-race detector (the paper's §7.2 next step).

The paper's own tooling stops at deadlocks and leaves non-deadlock
concurrency bugs — which §5 shows are dominated by shared-memory data
races through `Arc` + interior mutability — to future work.  This
detector is that next step, in the Eraser/RacerD lockset tradition:

1. **Thread-escape analysis** (:mod:`repro.analysis.escape`) finds every
   ``thread::spawn`` site, the closure it runs, and the map from closure
   captures back to spawner locals, so closure-side accesses and
   spawner-side accesses meet on the same global location ids (heap
   allocation sites, statics).
2. **Lockset dataflow** comes from the ``shared_accesses`` component of
   :class:`~repro.analysis.summaries.FunctionSummary`: every deref
   access in a function's call tree, keyed with the locks held at the
   access (composed bottom-up in the SCC fixpoint, so protection routed
   through helper functions is seen).
3. **Reporting** pairs conflicting accesses — same location, at least
   one write, both sides able to run concurrently, and no common lock
   whose two acquisitions mutually exclude — into findings carrying
   thread-escape, lockset, and summary-chain provenance.

Two access pools are paired:

* the **threaded pool** — per spawn site, the spawned closure's summary
  accesses, with ``("arg", capture, proj)`` locations and locks
  translated through the capture map into the spawner's global ids;
* the **spawner pool** — the spawning function's
  :func:`~repro.analysis.summaries.shared_access_sites` (the same walk
  the summary engine folds into ``shared_accesses``: its own derefs and
  its callees' summary accesses translated through the call site) in
  blocks forward-reachable from a spawn, i.e. while the spawned thread
  may be running, kept at global locations with their global and
  opaque locks.  An ``arg`` lock id names a lock by the spawner's own
  parameter, which the spawned thread does not share, so it matches
  nothing; the lockset note still names it by source.

A try-lock protects an access only where its guard is out of the
``Result`` (after ``Ok(t) =>`` or ``.unwrap()``): its guard region
covers no point where only the ``Result`` is held, since the code there
also runs when ``try_lock`` failed.  ``acquires_any_lock`` counts
try-locks, so this holds in a callee as in the spawner's own body.

Known imprecision (see DESIGN.md): guard-deref accesses (``*guard += 1``)
are invisible (their protection is structural, so this loses no races it
could have found); a single spawn site in a loop is one "thread" (missed
T×T self-races); ``join()`` introduces no happens-before (post-join
accesses still pair — matching the dynamic monitor's approximation);
callee locks the caller cannot name at all become opaque lockset
entries that never match (a deliberate FP source, never an FN source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.dataflow import reach
from repro.analysis.escape import (
    SpawnSite, capture_lock_ids, translate_capture,
)
from repro.analysis.scan import cfg_of, scan_of
from repro.analysis.summaries import opaque_lock, shared_access_sites
from repro.detectors.base import AnalysisContext, Detector
from repro.detectors.report import Finding, Severity
from repro.mir.nodes import Body
from repro.obs.provenance import fact


def _mutually_exclude(first: str, second: str) -> bool:
    """Do two acquisitions of the *same* lock exclude each other?  Two
    read-side acquisitions run concurrently, so they protect nothing."""
    if first in ("read", "borrow") and second in ("read", "borrow"):
        return False
    return True


def _proj_overlap(a: Tuple, b: Tuple) -> bool:
    """Field-sensitive may-overlap: one projection path prefixes the
    other (``x.f`` overlaps ``x`` and ``x.f.g``, never ``x.g``)."""
    return a[:len(b)] == b or b[:len(a)] == a


def _render_loc(loc: Tuple) -> str:
    kind, payload, proj = loc
    base = f"allocation at `{payload}`" if kind == "heap" \
        else f"static `{payload}`"
    if proj:
        return f"{base} field `{'.'.join(proj)}`"
    return base


def _render_locks(locks: FrozenSet, params: Tuple[str, ...] = ()) -> str:
    names = []
    for lk in sorted(locks, key=repr):
        if lk[0] == "opaque":
            names.append(f"opaque({lk[1]})")
        else:
            proj = ".".join(lk[2]) if lk[2] else ""
            names.append(f"{lk[3]}:{lk[0]}({lk[1]}{'.' + proj if proj else ''})")
    names += [f"`{name}` (spawner's parameter, not shared)"
              for name in params]
    return "{" + ", ".join(names) + "}"


def _param_lock_name(body: Body, lock: Tuple) -> str:
    """Source name of a lock ``body`` holds through its own parameter:
    the parameter's name with the lock's projection."""
    _kind, position, proj, _lock_kind = lock
    name = body.locals[position + 1].name or f"arg{position}"
    return ".".join((name,) + tuple(proj))


@dataclass
class _Access:
    """One shared-memory access, normalised to global location ids."""

    fn_key: str                     # function whose summary produced it
    key: Tuple                      # AccessKey in that function's coords
    loc: Tuple                      # global location (kind, payload, proj)
    write: bool
    locks: FrozenSet                # lock ids in global/opaque coords
    span: object
    site: Optional[SpawnSite]       # the spawn site (threaded pool only)
    #: For accesses composed from a callee summary at a call site: the
    #: calling function, so the reported summary chain starts there.
    caller: Optional[str] = None
    #: Spawner side: the locks held through the spawner's own
    #: parameters, by source name.  The lockset note names them; they
    #: match nothing, since the spawned thread does not share them.
    params: Tuple[str, ...] = ()

    def thread(self) -> str:
        if self.site is None:
            return "spawning thread"
        return f"thread spawned at `{self.site.spawner}` " \
               f"block {self.site.block}"


class DataRaceDetector(Detector):
    name = "data-race"
    description = ("Unsynchronised conflicting accesses to thread-shared "
                   "memory (Eraser-style lockset analysis over spawn "
                   "escapes)")
    paper_section = "7.2"

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        te = ctx.thread_escape()
        if not te.spawn_sites:
            return []
        threaded = self._threaded_accesses(ctx, te)
        spawner_side = self._spawner_accesses(ctx, te)
        obs.gauge("detector.data_race.threaded_accesses", len(threaded))
        obs.gauge("detector.data_race.spawner_accesses", len(spawner_side))
        return self._pair(ctx, threaded, spawner_side)

    # -- access pools -------------------------------------------------------

    def _threaded_accesses(self, ctx: AnalysisContext,
                           te) -> List[_Access]:
        """Closure-summary accesses per spawn site, translated through the
        capture map into the spawner frame's global location ids."""
        out: List[_Access] = []
        for site in te.spawn_sites:
            spawner = ctx.program.functions.get(site.spawner)
            closure_summary = ctx.summary(site.closure)
            if spawner is None or not closure_summary.shared_accesses:
                continue
            pt = ctx.points_to(spawner)
            for access, (_hop, span) in \
                    closure_summary.shared_accesses.items():
                loc, write, lockset = access
                if loc[0] == "arg":
                    targets = translate_capture(site, pt, loc[1], loc[2])
                elif loc[0] in ("heap", "static"):
                    targets = {loc}
                else:
                    targets = set()
                if not targets:
                    continue
                locks = self._capture_locks(site, pt, lockset)
                for target in sorted(targets):
                    out.append(_Access(fn_key=site.closure, key=access,
                                       loc=target, write=write,
                                       locks=locks, span=span, site=site))
        return out

    def _capture_locks(self, site: SpawnSite, pt_spawner,
                       lockset: FrozenSet) -> FrozenSet:
        locks: Set[Tuple] = set()
        for lk in lockset:
            if lk[0] == "opaque":
                locks.add(lk)
                continue
            # A lock the spawner frame cannot name still protects the
            # access — keep it, unmatchable, rather than dropping it.
            locks |= capture_lock_ids(site, pt_spawner, lk) \
                or {opaque_lock(site.closure, lk)}
        return frozenset(locks)

    def _spawner_accesses(self, ctx: AnalysisContext,
                          te) -> List[_Access]:
        """Accesses the spawning function performs while a spawned thread
        may be running: its :func:`shared_access_sites` in blocks
        forward-reachable from a spawn site, kept at global locations
        with their global and opaque locks."""
        out: List[_Access] = []
        by_body: Dict[str, List[SpawnSite]] = {}
        for site in te.spawn_sites:
            by_body.setdefault(site.spawner, []).append(site)
        for key, sites in sorted(by_body.items()):
            if key in te.thread_reachable:
                # The spawner itself runs on a spawned thread; its own
                # accesses are already in the threaded pool via whatever
                # site spawned it.
                continue
            body = ctx.program.functions.get(key)
            if body is None:
                continue
            after = self._blocks_after(body, {s.block for s in sites})
            if not after:
                continue
            user_sites = [site for site in scan_of(body).facts.user_sites
                          if site[0] in after]
            # Always ask for the regions (the solve's cache serves them):
            # under the `interprocedural=False` ablation every summary's
            # `acquires_any_lock` is bottom.  No projection bound: this
            # fold is not a summary, so it cannot recurse.
            for block, loc, write, lockset, hop, span in shared_access_sites(
                    body, ctx.points_to(body), user_sites, ctx.summary, True,
                    lambda: ctx.guard_regions(body), max_proj=None):
                if block not in after or loc[0] == "arg":
                    continue
                locks = frozenset(lk for lk in lockset if lk[0] != "arg")
                params = tuple(sorted({_param_lock_name(body, lk)
                                       for lk in lockset if lk[0] == "arg"}))
                if hop is None:
                    out.append(_Access(fn_key=key, key=(loc, write, locks),
                                       loc=loc, write=write, locks=locks,
                                       span=span, site=None, params=params))
                else:
                    out.append(_Access(fn_key=hop[0], key=hop[1], loc=loc,
                                       write=write, locks=locks, span=span,
                                       site=None, caller=key, params=params))
        return out

    @staticmethod
    def _blocks_after(body: Body, spawn_blocks: Set[int]) -> Set[int]:
        """Blocks forward-reachable from any spawn terminator — the
        points at which a spawned thread may already be running."""
        successors = cfg_of(body).successors
        return reach((s for bb in spawn_blocks for s in successors[bb]),
                     successors.__getitem__)

    # -- pairing ------------------------------------------------------------

    def _pair(self, ctx: AnalysisContext, threaded: List[_Access],
              spawner_side: List[_Access]) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[Tuple] = set()
        # Writes first, so the reported representative of a read+write
        # statement pair (same span, same dedup key) is the write.
        threaded = sorted(threaded, key=lambda acc: not acc.write)
        spawner_side = sorted(spawner_side, key=lambda acc: not acc.write)
        for i, a in enumerate(threaded):
            others = threaded[i + 1:] + spawner_side
            for b in others:
                if b.site is not None and b.site is a.site:
                    continue     # same spawn site = same thread (one spawn)
                if a.loc[0] != b.loc[0] or a.loc[1] != b.loc[1] \
                        or not _proj_overlap(a.loc[2], b.loc[2]):
                    continue
                if not (a.write or b.write):
                    continue
                if self._protected(a.locks, b.locks):
                    obs.count("detector.data_race.lockset_protected")
                    continue
                dedup = (a.loc[0], a.loc[1],
                         frozenset({(a.fn_key, a.span.lo),
                                    (b.fn_key, b.span.lo)}))
                if dedup in reported:
                    continue
                reported.add(dedup)
                findings.append(self._finding(ctx, a, b))
        obs.count("detector.data_race.pairs_reported", len(findings))
        return findings

    @staticmethod
    def _protected(first: FrozenSet, second: FrozenSet) -> bool:
        for la in first:
            if la[0] == "opaque":
                continue
            for lb in second:
                if lb[0] == "opaque":
                    continue
                if la[:3] == lb[:3] and _mutually_exclude(la[3], lb[3]):
                    return True
        return False

    def _finding(self, ctx: AnalysisContext, a: _Access,
                 b: _Access) -> Finding:
        loc_desc = _render_loc(a.loc)
        what_a = "write" if a.write else "read"
        what_b = "write" if b.write else "read"
        chain_a = ctx.access_chain(a.fn_key, a.key)
        chain_b = ctx.access_chain(b.fn_key, b.key)
        if b.caller is not None:
            chain_b = [b.caller] + chain_b
        provenance = [
            fact("thread-escape",
                 f"thread-escape analysis: `{a.fn_key}` runs on the "
                 f"{a.thread()}; the shared location flows in through a "
                 f"spawn capture",
                 spawner=a.site.spawner if a.site else None,
                 closure=a.site.closure if a.site else None,
                 spawn_block=a.site.block if a.site else None),
            fact("shared-location",
                 f"points-to analysis: both sides reach the {loc_desc}",
                 location=a.loc),
            fact("lockset",
                 f"lockset analysis: the {what_a} in `{a.fn_key}` holds "
                 f"{_render_locks(a.locks, a.params)}; the {what_b} in "
                 f"`{b.fn_key}` holds {_render_locks(b.locks, b.params)} "
                 f"— no common lock "
                 f"excludes them",
                 first=sorted(a.locks, key=repr),
                 second=sorted(b.locks, key=repr)),
            fact("summary-chain",
                 f"summary engine: the {what_a} reaches the location "
                 f"along {' → '.join(chain_a)}; the {what_b} along "
                 f"{' → '.join(chain_b)}",
                 chain=chain_a, other_chain=chain_b),
        ]
        return Finding(
            detector=self.name, kind="data-race",
            message=(f"data race on the {loc_desc}: {what_a} in "
                     f"`{a.fn_key}` (on the {a.thread()}) and {what_b} in "
                     f"`{b.fn_key}` (on the {b.thread()}) with no common "
                     f"lock"),
            fn_key=a.fn_key, span=a.span, severity=Severity.ERROR,
            metadata={"location": a.loc, "first_fn": a.fn_key,
                      "second_fn": b.fn_key, "first_write": a.write,
                      "second_write": b.write,
                      "interprocedural": len(chain_a) > 1
                      or len(chain_b) > 1},
            provenance=provenance)
