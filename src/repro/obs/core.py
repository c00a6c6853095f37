"""Tracing and metrics core: spans, counters, gauges.

The design point is the ROADMAP's: this substrate must cost (almost)
nothing when nobody is looking.  All instrumentation goes through the
module-level helpers in :mod:`repro.obs`; when no :class:`Collector` is
installed they hand back a shared no-op span / return immediately, so
the tier-1 suite runs at seed speed.  When a collector *is* installed
(``--profile``, ``minirust stats``, the benchmark harness) every span
carries wall time from :func:`time.perf_counter` and nests under its
parent, giving the phase tree the exporters render.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional


@dataclass
class SpanRecord:
    """One completed (or still-open) span in the trace tree.

    Every record carries a collector-stable ``id``, its parent's id
    (``None`` for roots), and the ``pid``/``tid`` it was recorded on —
    the links the Chrome-trace exporter and the cross-process fold-back
    rely on.  Timestamps come from :func:`time.perf_counter`
    (``CLOCK_MONOTONIC``-class), so durations can never be negative and
    spans recorded in forked worker processes share the parent's
    timebase.
    """

    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)
    id: int = 0
    parent_id: Optional[int] = None
    pid: int = 0
    tid: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock seconds, 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus time attributed to child spans."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
            "self_s": self.self_time,
            "id": self.id,
            "parent": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def find(self, name: str) -> Optional["SpanRecord"]:
        """Depth-first lookup of a descendant (or self) by span name."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None


class _SpanHandle:
    """Context manager tying one :class:`SpanRecord` to a collector stack."""

    __slots__ = ("_collector", "_record")

    def __init__(self, collector: "Collector", record: SpanRecord) -> None:
        self._collector = collector
        self._record = record

    def set(self, **attrs: Any) -> "_SpanHandle":
        self._record.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._collector._push(self._record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # The span is recorded either way; a raising body is tagged so
        # the trace shows *where* the pipeline died, not a hole.
        if exc_type is not None:
            self._record.attrs.setdefault("error", True)
            self._record.attrs.setdefault("error_type", exc_type.__name__)
        self._record.end = perf_counter()
        self._collector._pop(self._record)
        return False


class NoopSpan:
    """Shared, stateless stand-in returned while collection is disabled.

    Reentrant and reusable: it records nothing, so one instance serves
    every call site.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class Collector:
    """Process-wide sink for spans and metrics.

    A collector owns a stack of open spans (so ``span()`` calls nest), a
    forest of completed root spans, and two metric families keyed by
    dotted names (``analysis.points_to.hit``): counters that add up and
    gauges whose last write wins.

    One thread records: the pipeline is single-threaded in every
    process (parallelism is worker *processes*, each with its own
    collector, whose spans fold back through :meth:`adopt_spans` and
    whose metrics replay through :func:`repro.obs.count` and
    :func:`repro.obs.gauge`), so the open-span stack and the metric
    dicts are plain attributes with no lock.
    Every span still records the ``pid``/``tid`` it ran on, which is
    how a trace lays worker timelines side by side.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._last_id = 0
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- spans ----------------------------------------------------------

    def _alloc_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        record = SpanRecord(name=name, start=perf_counter(),
                            attrs=dict(attrs), id=self._alloc_id(),
                            pid=os.getpid(), tid=threading.get_ident())
        return _SpanHandle(self, record)

    def _push(self, record: SpanRecord) -> None:
        stack = self._stack
        if stack:
            record.parent_id = stack[-1].id
            stack[-1].children.append(record)
        else:
            record.parent_id = None
            self.roots.append(record)
        stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        # Tolerate mismatched exits (a span leaked across an exception):
        # unwind to the matching record instead of corrupting the stack.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break

    @property
    def current_span(self) -> Optional[SpanRecord]:
        return self._stack[-1] if self._stack else None

    def find_span(self, name: str) -> Optional[SpanRecord]:
        for root in self.roots:
            hit = root.find(name)
            if hit is not None:
                return hit
        return None

    def iter_spans(self):
        """Depth-first walk over every recorded span."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def adopt_spans(self, roots: List[SpanRecord],
                    parent: Optional[SpanRecord] = None) -> None:
        """Graft externally recorded span trees (a worker collector's
        roots, deserialised from a task result) into this collector.

        Each adopted subtree is re-assigned ids from this collector's
        sequence (worker ids collide across processes) and re-parented
        under ``parent`` — by default the currently open span, so the
        session folds worker timelines under the batch's
        ``analysis.fanout`` span.  The records' own ``pid``/``tid`` are
        preserved: that is how a trace shows workers side by side.
        """
        if parent is None:
            parent = self.current_span
        for root in roots:
            if parent is not None:
                parent.children.append(root)
            else:
                self.roots.append(root)
            self._reid(root, parent.id if parent is not None else None)

    def _reid(self, record: SpanRecord, parent_id: Optional[int]) -> None:
        record.id = self._alloc_id()
        record.parent_id = parent_id
        for child in record.children:
            self._reid(child, record.id)

    # -- metrics --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- export ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "collector": self.name,
            "spans": [root.to_dict() for root in self.roots],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def render(self) -> str:
        from repro.obs.export import render_text
        return render_text(self)
