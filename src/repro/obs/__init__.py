"""``repro.obs`` — pipeline-wide tracing, metrics, and finding provenance.

Every layer of the pipeline (front-end phases, the shared analysis
cache, each detector, the MIR interpreter, corpus evaluation) calls the
module-level helpers here::

    from repro import obs

    with obs.span("parse"):
        ...
    obs.count("analysis.points_to.miss")
    obs.gauge("interp.schedule_seed", 3)

By default **no collector is installed** and every helper is a no-op
fast path (one global read, no allocation), so instrumented code runs at
seed speed.  ``--profile`` / ``minirust stats`` / the benchmarks install
a :class:`Collector` via :func:`install` or the :func:`collecting`
context manager and then export the trace as a pretty tree, a
Chrome trace, folded flamegraph stacks or ``Collector.to_dict()``.

The exporters (``export``, ``flame``, ``trace``) load on first use of
one of their names here, so a plain check never imports them.
"""

from __future__ import annotations

from contextlib import contextmanager
from importlib import import_module
from typing import Any, Iterator, Optional, Union

from repro.obs.core import Collector, NOOP_SPAN, NoopSpan, SpanRecord
from repro.obs.provenance import fact, jsonable, render_facts

__all__ = [
    "Collector", "NoopSpan", "NOOP_SPAN", "SpanRecord",
    "collecting", "count", "enabled", "fact", "folded_stacks", "gauge",
    "get_collector", "hot_sccs", "install", "jsonable", "phase_timings",
    "render_facts", "render_text", "span", "to_chrome_trace", "uninstall",
    "write_chrome_trace", "write_folded",
]

#: Exporter names and the submodule each loads from on first use.
_EXPORTERS = {
    "hot_sccs": "export", "phase_timings": "export", "render_text": "export",
    "folded_stacks": "flame", "write_folded": "flame",
    "to_chrome_trace": "trace", "write_chrome_trace": "trace",
}


def __getattr__(name):
    if name in ("export", "flame", "trace"):
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTERS[name]}"), name)
    globals()[name] = value
    return value


#: The process-wide active collector; ``None`` means disabled.
_active: Optional[Collector] = None


def get_collector() -> Optional[Collector]:
    return _active


def enabled() -> bool:
    return _active is not None


def install(name_or_collector: Union[str, Collector] = "repro") -> Collector:
    """Install (and return) the process-wide collector.

    Installing over an already-active collector raises: silently
    replacing it would drop every span and counter it holds.  Re-install
    of the *same* collector object is an idempotent no-op; for scoped
    collection that must compose with an outer collector, use
    :func:`collecting` (which saves and restores the active one).
    """
    global _active
    if isinstance(name_or_collector, Collector):
        collector = name_or_collector
    else:
        collector = Collector(name_or_collector)
    if _active is not None and _active is not collector:
        raise RuntimeError(
            f"an obs collector ({_active.name!r}) is already installed; "
            f"uninstall() it first or use obs.collecting() for scoped "
            f"collection")
    _active = collector
    return _active


def uninstall() -> Optional[Collector]:
    """Remove the active collector (returning it) — back to no-op mode."""
    global _active
    collector, _active = _active, None
    return collector


@contextmanager
def collecting(name: str = "repro") -> Iterator[Collector]:
    """Scoped collection: install a fresh collector, restore the previous
    one (usually ``None``) on exit."""
    global _active
    previous = _active
    collector = Collector(name)
    _active = collector
    try:
        yield collector
    finally:
        _active = previous


# -- instrumentation fast paths ---------------------------------------------

def span(name: str, **attrs: Any):
    """Open a (context-manager) span, or the shared no-op when disabled."""
    collector = _active
    if collector is None:
        return NOOP_SPAN
    return collector.span(name, **attrs)


def count(name: str, n: float = 1) -> None:
    collector = _active
    if collector is not None:
        collector.count(name, n)


def gauge(name: str, value: float) -> None:
    collector = _active
    if collector is not None:
        collector.gauge(name, value)
