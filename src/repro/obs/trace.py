"""Chrome-trace / Perfetto export of the collector's span tree.

The output is the Trace Event Format JSON object that both
``chrome://tracing`` and https://ui.perfetto.dev open directly: one
complete (``"ph": "X"``) event per span, with microsecond timestamps
normalised to the earliest recorded span, plus ``"M"`` metadata events
naming each process and thread lane.

Because spans carry the ``pid``/``tid`` they were recorded on and
:func:`time.perf_counter` is a ``CLOCK_MONOTONIC``-class clock shared by
forked worker processes, spans folded back from the session's workers
line up on the same timeline as the main process: a ``--jobs 4`` run
renders as four worker lanes analyzing files side by side under the
batch's ``analysis.fanout`` span.  Each event's ``args`` keeps the
span's stable ``id`` and ``parent`` link, so tooling (and the tests) can
reconstruct the exact tree independent of timestamp nesting.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.obs.core import Collector
from repro.obs.provenance import jsonable


def trace_events(collector: Collector) -> List[Dict[str, Any]]:
    """The flat Trace Event list: metadata lanes first, then one
    complete event per span (open spans export with ``dur`` 0)."""
    spans = list(collector.iter_spans())
    if not spans:
        return []
    base = min(span.start for span in spans)
    events: List[Dict[str, Any]] = []

    lanes: Dict[int, set] = {}
    for span in spans:
        lanes.setdefault(span.pid, set()).add(span.tid)
    main_pid = os.getpid()
    for pid in sorted(lanes):
        label = "main" if pid == main_pid else f"worker-{pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for tid in sorted(lanes[pid]):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})

    for span in spans:
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {"id": span.id, "parent": span.parent_id}
        for key, value in span.attrs.items():
            args[key] = jsonable(value)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": "repro",
            "ts": (span.start - base) * 1e6,
            "dur": max(0.0, end - span.start) * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        })
    return events


def to_chrome_trace(collector: Collector) -> Dict[str, Any]:
    """The full Trace Event Format payload (JSON Object Format)."""
    return {
        "traceEvents": trace_events(collector),
        "displayTimeUnit": "ms",
        "otherData": {"collector": collector.name,
                      "counters": dict(collector.counters)},
    }


def write_chrome_trace(collector: Collector, path: str) -> Dict[str, Any]:
    """Write the Chrome-trace JSON to ``path`` and return the payload."""
    payload = to_chrome_trace(collector)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload
