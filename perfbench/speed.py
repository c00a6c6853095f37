"""The host's current speed, read from a fixed pure-Python reference loop.

The bench host is a few cores of a shared machine: its speed for one
process flips between two states about 1.7x apart and holds each for
seconds to minutes, so two sets of runs of the same code can differ by
more than any bound worth setting.  The timed run therefore reads the
reference loop next to the work it times and scales each time to a host
on which the loop takes ``REFERENCE_MS``::

    scaled = measured * (REFERENCE_MS / reading) ** sensitivity

The loop is the benchmark's own code and touches nothing of the program,
so a change to the program moves the scaled times and a change in the
host's speed mostly does not.  Its mix (small objects, attribute access,
tuple-keyed dicts, method calls, sorting, string joins) is that of the
analysis pipeline, but it lives in the processor's caches and the
pipeline does not, so the pipeline slows less than the loop when the
host does: the sensitivity, an exponent fitted per kind of work, says by
how much.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Loop time, in ms, of the host the scaled times are given for.
REFERENCE_MS = 4.0

#: Exponent of the loop's slowdown that set-up times follow: about 0.77
#: on runs that saw both of the host's states.  The timed operations
#: have their own (``run.py``).
SETUP_SENSITIVITY = 0.75

#: Repetitions per reading; a reading is the fastest of them.
REPEATS = 3

_NODES = 4000


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind: int, value: int) -> None:
        self.kind = kind
        self.kids = []
        self.value = value

    def key(self):
        return (self.kind, self.value & 63)


def _loop() -> int:
    nodes = [_Node(i % 7, i) for i in range(_NODES)]
    for i in range(1, _NODES):
        nodes[(i * 7919) % i].kids.append(nodes[i])
    seen = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        key = node.key()
        seen[key] = seen.get(key, 0) + 1
        stack.extend(node.kids)
    text = ",".join(f"{kind}:{low}" for kind, low in sorted(seen))
    return len(text) + len(seen)


def loop_ms() -> float:
    """One reading: the fastest of ``REPEATS`` runs of the loop, in ms,
    with the collector off so that no pause of the program's lands in
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            _loop()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1000.0


class Pace:
    """Scales operation times by readings taken around them.

    ``add`` takes each operation's measured seconds; after every
    ``every`` operations (and at ``flush``) it takes a reading and scales
    the pending operations by the mean of this reading and the one
    before them, raised to ``sensitivity``.  Readings happen between
    operations, outside their timed windows."""

    def __init__(self, every: int, sensitivity: float) -> None:
        self.every = every
        self.sensitivity = sensitivity
        self.last = loop_ms()
        self.pending: list = []
        self.measured: list = []
        self.scaled: list = []
        self.readings = [self.last]

    def add(self, seconds: float) -> None:
        self.measured.append(seconds)
        self.pending.append(seconds)
        if len(self.pending) >= self.every:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = loop_ms()
        reading = (self.last + now) / 2.0
        factor = (REFERENCE_MS / reading) ** self.sensitivity
        self.scaled.extend(seconds * factor for seconds in self.pending)
        self.pending.clear()
        self.last = now
        self.readings.append(now)
