"""A Miri-like MIR interpreter with a deterministic thread scheduler.

Plays the role Miri plays in the paper (§2.4): a dynamic checker that
executes MIR and flags undefined behaviour when a test input triggers it —
use-after-free, double free, uninitialised reads, out-of-bounds accesses —
plus the concurrency outcomes the paper studies: deadlocks (double lock,
conflicting lock order, missed condvar signals, channel misuse), Rust
panics (bounds checks, ``unwrap``, ``RefCell`` borrow errors, poisoned
locks), and (optionally) data races.

Threads are cooperatively scheduled: the scheduler runs one thread for a
``quantum`` of MIR steps, then rotates.  Different ``ScheduleConfig``
seeds yield different interleavings, which is how the exploration
benchmarks manifest injected concurrency bugs deterministically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.hir.builtins import BuiltinOp, FuncKind
from repro.lang.types import TyKind
from repro.mir.nodes import (
    AggregateKind, BinOpKind, Body, CastKind, Operand, Place, Program,
    Rvalue, RvalueKind, Statement, StatementKind, Terminator, TerminatorKind,
    UnOpKind,
)
from repro.mir.values import (
    MOVED, UNINIT, AllocState, BoxValue, ChannelEnd, ClosureValue,
    DeadlockError, EnumValue, GuardValue, InterpError, MapValue, Memory,
    MutexValue, Pointer, RangeValue, RcValue, RuntimePanic, StringValue,
    StructValue, TupleValue, UBError, UBKind, VecValue, deep_copy,
)


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    PANICKED = "panicked"


@dataclass
class Frame:
    body: Body
    locals_alloc: Dict[int, int] = field(default_factory=dict)
    block: int = 0
    stmt_index: int = 0
    dest_place: Optional[Place] = None       # caller destination
    return_block: Optional[int] = None       # caller resume block
    in_unsafe_call: bool = False


@dataclass
class ThreadCtx:
    thread_id: int
    frames: List[Frame] = field(default_factory=list)
    state: ThreadState = ThreadState.RUNNABLE
    block_reason: str = ""
    block_object: Optional[int] = None
    result: Any = None
    panic_message: str = ""
    held_locks: List[Tuple[int, str]] = field(default_factory=list)
    spawned_at_step: int = 0
    #: Set when blocked on a condvar: (condvar_id, lock_id, guard value).
    condvar_wait: Optional[Tuple] = None
    notified: bool = False
    #: Stashed (channel_id, value) for a blocked bounded-channel send.
    pending_send: Optional[Tuple] = None
    #: Return value of the most recently completed frame (sync closures).
    last_return: Any = None

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    @property
    def alive(self) -> bool:
        return self.state in (ThreadState.RUNNABLE, ThreadState.BLOCKED)


@dataclass
class ScheduleConfig:
    """Deterministic scheduling policy."""

    quantum: int = 10
    seed: int = 0
    max_steps: int = 2_000_000

    def quantum_for(self, round_index: int) -> int:
        if self.seed == 0:
            return self.quantum
        # Vary quantum pseudo-randomly but deterministically per seed.
        x = (round_index * 2654435761 + self.seed * 40503) & 0xFFFFFFFF
        return 1 + (x % (self.quantum * 2))


@dataclass
class RaceRecord:
    alloc_id: int
    first_thread: int
    second_thread: int
    message: str


@dataclass
class RunResult:
    """Outcome of one interpretation run."""

    outcome: str                  # "ok" | "panic" | "ub" | "deadlock" | "limit"
    value: Any = None
    error: Optional[InterpError] = None
    stdout: List[str] = field(default_factory=list)
    steps: int = 0
    races: List[RaceRecord] = field(default_factory=list)
    leaked: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass
class _LockState:
    kind: str                     # "mutex" | "rwlock" | "refcell"
    writer: Optional[int] = None
    #: reader thread id → number of read guards it holds (a set would
    #: collapse same-thread re-reads, releasing the lock too early).
    readers: Dict[int, int] = field(default_factory=dict)
    poisoned: bool = False


@dataclass
class _ChannelState:
    queue: List[Any] = field(default_factory=list)
    capacity: Optional[int] = None
    senders: int = 1
    receivers: int = 1


class Interpreter:
    """Executes a MIR :class:`Program`."""

    def __init__(self, program: Program,
                 schedule: Optional[ScheduleConfig] = None,
                 detect_races: bool = False) -> None:
        self.program = program
        self.schedule = schedule or ScheduleConfig()
        self.detect_races = detect_races
        self.memory = Memory()
        self.threads: List[ThreadCtx] = []
        self.locks: Dict[int, _LockState] = {}
        self.condvars: Dict[int, List[int]] = {}
        self.channels: Dict[int, _ChannelState] = {}
        self.onces: Dict[int, bool] = {}
        self.statics: Dict[str, int] = {}
        self.stdout: List[str] = []
        self.steps = 0
        self.context_switches = 0
        self.races: List[RaceRecord] = []
        self._next_obj_id = 1
        self._race_log: Dict[int, Dict[int, Tuple[bool, frozenset, int]]] = {}
        # Counts for the §4.1 micro-benchmarks.
        self.bounds_checks = 0
        self.unchecked_accesses = 0
        #: When False, Assert terminators are skipped entirely — the
        #: "unsafe/no-bounds-check" ablation mode.
        self.enable_bounds_checks = True

    # -- object ids ----------------------------------------------------------

    def _new_obj_id(self) -> int:
        obj = self._next_obj_id
        self._next_obj_id += 1
        return obj

    # -- entry ------------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[Any]] = None
            ) -> RunResult:
        body = self.program.functions.get(entry)
        if body is None:
            raise ValueError(f"no function named {entry!r}")
        from repro import obs
        obs.gauge("interp.schedule_seed", self.schedule.seed)
        try:
            with obs.span("interp.run", entry=entry):
                self._init_statics()
                main_thread = self._spawn_thread(body, list(args or []))
                self._scheduler_loop()
        except UBError as exc:
            return self._result("ub", error=exc)
        except RuntimePanic as exc:
            # The main thread unwinds like any other: pending drops run
            # innermost-frame-first.  A drop that itself trips UB during
            # unwinding (double free of a duplicated value, Rc underflow)
            # upgrades the outcome to "ub" — exactly the panic-safety bug
            # class the static side's `panic-safety` detector reports.
            if self.threads:
                try:
                    self._panic_thread(self.threads[0], str(exc))
                except UBError as ub:
                    return self._result("ub", error=ub)
            return self._result("panic", error=exc)
        except DeadlockError as exc:
            return self._result("deadlock", error=exc)
        except InterpError as exc:
            # Engine-level conditions (step limits in nested execution,
            # unsupported constructs) terminate the run without tearing
            # down the caller.
            return self._result("limit", error=exc)
        if self.steps >= self.schedule.max_steps:
            return self._result("limit")
        if main_thread.state is ThreadState.PANICKED:
            return self._result("panic",
                                error=RuntimePanic(main_thread.panic_message))
        return self._result("ok", value=main_thread.result)

    def _result(self, outcome: str, value: Any = None,
                error: Optional[InterpError] = None) -> RunResult:
        from repro import obs
        obs.count("interp.steps", self.steps)
        obs.count("interp.context_switches", self.context_switches)
        obs.count("interp.threads", len(self.threads))
        obs.count("interp.bounds_checks", self.bounds_checks)
        obs.count("interp.unchecked_accesses", self.unchecked_accesses)
        obs.count(f"interp.outcome.{outcome}")
        return RunResult(outcome=outcome, value=value, error=error,
                         stdout=list(self.stdout), steps=self.steps,
                         races=list(self.races),
                         leaked=self.memory.live_count())

    def _init_statics(self) -> None:
        for name in self.program.statics:
            init_key = f"__static_init::{name}"
            alloc = self.memory.allocate(UNINIT, kind="static", label=name)
            self.statics[name] = alloc
            body = self.program.functions.get(init_key)
            if body is None:
                continue
            thread = ThreadCtx(thread_id=-1)
            frame = self._make_frame(body, [])
            thread.frames.append(frame)
            guard = 0
            while thread.frames:
                if thread.state is not ThreadState.RUNNABLE:
                    raise DeadlockError(
                        f"static initialiser for `{name}` blocked "
                        f"({thread.block_reason})")
                self._step(thread)
                guard += 1
                if guard > self.schedule.max_steps:
                    raise InterpError(
                        f"static initialiser for `{name}` exceeded the "
                        f"step limit")
            self.memory.get(alloc).value = thread.result

    def _spawn_thread(self, body: Body, args: List[Any]) -> ThreadCtx:
        thread = ThreadCtx(thread_id=len(self.threads),
                           spawned_at_step=self.steps)
        thread.frames.append(self._make_frame(body, args))
        self.threads.append(thread)
        return thread

    def _panic_thread(self, thread: ThreadCtx, message: str) -> None:
        """A thread panicked: poison its locks, run pending drops on the
        unwind path (innermost frame first), free its stack, wake
        joiners.  A ``UBError`` raised by an unwind drop propagates —
        undefined behaviour discovered *during* unwinding is the
        panic-safety bug class itself, and outranks the panic outcome."""
        thread.state = ThreadState.PANICKED
        thread.panic_message = message
        for lock_id, mode in list(thread.held_locks):
            state = self._lock_state(lock_id)
            state.poisoned = True
            self._release_lock(thread, lock_id, mode)
        try:
            for frame in reversed(thread.frames):
                self._unwind_frame_drops(thread, frame)
        finally:
            for frame in thread.frames:
                for alloc_id in frame.locals_alloc.values():
                    alloc = self.memory._allocations.get(alloc_id)
                    if alloc is not None and alloc.kind == "stack":
                        self.memory.mark_dead_stack(alloc_id)
            thread.frames.clear()
        for other in self.threads:
            if other.state is ThreadState.BLOCKED and \
                    other.block_reason == "join" and \
                    other.block_object == thread.thread_id:
                other.state = ThreadState.RUNNABLE
                other.block_reason = ""
                other.block_object = None

    def _unwind_frame_drops(self, thread: ThreadCtx, frame: Frame) -> None:
        """Run one frame's pending drop obligations during unwinding.

        Uses the SAME :func:`repro.analysis.panic.unwind_drop_order` the
        static landing pads are synthesised from — the one obligation
        computation both sides share — filtered dynamically: ``UNINIT``
        and ``MOVED`` slots, dead storage and static-aliased locals are
        skipped (the runtime equivalent of the pads' maybe-init
        filtering).  Dropping a guard releases (already-poisoned) locks
        through the ordinary drop glue."""
        # Imported here, not at module level: repro.mir must finish
        # initialising before repro.analysis (which imports mir.cfg) can.
        from repro.analysis.panic import unwind_drop_order
        for local in unwind_drop_order(frame.body):
            alloc_id = frame.locals_alloc.get(local)
            if alloc_id is None:
                continue
            info = frame.body.locals[local]
            if info.name and info.name.startswith("static:"):
                continue
            alloc = self.memory._allocations.get(alloc_id)
            if alloc is None or alloc.kind != "stack" \
                    or alloc.state is not AllocState.LIVE:
                continue
            value = alloc.value
            if value is UNINIT or value is MOVED:
                continue
            alloc.value = MOVED
            self.drop_value(thread, value)

    def call_closure_sync(self, thread: ThreadCtx, closure: ClosureValue,
                          args: List[Any]) -> Any:
        """Execute a closure to completion on the current thread (used by
        ``map``/``call_once``-style builtins)."""
        body = self.program.functions.get(closure.key)
        if body is None:
            return None
        frame = self._make_frame(body, list(args) + list(closure.captures))
        frame.dest_place = None
        frame.return_block = None
        depth = len(thread.frames)
        thread.frames.append(frame)
        guard_steps = 0
        while len(thread.frames) > depth:
            self._step(thread)
            guard_steps += 1
            self.steps += 1
            if guard_steps > self.schedule.max_steps:
                raise InterpError("closure ran past the step limit")
        return thread.last_return

    def _make_frame(self, body: Body, args: List[Any]) -> Frame:
        frame = Frame(body=body)
        for local in body.locals:
            label = f"{body.key}::_{local.index}"
            if local.name and local.name.startswith("static:"):
                name = local.name[7:]
                frame.locals_alloc[local.index] = self.statics.get(
                    name, self.memory.allocate(UNINIT, "static", name))
                continue
            frame.locals_alloc[local.index] = self.memory.allocate(
                UNINIT, kind="stack", label=label)
        for i, arg in enumerate(args):
            if 1 + i < len(body.locals):
                self._write_local(frame, 1 + i, arg)
        return frame

    # -- scheduler -----------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        round_index = 0
        current = 0
        last_tid: Optional[int] = None
        while True:
            alive = [t for t in self.threads if t.alive]
            if not alive:
                return
            runnable = [t for t in alive if t.state is ThreadState.RUNNABLE]
            if not runnable:
                waiting = {t.thread_id: t.block_reason for t in alive}
                raise DeadlockError(
                    "all threads are blocked: " +
                    "; ".join(f"thread {tid} waiting on {why}"
                              for tid, why in waiting.items()),
                    waiting)
            thread = runnable[(current + self.schedule.seed) % len(runnable)]
            if last_tid is not None and thread.thread_id != last_tid:
                self.context_switches += 1
            last_tid = thread.thread_id
            quantum = self.schedule.quantum_for(round_index)
            for _ in range(quantum):
                if thread.state is not ThreadState.RUNNABLE:
                    break
                if not thread.frames:
                    break
                try:
                    self._step(thread)
                except RuntimePanic as exc:
                    if thread.thread_id == 0:
                        raise
                    self._panic_thread(thread, str(exc))
                self.steps += 1
                if self.steps >= self.schedule.max_steps:
                    return
            round_index += 1
            current += 1

    # -- frame/locals helpers ----------------------------------------------------------

    def _local_alloc(self, frame: Frame, local: int) -> int:
        return frame.locals_alloc[local]

    def _read_local(self, frame: Frame, local: int) -> Any:
        alloc = self.memory.check_live(self._local_alloc(frame, local),
                                       f"local _{local}")
        return alloc.value

    def _write_local(self, frame: Frame, local: int, value: Any) -> None:
        alloc = self.memory.get(self._local_alloc(frame, local))
        if alloc.state is not AllocState.LIVE:
            alloc.state = AllocState.LIVE
        alloc.value = value

    # -- place evaluation -----------------------------------------------------------------

    def eval_place(self, thread: ThreadCtx, place: Place
                   ) -> Tuple[int, Tuple]:
        """Resolve a place to ``(alloc_id, path)``."""
        frame = thread.frame
        alloc_id = self._local_alloc(frame, place.local)
        path: Tuple = ()
        for proj in place.projection:
            value = self._read_path(alloc_id, path, allow_uninit=False,
                                    what=f"place {place}")
            if proj.kind == "deref":
                alloc_id, path = self._deref_value(thread, value, place)
            elif proj.kind == "field":
                # Fallback autoderef (the builder inserts explicit derefs
                # when types are known; unknown types land here).
                hops = 0
                while isinstance(value, (Pointer, BoxValue, RcValue,
                                         GuardValue)) and hops < 4:
                    hops += 1
                    alloc_id, path = self._deref_value(thread, value, place)
                    value = self._read_path(alloc_id, path,
                                            allow_uninit=False,
                                            what=f"place {place}")
                element = self._field_key(value, proj.field_index,
                                          proj.field_name)
                path = path + (element,)
            elif proj.kind == "index":
                if proj.index_local is not None:
                    index = self._read_local(frame, proj.index_local)
                else:
                    index = proj.index_const
                hops = 0
                while isinstance(value, (Pointer, BoxValue, RcValue,
                                         GuardValue)) and hops < 4:
                    hops += 1
                    alloc_id, path = self._deref_value(thread, value, place)
                    value = self._read_path(alloc_id, path,
                                            allow_uninit=False,
                                            what=f"place {place}")
                if isinstance(value, VecValue):
                    self.memory.check_live(value.buffer, "Vec buffer")
                    alloc_id, path = value.buffer, (index,)
                elif isinstance(value, MapValue):
                    alloc_id, path = value.buffer, (index,)
                elif isinstance(value, StringValue):
                    path = path + (index,)
                else:
                    path = path + (index,)
        return alloc_id, path

    def _field_key(self, value: Any, index: int, name: str):
        if isinstance(value, StructValue):
            if name:
                idx = value.index_of(name)
                if idx is not None:
                    return idx
            return index
        return index

    def _deref_value(self, thread: ThreadCtx, value: Any,
                     place: Place) -> Tuple[int, Tuple]:
        fn_key = thread.frame.body.key if thread.frames else ""
        if isinstance(value, Pointer):
            if value.null:
                raise UBError(UBKind.NULL_DEREF,
                              "null pointer dereference", fn_key=fn_key)
            self.memory.check_live(value.alloc_id, "pointer target")
            return value.alloc_id, value.path
        if isinstance(value, BoxValue):
            self.memory.check_live(value.target, "Box contents")
            return value.target, ()
        if isinstance(value, RcValue):
            self.memory.check_live(value.target, "Rc/Arc contents")
            return value.target, ()
        if isinstance(value, GuardValue):
            if value.released:
                raise UBError(UBKind.USE_AFTER_FREE,
                              "lock guard used after release", fn_key=fn_key)
            self.memory.check_live(value.inner, "guarded value")
            return value.inner, ()
        if isinstance(value, VecValue):
            self.memory.check_live(value.buffer, "Vec buffer")
            return value.buffer, ()
        if value is UNINIT:
            raise UBError(UBKind.UNINIT_READ,
                          f"dereference of uninitialised pointer `{place}`",
                          fn_key=fn_key)
        raise UBError(UBKind.NULL_DEREF,
                      f"cannot dereference value {value!r}", fn_key=fn_key)

    # -- memory tree access ---------------------------------------------------------------------

    def _read_path(self, alloc_id: int, path: Tuple, allow_uninit: bool,
                   what: str = "memory") -> Any:
        alloc = self.memory.check_live(alloc_id, what)
        value = alloc.value
        for element in path:
            value = self._index_value(value, element, what)
        if value is UNINIT and not allow_uninit:
            raise UBError(UBKind.UNINIT_READ,
                          f"read of uninitialised {what}")
        if value is MOVED and not allow_uninit:
            raise UBError(UBKind.UNINIT_READ,
                          f"read of moved-out {what}")
        return value

    def _index_value(self, value: Any, element, what: str) -> Any:
        if isinstance(value, StructValue):
            if isinstance(element, int) and element < len(value.fields):
                return value.fields[element]
            raise UBError(UBKind.OUT_OF_BOUNDS,
                          f"field {element} out of range in {what}")
        if isinstance(value, EnumValue):
            if isinstance(element, int) and element < len(value.payload):
                return value.payload[element]
            raise UBError(UBKind.OUT_OF_BOUNDS,
                          f"payload {element} out of range in {what}")
        if isinstance(value, TupleValue):
            if isinstance(element, int) and element < len(value.elements):
                return value.elements[element]
            raise UBError(UBKind.OUT_OF_BOUNDS,
                          f"tuple index {element} out of range")
        if isinstance(value, list):
            if isinstance(element, int) and 0 <= element < len(value):
                return value[element]
            raise UBError(UBKind.OUT_OF_BOUNDS,
                          f"index {element} out of bounds (len {len(value)})")
        if isinstance(value, dict):
            if element in value:
                return value[element]
            raise RuntimePanic(f"key {element!r} not found")
        if isinstance(value, StringValue):
            text = value.text
            if isinstance(element, int) and 0 <= element < len(text):
                return text[element]
            raise UBError(UBKind.OUT_OF_BOUNDS, "string index out of bounds")
        if isinstance(value, VecValue):
            # Auto-step through the handle into its buffer.
            buffer = self.memory.check_live(value.buffer, what).value
            return self._index_value(buffer, element, what)
        if value is UNINIT:
            raise UBError(UBKind.UNINIT_READ,
                          f"projection through uninitialised {what}")
        raise UBError(UBKind.OUT_OF_BOUNDS,
                      f"cannot project {element!r} into {value!r}")

    def _write_path(self, alloc_id: int, path: Tuple, new_value: Any,
                    what: str = "memory") -> Any:
        """Write, returning the overwritten value."""
        alloc = self.memory.check_live(alloc_id, what)
        if not path:
            old = alloc.value
            alloc.value = new_value
            return old
        container = alloc.value
        for element in path[:-1]:
            container = self._index_value(container, element, what)
        last = path[-1]
        if isinstance(container, VecValue):
            container = self.memory.check_live(container.buffer, what).value
        if isinstance(container, StructValue):
            old = container.fields[last] if last < len(container.fields) \
                else UNINIT
            while len(container.fields) <= last:
                container.fields.append(UNINIT)
            container.fields[last] = new_value
            return old
        if isinstance(container, EnumValue):
            while len(container.payload) <= last:
                container.payload.append(UNINIT)
            old = container.payload[last]
            container.payload[last] = new_value
            return old
        if isinstance(container, TupleValue):
            while len(container.elements) <= last:
                container.elements.append(UNINIT)
            old = container.elements[last]
            container.elements[last] = new_value
            return old
        if isinstance(container, list):
            if not (isinstance(last, int) and 0 <= last < len(container)):
                raise UBError(UBKind.OUT_OF_BOUNDS,
                              f"write index {last} out of bounds "
                              f"(len {len(container)})")
            old = container[last]
            container[last] = new_value
            return old
        if isinstance(container, dict):
            old = container.get(last, UNINIT)
            container[last] = new_value
            return old
        raise UBError(UBKind.OUT_OF_BOUNDS,
                      f"cannot write through {container!r}")

    # -- operand / rvalue evaluation --------------------------------------------------------------

    def eval_operand(self, thread: ThreadCtx, operand: Operand) -> Any:
        if operand.is_const:
            value = operand.constant.value
            if isinstance(value, str):
                return StringValue(value)
            return value
        alloc_id, path = self.eval_place(thread, operand.place)
        value = self._read_path(alloc_id, path, allow_uninit=False,
                                what=str(operand.place))
        self._record_access(thread, alloc_id, is_write=False)
        if operand.is_move:
            self._write_path(alloc_id, path, MOVED)
            return value
        return deep_copy(value)

    def eval_rvalue(self, thread: ThreadCtx, rvalue: Rvalue, span) -> Any:
        kind = rvalue.kind
        if kind is RvalueKind.USE:
            return self.eval_operand(thread, rvalue.operands[0])
        if kind in (RvalueKind.REF, RvalueKind.ADDRESS_OF):
            alloc_id, path = self.eval_place(thread, rvalue.place)
            return Pointer(alloc_id, path, rvalue.mutable)
        if kind is RvalueKind.BINARY:
            left = self.eval_operand(thread, rvalue.operands[0])
            right = self.eval_operand(thread, rvalue.operands[1])
            return self._binary(rvalue.bin_op, left, right, span,
                                thread.frame.body.key)
        if kind is RvalueKind.UNARY:
            value = self.eval_operand(thread, rvalue.operands[0])
            if rvalue.un_op is UnOpKind.NEG:
                return -value
            if isinstance(value, bool):
                return not value
            return ~value
        if kind is RvalueKind.CAST:
            value = self.eval_operand(thread, rvalue.operands[0])
            if rvalue.cast_kind is CastKind.INT_TO_RAW:
                if value == 0:
                    return Pointer.null_ptr()
                return value
            if rvalue.cast_kind is CastKind.NUMERIC and \
                    isinstance(value, (int, float, str)):
                target = rvalue.cast_ty
                if target.kind is TyKind.INT:
                    return int(value)
                if target.kind is TyKind.FLOAT:
                    return float(value)
            return value
        if kind is RvalueKind.AGGREGATE:
            return self._aggregate(thread, rvalue)
        if kind is RvalueKind.LEN:
            alloc_id, path = self.eval_place(thread, rvalue.place)
            value = self._read_path(alloc_id, path, allow_uninit=False,
                                    what="len operand")
            return self._len_of(value)
        if kind is RvalueKind.DISCRIMINANT:
            alloc_id, path = self.eval_place(thread, rvalue.place)
            value = self._read_path(alloc_id, path, allow_uninit=False,
                                    what="discriminant operand")
            if isinstance(value, EnumValue):
                return value.variant_index
            if isinstance(value, bool):
                return 1 if value else 0
            if isinstance(value, int):
                return value
            return 0
        if kind is RvalueKind.REPEAT:
            element = self.eval_operand(thread, rvalue.operands[0])
            count = self.eval_operand(thread, rvalue.operands[1])
            return [deep_copy(element) for _ in range(int(count))]
        raise InterpError(f"cannot evaluate rvalue {rvalue}")

    def _len_of(self, value: Any) -> int:
        if isinstance(value, VecValue):
            return len(self.memory.check_live(value.buffer, "Vec").value)
        if isinstance(value, MapValue):
            return len(self.memory.check_live(value.buffer, "Map").value)
        if isinstance(value, list):
            return len(value)
        if isinstance(value, StringValue):
            return len(value.text)
        if isinstance(value, Pointer):
            target = self._read_path(value.alloc_id, value.path, True)
            return self._len_of(target)
        if isinstance(value, RangeValue):
            return max(0, (value.hi or 0) - value.lo)
        if isinstance(value, (StructValue, EnumValue)):
            return 0
        return 0

    def _binary(self, op: BinOpKind, left: Any, right: Any, span,
                fn_key: str) -> Any:
        if isinstance(left, StringValue):
            left = left.text
        if isinstance(right, StringValue):
            right = right.text
        if op is BinOpKind.ADD:
            if isinstance(left, str):
                return StringValue(left + str(right))
            return left + right
        if op is BinOpKind.SUB:
            return left - right
        if op is BinOpKind.MUL:
            return left * right
        if op is BinOpKind.DIV:
            if right == 0:
                raise RuntimePanic("attempt to divide by zero", span, fn_key)
            return left // right if isinstance(left, int) else left / right
        if op is BinOpKind.REM:
            if right == 0:
                raise RuntimePanic("attempt to calculate the remainder with "
                                   "a divisor of zero", span, fn_key)
            return left % right
        if op is BinOpKind.BIT_AND:
            return left & right if isinstance(left, int) else (left and right)
        if op is BinOpKind.BIT_OR:
            return left | right if isinstance(left, int) else (left or right)
        if op is BinOpKind.BIT_XOR:
            return left ^ right
        if op is BinOpKind.SHL:
            return left << right
        if op is BinOpKind.SHR:
            return left >> right
        if op is BinOpKind.EQ:
            return self._values_equal(left, right)
        if op is BinOpKind.NE:
            return not self._values_equal(left, right)
        if op is BinOpKind.LT:
            return left < right
        if op is BinOpKind.LE:
            return left <= right
        if op is BinOpKind.GT:
            return left > right
        if op is BinOpKind.GE:
            return left >= right
        raise InterpError(f"unsupported binary op {op}")

    @staticmethod
    def _values_equal(left: Any, right: Any) -> bool:
        if isinstance(left, EnumValue) and isinstance(right, EnumValue):
            return (left.variant_index == right.variant_index and
                    left.payload == right.payload)
        try:
            return bool(left == right)
        except Exception:
            return left is right

    def _aggregate(self, thread: ThreadCtx, rvalue: Rvalue) -> Any:
        values = [self.eval_operand(thread, op) for op in rvalue.operands]
        kind = rvalue.aggregate_kind
        if kind is AggregateKind.TUPLE:
            return TupleValue(values)
        if kind is AggregateKind.ARRAY:
            return values
        if kind is AggregateKind.CLOSURE:
            return ClosureValue(rvalue.aggregate_name, values)
        if kind is AggregateKind.ENUM:
            return EnumValue(rvalue.variant_index or 0, values,
                             rvalue.aggregate_name)
        if kind is AggregateKind.STRUCT:
            name = rvalue.aggregate_name
            if name == "Range":
                lo = values[0] if values else 0
                hi = values[1] if len(values) > 1 else None
                inclusive = bool(values[2]) if len(values) > 2 else False
                return RangeValue(int(lo) if lo is not None else 0,
                                  int(hi) if isinstance(hi, int) else None,
                                  inclusive)
            table = self.program.item_table
            field_names: List[str] = []
            if table is not None:
                info = table.structs.get(name)
                if info is not None:
                    field_names = [f for f, _ in info.fields]
            return StructValue(name, values, field_names)
        raise InterpError(f"unsupported aggregate {kind}")

    # -- drop glue ---------------------------------------------------------------------------------

    def drop_value(self, thread: ThreadCtx, value: Any) -> None:
        if value is UNINIT or value is MOVED or value is None:
            return
        if isinstance(value, BoxValue):
            alloc = self.memory.get(value.target)
            inner = alloc.value
            self.memory.free(value.target, "Box allocation")
            self.drop_value(thread, inner)
            return
        if isinstance(value, VecValue):
            alloc = self.memory.get(value.buffer)
            elements = list(alloc.value) if isinstance(alloc.value, list) \
                else []
            self.memory.free(value.buffer, "Vec buffer")
            for element in elements:
                self.drop_value(thread, element)
            return
        if isinstance(value, MapValue):
            alloc = self.memory.get(value.buffer)
            entries = list(alloc.value.values()) \
                if isinstance(alloc.value, dict) else []
            self.memory.free(value.buffer, "Map buffer")
            for element in entries:
                self.drop_value(thread, element)
            return
        if isinstance(value, RcValue):
            if value.weak:
                return
            value.counter[0] -= 1
            if value.counter[0] == 0:
                inner = self.memory.get(value.target).value
                self.memory.free(value.target, "Rc/Arc allocation")
                self.drop_value(thread, inner)
            elif value.counter[0] < 0:
                raise UBError(UBKind.DOUBLE_FREE,
                              "Rc/Arc reference count underflow "
                              "(ownership was duplicated)")
            return
        if isinstance(value, MutexValue):
            inner = self.memory.get(value.inner).value
            self.memory.free(value.inner, "Mutex allocation")
            self.drop_value(thread, inner)
            return
        if isinstance(value, GuardValue):
            self._release_guard(thread, value)
            return
        if isinstance(value, ChannelEnd):
            channel = self.channels.get(value.channel_id)
            if channel is not None:
                if value.is_sender:
                    channel.senders -= 1
                    self._wake_channel_waiters(value.channel_id)
                else:
                    channel.receivers -= 1
            return
        if isinstance(value, StructValue):
            for element in value.fields:
                self.drop_value(thread, element)
            return
        if isinstance(value, EnumValue):
            for element in value.payload:
                self.drop_value(thread, element)
            return
        if isinstance(value, TupleValue):
            for element in value.elements:
                self.drop_value(thread, element)
            return
        if isinstance(value, list):
            for element in value:
                self.drop_value(thread, element)
            return
        if isinstance(value, ClosureValue):
            for element in value.captures:
                self.drop_value(thread, element)
            return
        # Scalars, pointers, strings, atomics, handles without drop glue.

    # -- lock runtime ----------------------------------------------------------------------------------

    def _lock_state(self, lock_id: int, kind: str = "mutex") -> _LockState:
        state = self.locks.get(lock_id)
        if state is None:
            state = _LockState(kind=kind)
            self.locks[lock_id] = state
        return state

    def _try_acquire(self, thread: ThreadCtx, lock_id: int,
                     mode: str) -> bool:
        state = self._lock_state(lock_id)
        tid = thread.thread_id
        if mode == "write":
            if state.writer is None and not state.readers:
                state.writer = tid
                thread.held_locks.append((lock_id, "write"))
                return True
            if state.writer == tid:
                raise DeadlockError(
                    f"thread {tid} acquires a lock it already holds "
                    f"(double lock)", {tid: f"lock {lock_id}"})
            if tid in state.readers:
                raise DeadlockError(
                    f"thread {tid} upgrades read→write on a lock it holds "
                    f"(read/write double lock)", {tid: f"lock {lock_id}"})
            return False
        # read mode
        if state.writer is None:
            state.readers[tid] = state.readers.get(tid, 0) + 1
            thread.held_locks.append((lock_id, "read"))
            return True
        if state.writer == tid:
            raise DeadlockError(
                f"thread {tid} acquires read lock while holding the write "
                f"lock (double lock)", {tid: f"lock {lock_id}"})
        return False

    def _release_lock(self, thread: ThreadCtx, lock_id: int,
                      mode: str, tid: Optional[int] = None) -> None:
        state = self._lock_state(lock_id)
        owner = thread.thread_id if tid is None else tid
        if mode == "write":
            if state.writer == owner:
                state.writer = None
        else:
            count = state.readers.get(owner, 0)
            if count <= 1:
                state.readers.pop(owner, None)
            else:
                state.readers[owner] = count - 1
        try:
            thread.held_locks.remove((lock_id, mode))
        except ValueError:
            pass
        self._wake_lock_waiters(lock_id)

    def _release_guard(self, thread: ThreadCtx, guard: GuardValue) -> None:
        if guard.released:
            return
        guard.released = True
        self._release_lock(thread, guard.lock_id, guard.mode)

    def _wake_lock_waiters(self, lock_id: int) -> None:
        for other in self.threads:
            if other.state is ThreadState.BLOCKED and \
                    other.block_reason.startswith("lock") and \
                    other.block_object == lock_id:
                other.state = ThreadState.RUNNABLE
                other.block_reason = ""
                other.block_object = None

    def _wake_channel_waiters(self, channel_id: int) -> None:
        for other in self.threads:
            if other.state is ThreadState.BLOCKED and \
                    other.block_reason.startswith("channel") and \
                    other.block_object == channel_id:
                other.state = ThreadState.RUNNABLE
                other.block_reason = ""
                other.block_object = None

    def _block(self, thread: ThreadCtx, reason: str,
               obj: Optional[int]) -> None:
        thread.state = ThreadState.BLOCKED
        thread.block_reason = reason
        thread.block_object = obj

    # -- race detection (approximate) --------------------------------------------------------------------

    def _record_access(self, thread: ThreadCtx, alloc_id: int,
                       is_write: bool) -> None:
        if not self.detect_races:
            return
        alloc = self.memory._allocations.get(alloc_id)
        if alloc is None or alloc.kind == "stack":
            return
        tid = thread.thread_id
        locks = frozenset(l for l, _m in thread.held_locks)
        log = self._race_log.setdefault(alloc_id, {})
        for other_tid, (other_write, other_locks, other_step) in log.items():
            if other_tid == tid:
                continue
            if not (is_write or other_write):
                continue
            if locks & other_locks:
                continue
            # Approximate happens-before: accesses from before this thread
            # was spawned cannot race with it.
            if other_step < thread.spawned_at_step:
                continue
            self.races.append(RaceRecord(
                alloc_id=alloc_id, first_thread=other_tid,
                second_thread=tid,
                message=f"unsynchronised {'write' if is_write else 'read'} "
                        f"by thread {tid} races with "
                        f"{'write' if other_write else 'read'} by thread "
                        f"{other_tid} on allocation "
                        f"{alloc.label or alloc_id}"))
        log[tid] = (is_write, locks, self.steps)

    # -- the step function -------------------------------------------------------------------------------

    def _step(self, thread: ThreadCtx) -> None:
        frame = thread.frame
        block = frame.body.blocks[frame.block]
        if frame.stmt_index < len(block.statements):
            stmt = block.statements[frame.stmt_index]
            frame.stmt_index += 1
            try:
                self._exec_statement(thread, stmt)
            except (UBError, RuntimePanic) as exc:
                self._attach_context(exc, stmt.span, frame.body.key)
                raise
            return
        term = block.terminator
        if term is None:
            self._return_from_frame(thread, None)
            return
        try:
            self._exec_terminator(thread, term)
        except (UBError, RuntimePanic) as exc:
            self._attach_context(exc, term.span, frame.body.key)
            raise

    @staticmethod
    def _droppable(value: Any) -> bool:
        return isinstance(value, (StructValue, EnumValue, TupleValue,
                                  VecValue, BoxValue, RcValue, MutexValue,
                                  MapValue, StringValue, GuardValue))

    @staticmethod
    def _attach_context(exc, span, fn_key: str) -> None:
        if getattr(exc, "span", None) is None:
            exc.span = span
        if not getattr(exc, "fn_key", ""):
            exc.fn_key = fn_key

    def _exec_statement(self, thread: ThreadCtx, stmt: Statement) -> None:
        frame = thread.frame
        if stmt.kind is StatementKind.ASSIGN:
            value = self.eval_rvalue(thread, stmt.rvalue, stmt.span)
            alloc_id, path = self.eval_place(thread, stmt.place)
            self._record_access(thread, alloc_id, is_write=True)
            # The Figure 6 invalid free: `*raw = value` runs drop glue on
            # the old contents; if the allocation was never initialised,
            # that frees garbage.
            if stmt.place.has_deref and self._droppable(value):
                base_ty = frame.body.local_ty(stmt.place.local)
                if base_ty.is_raw_ptr:
                    current = self._read_path(alloc_id, path,
                                              allow_uninit=True,
                                              what=str(stmt.place))
                    if current is UNINIT:
                        raise UBError(
                            UBKind.INVALID_FREE,
                            "assignment through raw pointer drops the old "
                            "value, but the memory is uninitialised "
                            "(use ptr::write)", stmt.span,
                            frame.body.key)
            old = self._write_path(alloc_id, path, value,
                                   what=str(stmt.place))
            # Rust semantics: assignment drops the overwritten value.  The
            # Figure 6 invalid-free arises exactly here when `old` is
            # garbage from uninitialised memory — our UNINIT sentinel makes
            # that a silent no-op unless the target is a raw allocation
            # that was never initialised, which we flag when asked to.
            if old is not UNINIT and old is not MOVED and old != value \
                    and stmt.place.projection:
                self.drop_value(thread, old)
            elif old is not UNINIT and old is not MOVED \
                    and stmt.place.is_local:
                pass   # whole-local overwrite: previous value handled by moves
            return
        if stmt.kind is StatementKind.STORAGE_LIVE:
            self.memory.revive_stack(frame.locals_alloc[stmt.local])
            return
        if stmt.kind is StatementKind.STORAGE_DEAD:
            self.memory.mark_dead_stack(frame.locals_alloc[stmt.local])
            return
        if stmt.kind is StatementKind.DROP:
            alloc_id, path = self.eval_place(thread, stmt.place)
            value = self._read_path(alloc_id, path, allow_uninit=True,
                                    what=str(stmt.place))
            if value is UNINIT or value is MOVED:
                return
            self._write_path(alloc_id, path, MOVED)
            self.drop_value(thread, value)
            return
        # NOP / SET_DISCRIMINANT: nothing.

    def _exec_terminator(self, thread: ThreadCtx, term: Terminator) -> None:
        frame = thread.frame
        if term.kind is TerminatorKind.GOTO:
            frame.block = term.target
            frame.stmt_index = 0
            return
        if term.kind is TerminatorKind.SWITCH_INT:
            value = self.eval_operand(thread, term.discr)
            if isinstance(value, bool):
                value = 1 if value else 0
            target = term.otherwise
            for case, bb in term.switch_targets:
                if value == case:
                    target = bb
                    break
            frame.block = target
            frame.stmt_index = 0
            return
        if term.kind is TerminatorKind.ASSERT:
            if self.enable_bounds_checks:
                self.bounds_checks += 1
                cond = self.eval_operand(thread, term.cond)
                if bool(cond) != term.expected:
                    raise RuntimePanic(term.msg or "assertion failed",
                                       term.span, frame.body.key)
            frame.block = term.target
            frame.stmt_index = 0
            return
        if term.kind is TerminatorKind.RETURN:
            value = self._read_path(frame.locals_alloc[0], (),
                                    allow_uninit=True, what="return value")
            self._return_from_frame(thread, value)
            return
        if term.kind is TerminatorKind.CALL:
            self._exec_call(thread, term)
            return
        if term.kind is TerminatorKind.UNREACHABLE:
            raise RuntimePanic("entered unreachable code", term.span,
                               frame.body.key)
        if term.kind is TerminatorKind.ABORT:
            thread.state = ThreadState.PANICKED
            thread.panic_message = "abort"
            return
        if term.kind is TerminatorKind.RESUME:
            # Landing pads exist for the static analyses; the interpreter
            # unwinds via exceptions and never jumps to them.  Reaching
            # one means unwinding continues.
            raise RuntimePanic("resumed unwinding", term.span,
                               frame.body.key)
        raise InterpError(f"unsupported terminator {term.kind}")

    def _return_from_frame(self, thread: ThreadCtx, value: Any) -> None:
        thread.last_return = value
        frame = thread.frames.pop()
        # Free remaining stack slots of the frame (dangling pointers into
        # them become detectable).
        for local, alloc_id in frame.locals_alloc.items():
            alloc = self.memory._allocations.get(alloc_id)
            if alloc is not None and alloc.kind == "stack":
                self.memory.mark_dead_stack(alloc_id)
        if not thread.frames:
            thread.result = value
            thread.state = ThreadState.DONE
            # Wake joiners.
            for other in self.threads:
                if other.state is ThreadState.BLOCKED and \
                        other.block_reason == "join" and \
                        other.block_object == thread.thread_id:
                    other.state = ThreadState.RUNNABLE
                    other.block_reason = ""
                    other.block_object = None
            return
        caller = thread.frame
        if frame.dest_place is not None:
            alloc_id, path = self.eval_place(thread, frame.dest_place)
            self._write_path(alloc_id, path, value, what="call destination")
        if frame.return_block is not None:
            caller.block = frame.return_block
            caller.stmt_index = 0

    # -- calls ----------------------------------------------------------------------------------------------

    def _exec_call(self, thread: ThreadCtx, term: Terminator) -> None:
        frame = thread.frame
        func = term.func
        if func is None:
            frame.block = term.target
            frame.stmt_index = 0
            return

        if func.kind in (FuncKind.USER, FuncKind.CLOSURE):
            callee = self.program.functions.get(func.user_fn or func.name)
            if callee is None:
                self._write_call_result(thread, term, None)
                return
            args = [self.eval_operand(thread, a) for a in term.args]
            if func.kind is FuncKind.CLOSURE and args and \
                    isinstance(args[0], ClosureValue):
                closure = args[0]
                args = args[1:] + list(closure.captures)
            new_frame = self._make_frame(callee, args)
            new_frame.dest_place = term.destination
            new_frame.return_block = term.target
            thread.frames.append(new_frame)
            return

        if func.kind is FuncKind.UNKNOWN:
            for a in term.args:
                self.eval_operand(thread, a)
            self._write_call_result(thread, term, None)
            return

        # Builtin.
        result = self._call_builtin(thread, term, func.builtin_op,
                                    [a for a in term.args])
        if result is not _SUSPENDED:
            self._write_call_result(thread, term, result)

    def _write_call_result(self, thread: ThreadCtx, term: Terminator,
                           value: Any) -> None:
        frame = thread.frame
        if term.destination is not None:
            alloc_id, path = self.eval_place(thread, term.destination)
            self._write_path(alloc_id, path, value, what="call destination")
        frame.block = term.target
        frame.stmt_index = 0

    # -- builtin semantics --------------------------------------------------------------------------------------

    def _deref_receiver(self, thread: ThreadCtx, value: Any,
                        what: str = "receiver") -> Tuple[int, Tuple]:
        """Builtin receivers arrive as Pointers to the receiver place."""
        if isinstance(value, Pointer):
            self.memory.check_live(value.alloc_id, what)
            return value.alloc_id, value.path
        raise InterpError(f"builtin receiver is not a pointer: {value!r}")

    def _receiver_value(self, thread: ThreadCtx, value: Any,
                        what: str = "receiver") -> Any:
        alloc_id, path = self._deref_receiver(thread, value, what)
        out = self._read_path(alloc_id, path, allow_uninit=False, what=what)
        # Transparently unwrap handles that builtins operate *through*.
        hops = 0
        while isinstance(out, (BoxValue, RcValue, GuardValue, Pointer)) \
                and hops < 8:
            hops += 1
            if isinstance(out, Pointer):
                if out.null:
                    raise UBError(UBKind.NULL_DEREF,
                                  "null pointer method receiver")
                out = self._read_path(out.alloc_id, out.path, False, what)
            elif isinstance(out, BoxValue):
                out = self._read_path(out.target, (), False, what)
            elif isinstance(out, RcValue):
                out = self._read_path(out.target, (), False, what)
            elif isinstance(out, GuardValue):
                if out.released:
                    raise UBError(UBKind.USE_AFTER_FREE,
                                  "guard used after release")
                out = self._read_path(out.inner, (), False, what)
        return out

    def _call_builtin(self, thread: ThreadCtx, term: Terminator,
                      op: BuiltinOp, arg_ops: List[Operand]) -> Any:
        from repro.mir.builtins_impl import dispatch_builtin
        return dispatch_builtin(self, thread, term, op, arg_ops)


#: Sentinel returned by builtins that blocked the thread (no result yet).
_SUSPENDED = object()


def run_program(program: Program, entry: str = "main",
                schedule: Optional[ScheduleConfig] = None,
                detect_races: bool = False) -> RunResult:
    """Convenience wrapper: interpret ``program`` from ``entry``."""
    interp = Interpreter(program, schedule=schedule,
                         detect_races=detect_races)
    return interp.run(entry)


def explore_schedules(program: Program, entry: str = "main",
                      seeds: Optional[List[int]] = None,
                      quantum: int = 3,
                      max_steps: int = 400_000) -> List[RunResult]:
    """Run the program under several deterministic interleavings and
    collect every distinct outcome — the paper's dynamic detectors "rely
    on user-provided inputs that can trigger" the bug; varying the
    schedule is our equivalent for concurrency bugs."""
    results = []
    for seed in seeds if seeds is not None else range(8):
        config = ScheduleConfig(quantum=quantum, seed=seed,
                                max_steps=max_steps)
        results.append(run_program(program, entry, schedule=config))
    return results
