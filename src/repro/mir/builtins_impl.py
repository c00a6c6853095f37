"""Runtime semantics of every builtin operation the interpreter supports.

``dispatch_builtin`` is called from the interpreter's ``Call`` terminator
handler.  Returning the ``_SUSPENDED`` sentinel means the thread blocked
and the call terminator will re-execute when the thread wakes (lock
acquisition, channel operations, ``join``, ``Condvar::wait``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.hir.builtins import BuiltinOp
from repro.lang.types import TyKind
from repro.mir.values import (
    MOVED, UNINIT, AtomicValue, BoxValue, ChannelEnd, ClosureValue,
    CondvarValue, DeadlockError, EnumValue, ForeignValue, GuardValue,
    InterpError, MapValue, MutexValue, OnceValue, Pointer, RcValue,
    RuntimePanic, StringValue, StructValue, ThreadHandle, TupleValue,
    UBError, UBKind, VecValue, deep_copy, err, none, ok, some,
)


def _variant_name(value: EnumValue) -> str:
    return value.name.split("::")[-1] if value.name else ""


def _enum_success(value: EnumValue) -> bool:
    """Is this Some/Ok (as opposed to None/Err)?"""
    name = _variant_name(value)
    if name in ("Some", "Ok"):
        return True
    if name in ("None", "Err"):
        return False
    # Heuristic for unnamed enums produced internally.
    return bool(value.payload)


def _fmt(value: Any) -> str:
    if isinstance(value, StringValue):
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "()"
    if isinstance(value, EnumValue):
        name = _variant_name(value) or f"#{value.variant_index}"
        if value.payload:
            return f"{name}(" + ", ".join(_fmt(v) for v in value.payload) + ")"
        return name
    if isinstance(value, TupleValue):
        return "(" + ", ".join(_fmt(v) for v in value.elements) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _format_args(interp, args: List[Any]) -> str:
    if not args:
        return ""
    first = args[0]
    if isinstance(first, StringValue) and ("{}" in first.text or
                                           "{:?}" in first.text or
                                           "{:" in first.text):
        text = first.text
        rest = list(args[1:])
        out = []
        i = 0
        while i < len(text):
            if text[i] == "{":
                close = text.find("}", i)
                if close != -1:
                    out.append(_fmt(rest.pop(0)) if rest else "")
                    i = close + 1
                    continue
            out.append(text[i])
            i += 1
        return "".join(out)
    return " ".join(_fmt(a) for a in args)


def dispatch_builtin(interp, thread, term, op: BuiltinOp,
                     arg_ops) -> Any:
    from repro.mir.interp import _SUSPENDED, ThreadState

    mem = interp.memory

    # ---- operations with special argument handling (may block) -----------
    if op is BuiltinOp.CONDVAR_WAIT:
        return _condvar_wait(interp, thread, term, arg_ops)
    if op is BuiltinOp.CHANNEL_SEND:
        return _channel_send(interp, thread, term, arg_ops)

    args = [interp.eval_operand(thread, a) for a in arg_ops]

    # ---- constructors -----------------------------------------------------
    if op is BuiltinOp.BOX_NEW:
        return BoxValue(mem.allocate(args[0], "heap", "Box"))
    if op in (BuiltinOp.RC_NEW, BuiltinOp.ARC_NEW):
        return RcValue(mem.allocate(args[0], "heap", "Rc/Arc"), [1],
                       is_arc=op is BuiltinOp.ARC_NEW)
    if op in (BuiltinOp.VEC_NEW, BuiltinOp.VEC_WITH_CAPACITY):
        return VecValue(mem.allocate([], "heap", "Vec"))
    if op is BuiltinOp.VEC_MACRO:
        if term.func is not None and term.func.name == "vec_repeat!" \
                and len(args) == 2 and isinstance(args[1], int):
            buffer = [deep_copy(args[0]) for _ in range(args[1])]
        else:
            buffer = list(args)
        return VecValue(mem.allocate(buffer, "heap", "Vec"))
    if op in (BuiltinOp.MUTEX_NEW, BuiltinOp.RWLOCK_NEW,
              BuiltinOp.REFCELL_NEW, BuiltinOp.CELL_NEW,
              BuiltinOp.UNSAFECELL_NEW):
        kind = {BuiltinOp.MUTEX_NEW: "mutex", BuiltinOp.RWLOCK_NEW: "rwlock",
                BuiltinOp.REFCELL_NEW: "refcell", BuiltinOp.CELL_NEW: "cell",
                BuiltinOp.UNSAFECELL_NEW: "cell"}[op]
        inner = mem.allocate(args[0] if args else UNINIT, "heap", kind)
        return MutexValue(inner, interp._new_obj_id(), kind)
    if op is BuiltinOp.CONDVAR_NEW:
        cid = interp._new_obj_id()
        interp.condvars[cid] = []
        return CondvarValue(cid)
    if op is BuiltinOp.ONCE_NEW:
        oid = interp._new_obj_id()
        interp.onces[oid] = False
        return OnceValue(oid)
    if op is BuiltinOp.ATOMIC_NEW:
        return AtomicValue([args[0] if args else 0])
    if op is BuiltinOp.STRING_NEW:
        return StringValue("")
    if op in (BuiltinOp.STRING_FROM, BuiltinOp.TO_STRING,
              BuiltinOp.FROM_UTF8_UNCHECKED):
        if op is BuiltinOp.TO_STRING:
            value = interp._receiver_value(thread, args[0]) \
                if isinstance(args[0], Pointer) else args[0]
            return StringValue(_fmt(value))
        if args and isinstance(args[0], StringValue):
            return StringValue(args[0].text)
        if args and isinstance(args[0], VecValue):
            buf = mem.check_live(args[0].buffer, "Vec").value
            try:
                return StringValue("".join(chr(int(c)) for c in buf))
            except (ValueError, TypeError):
                return StringValue("")
        return StringValue(_fmt(args[0]) if args else "")
    if op is BuiltinOp.HASHMAP_NEW:
        return MapValue(mem.allocate({}, "heap", "HashMap"))
    if op in (BuiltinOp.CHANNEL_NEW, BuiltinOp.SYNC_CHANNEL_NEW):
        from repro.mir.interp import _ChannelState
        cid = interp._new_obj_id()
        capacity = None
        if op is BuiltinOp.SYNC_CHANNEL_NEW and args and \
                isinstance(args[0], int):
            capacity = args[0]
        interp.channels[cid] = _ChannelState(capacity=capacity)
        return TupleValue([ChannelEnd(cid, True), ChannelEnd(cid, False)])
    if op is BuiltinOp.SOME:
        return some(args[0] if args else None)
    if op is BuiltinOp.NONE:
        return none()
    if op is BuiltinOp.OK:
        return ok(args[0] if args else None)
    if op is BuiltinOp.ERR:
        return err(args[0] if args else None)

    # ---- Option / Result ----------------------------------------------------
    if op in (BuiltinOp.UNWRAP, BuiltinOp.EXPECT):
        return _unwrap(interp, thread, args, term,
                       expect_msg=_fmt(args[1]) if op is BuiltinOp.EXPECT
                       and len(args) > 1 else "")
    if op in (BuiltinOp.IS_SOME, BuiltinOp.IS_NONE, BuiltinOp.IS_OK,
              BuiltinOp.IS_ERR):
        value = _enum_arg(interp, thread, args[0])
        success = _enum_success(value)
        if op in (BuiltinOp.IS_SOME, BuiltinOp.IS_OK):
            return success
        return not success
    if op is BuiltinOp.UNWRAP_OR:
        value = _enum_arg(interp, thread, args[0])
        if _enum_success(value):
            return value.payload[0] if value.payload else None
        return args[1] if len(args) > 1 else None
    if op is BuiltinOp.OK_METHOD:
        value = _enum_arg(interp, thread, args[0])
        if _enum_success(value):
            return some(value.payload[0] if value.payload else None)
        return none()
    if op is BuiltinOp.TAKE:
        alloc_id, path = interp._deref_receiver(thread, args[0])
        value = interp._read_path(alloc_id, path, allow_uninit=False,
                                  what="Option::take receiver")
        interp._write_path(alloc_id, path, none())
        return value
    if op is BuiltinOp.MAP:
        value = _enum_arg(interp, thread, args[0])
        if _enum_success(value) and len(args) > 1 and \
                isinstance(args[1], ClosureValue):
            payload = value.payload[0] if value.payload else None
            result = interp.call_closure_sync(thread, args[1], [payload])
            return some(result)
        return none() if _variant_name(value) in ("None", "Some") else value
    if op is BuiltinOp.MAP_OR:
        value = _enum_arg(interp, thread, args[0])
        if _enum_success(value) and len(args) > 2 and \
                isinstance(args[2], ClosureValue):
            payload = value.payload[0] if value.payload else None
            return interp.call_closure_sync(thread, args[2], [payload])
        return args[1] if len(args) > 1 else None
    if op is BuiltinOp.AND_THEN:
        value = _enum_arg(interp, thread, args[0])
        if _enum_success(value) and len(args) > 1 and \
                isinstance(args[1], ClosureValue):
            payload = value.payload[0] if value.payload else None
            return interp.call_closure_sync(thread, args[1], [payload])
        return none()
    if op in (BuiltinOp.AS_REF, BuiltinOp.AS_MUT):
        alloc_id, path = interp._deref_receiver(thread, args[0])
        value = interp._read_path(alloc_id, path, allow_uninit=False,
                                  what="as_ref receiver")
        if isinstance(value, EnumValue):
            if _enum_success(value) and value.payload:
                return some(Pointer(alloc_id, path + (0,),
                                    op is BuiltinOp.AS_MUT))
            return none()
        return Pointer(alloc_id, path, op is BuiltinOp.AS_MUT)

    # ---- clone & conversion ---------------------------------------------------
    if op in (BuiltinOp.CLONE, BuiltinOp.ARC_CLONE, BuiltinOp.RC_CLONE):
        value = args[0]
        if isinstance(value, Pointer):
            value = interp._read_path(value.alloc_id, value.path, False,
                                      "clone receiver")
        return _clone_value(interp, value)
    if op is BuiltinOp.DOWNGRADE:
        value = args[0]
        if isinstance(value, Pointer):
            value = interp._read_path(value.alloc_id, value.path, False,
                                      "downgrade receiver")
        if isinstance(value, RcValue):
            return RcValue(value.target, value.counter, value.is_arc,
                           weak=True)
        return value
    if op is BuiltinOp.UPGRADE:
        value = interp._receiver_value(thread, args[0]) \
            if isinstance(args[0], Pointer) else args[0]
        if isinstance(value, RcValue) and value.counter[0] > 0:
            value.counter[0] += 1
            return some(RcValue(value.target, value.counter, value.is_arc))
        return none()
    if op is BuiltinOp.INTO:
        return args[0]
    if op is BuiltinOp.DEREF:
        alloc_id, path = interp._deref_receiver(thread, args[0])
        value = interp._read_path(alloc_id, path, False, "deref receiver")
        if isinstance(value, (BoxValue, RcValue)):
            target = value.target
            mem.check_live(target, "deref target")
            return Pointer(target, ())
        if isinstance(value, GuardValue):
            if value.released:
                raise UBError(UBKind.USE_AFTER_FREE,
                              "guard deref after release")
            return Pointer(value.inner, ())
        return Pointer(alloc_id, path)

    # ---- locks -------------------------------------------------------------------
    if op in (BuiltinOp.MUTEX_LOCK, BuiltinOp.MUTEX_TRY_LOCK,
              BuiltinOp.RWLOCK_READ, BuiltinOp.RWLOCK_WRITE,
              BuiltinOp.RWLOCK_TRY_READ, BuiltinOp.RWLOCK_TRY_WRITE):
        return _lock_acquire(interp, thread, args[0], op)
    if op in (BuiltinOp.REFCELL_BORROW, BuiltinOp.REFCELL_BORROW_MUT):
        return _refcell_borrow(interp, thread, args[0], op)
    if op is BuiltinOp.CELL_GET:
        value = interp._receiver_value(thread, args[0], "Cell")
        if isinstance(value, MutexValue):
            return deep_copy(interp._read_path(value.inner, (), False,
                                               "Cell contents"))
        return deep_copy(value)
    if op is BuiltinOp.CELL_SET:
        value = interp._receiver_value(thread, args[0], "Cell")
        if isinstance(value, MutexValue):
            interp._write_path(value.inner, (), args[1])
            interp._record_access(thread, value.inner, is_write=True)
        return None
    if op is BuiltinOp.UNSAFECELL_GET:
        value = interp._receiver_value(thread, args[0], "UnsafeCell")
        if isinstance(value, MutexValue):
            return Pointer(value.inner, (), mutable=True)
        return Pointer.null_ptr()

    # ---- condvar notify / once ------------------------------------------------------
    if op in (BuiltinOp.CONDVAR_NOTIFY_ONE, BuiltinOp.CONDVAR_NOTIFY_ALL):
        cv = interp._receiver_value(thread, args[0], "Condvar")
        if isinstance(cv, CondvarValue):
            waiting = interp.condvars.get(cv.condvar_id, [])
            count = 1 if op is BuiltinOp.CONDVAR_NOTIFY_ONE else len(waiting)
            for _ in range(min(count, len(waiting))):
                tid = waiting.pop(0)
                target = interp.threads[tid]
                target.notified = True
                target.state = ThreadState.RUNNABLE
                target.block_reason = ""
                target.block_object = None
        return None
    if op is BuiltinOp.ONCE_CALL_ONCE:
        once = interp._receiver_value(thread, args[0], "Once")
        if isinstance(once, OnceValue):
            state = interp.onces.get(once.once_id, False)
            if state == "running":
                raise DeadlockError(
                    "call_once re-entered while its initialiser is running "
                    "(recursive call_once)",
                    {thread.thread_id: f"once {once.once_id}"})
            if state is False:
                interp.onces[once.once_id] = "running"
                closure = next((a for a in args[1:]
                                if isinstance(a, ClosureValue)), None)
                if closure is not None:
                    interp.call_closure_sync(thread, closure, [])
                interp.onces[once.once_id] = True
        return None

    # ---- channels ---------------------------------------------------------------------
    if op in (BuiltinOp.CHANNEL_RECV, BuiltinOp.CHANNEL_TRY_RECV):
        end = interp._receiver_value(thread, args[0], "Receiver")
        if not isinstance(end, ChannelEnd):
            return err(StringValue("RecvError"))
        channel = interp.channels.get(end.channel_id)
        if channel is None:
            return err(StringValue("RecvError"))
        if channel.queue:
            value = channel.queue.pop(0)
            interp._wake_channel_waiters(end.channel_id)
            return ok(value)
        if channel.senders <= 0 or op is BuiltinOp.CHANNEL_TRY_RECV:
            return err(StringValue("RecvError"))
        interp._block(thread, "channel-recv", end.channel_id)
        return _SUSPENDED

    # ---- atomics ----------------------------------------------------------------------
    if op in (BuiltinOp.ATOMIC_LOAD, BuiltinOp.ATOMIC_STORE,
              BuiltinOp.ATOMIC_CAS, BuiltinOp.ATOMIC_CAE,
              BuiltinOp.ATOMIC_FETCH_ADD, BuiltinOp.ATOMIC_FETCH_SUB,
              BuiltinOp.ATOMIC_SWAP):
        atomic = interp._receiver_value(thread, args[0], "atomic")
        if not isinstance(atomic, AtomicValue):
            raise InterpError(f"atomic op on non-atomic {atomic!r}")
        cell = atomic.cell
        rest = args[1:]
        if op is BuiltinOp.ATOMIC_LOAD:
            return cell[0]
        if op is BuiltinOp.ATOMIC_STORE:
            cell[0] = rest[0] if rest else 0
            return None
        if op is BuiltinOp.ATOMIC_CAS:
            old = cell[0]
            if old == rest[0]:
                cell[0] = rest[1]
            return old
        if op is BuiltinOp.ATOMIC_CAE:
            old = cell[0]
            if old == rest[0]:
                cell[0] = rest[1]
                return ok(old)
            return err(old)
        if op is BuiltinOp.ATOMIC_FETCH_ADD:
            old = cell[0]
            cell[0] = old + (rest[0] if rest else 1)
            return old
        if op is BuiltinOp.ATOMIC_FETCH_SUB:
            old = cell[0]
            cell[0] = old - (rest[0] if rest else 1)
            return old
        if op is BuiltinOp.ATOMIC_SWAP:
            old = cell[0]
            cell[0] = rest[0] if rest else old
            return old

    # ---- threads --------------------------------------------------------------------------
    if op is BuiltinOp.THREAD_SPAWN:
        closure = next((a for a in args if isinstance(a, ClosureValue)),
                       None)
        if closure is None:
            return ThreadHandle(-1)
        body = interp.program.functions.get(closure.key)
        if body is None:
            return ThreadHandle(-1)
        new_thread = interp._spawn_thread(body, list(closure.captures))
        return ThreadHandle(new_thread.thread_id)
    if op is BuiltinOp.THREAD_JOIN:
        handle = interp._receiver_value(thread, args[0], "JoinHandle")
        if not isinstance(handle, ThreadHandle) or handle.thread_id < 0:
            return ok(None)
        target = interp.threads[handle.thread_id]
        if target.state is ThreadState.DONE:
            return ok(target.result)
        if target.state is ThreadState.PANICKED:
            return err(StringValue(target.panic_message))
        interp._block(thread, "join", handle.thread_id)
        return _SUSPENDED
    if op in (BuiltinOp.THREAD_SLEEP, BuiltinOp.THREAD_YIELD):
        return None

    # ---- Vec / slice / String ---------------------------------------------------------------
    vec_result = _vec_ops(interp, thread, term, op, args)
    if vec_result is not _NOT_HANDLED:
        return vec_result

    # ---- HashMap -------------------------------------------------------------------------------
    map_result = _map_ops(interp, thread, op, args)
    if map_result is not _NOT_HANDLED:
        return map_result

    # ---- raw memory ------------------------------------------------------------------------------
    raw_result = _raw_memory_ops(interp, thread, op, args)
    if raw_result is not _NOT_HANDLED:
        return raw_result

    # ---- I/O & misc ---------------------------------------------------------------------------------
    if op is BuiltinOp.PRINT:
        interp.stdout.append(_format_args(interp, args))
        return None
    if op is BuiltinOp.FORMAT:
        return StringValue(_format_args(interp, args))
    if op is BuiltinOp.PANIC:
        raise RuntimePanic(_format_args(interp, args) or "explicit panic")
    if op is BuiltinOp.ASSERT:
        if len(args) >= 2 and not isinstance(args[0], bool):
            if not interp._values_equal(args[0], args[1]):
                raise RuntimePanic(
                    f"assertion failed: {_fmt(args[0])} != {_fmt(args[1])}")
            return None
        if not args or not bool(args[0]):
            raise RuntimePanic("assertion failed")
        return None
    if op is BuiltinOp.UNIMPLEMENTED:
        raise RuntimePanic("not implemented")
    if op is BuiltinOp.PROCESS_EXIT:
        thread.frames.clear()
        thread.state = ThreadState.DONE
        return _SUSPENDED
    if op is BuiltinOp.GETMNTENT:
        alloc = interp.memory.allocate(
            StructValue("mntent", [StringValue("/dev/sda1")], ["mnt_fsname"]),
            "static", "mntent")
        return Pointer(alloc, (), mutable=True)
    if op is BuiltinOp.FFI:
        # Foreign code is not modelled: a unit call does nothing, and any
        # other call returns a value the run may not compute with.
        dest = term.destination
        if dest is None or thread.frame.body.local_ty(dest.local).kind \
                is TyKind.UNIT:
            return None
        return ForeignValue(term.func.name)
    if op is BuiltinOp.ITER_NEXT:
        return none()
    if op is BuiltinOp.GUARD_UNLOCK:
        value = args[0] if args else None
        if isinstance(value, Pointer):
            value = interp._read_path(value.alloc_id, value.path, False,
                                      "unlock receiver")
        if isinstance(value, GuardValue):
            interp._release_guard(thread, value)
        return None

    # Unknown builtin: benign no-op.
    return None


_NOT_HANDLED = object()


def _enum_arg(interp, thread, arg) -> EnumValue:
    """Builtin Option/Result receivers may be the value or a pointer to it."""
    value = arg
    if isinstance(value, Pointer):
        value = interp._read_path(value.alloc_id, value.path, False,
                                  "enum receiver")
    hops = 0
    while not isinstance(value, EnumValue) and hops < 4:
        hops += 1
        if isinstance(value, Pointer):
            value = interp._read_path(value.alloc_id, value.path, False,
                                      "enum receiver")
        elif isinstance(value, (BoxValue, RcValue)):
            value = interp._read_path(value.target, (), False,
                                      "enum receiver")
        else:
            break
    if not isinstance(value, EnumValue):
        # Treat any other value as Some(value) — lenient for unknown types.
        return some(value)
    return value


def _unwrap(interp, thread, args, term, expect_msg: str = "") -> Any:
    receiver = args[0]
    container: Optional[Tuple[int, Tuple]] = None
    value = receiver
    if isinstance(value, Pointer):
        container = (value.alloc_id, value.path)
        value = interp._read_path(value.alloc_id, value.path, False,
                                  "unwrap receiver")
    if not isinstance(value, EnumValue):
        return value
    if _enum_success(value):
        payload = value.payload[0] if value.payload else None
        # Move the payload out so a later drop of the container does not
        # double-drop (unwrap consumes the Result/Option).
        if container is not None and value.payload:
            value.payload[0] = MOVED
        return payload
    detail = ""
    if value.payload and value.payload[0] is not None:
        detail = f": {_fmt(value.payload[0])}"
    message = expect_msg or (
        "called `unwrap()` on a `"
        + (_variant_name(value) or "Err") + "` value" + detail)
    raise RuntimePanic(message)


def _clone_value(interp, value):
    mem = interp.memory
    if isinstance(value, RcValue):
        if not value.weak:
            value.counter[0] += 1
        return RcValue(value.target, value.counter, value.is_arc, value.weak)
    if isinstance(value, VecValue):
        buffer = mem.check_live(value.buffer, "Vec").value
        return VecValue(mem.allocate([deep_copy(v) for v in buffer],
                                     "heap", "Vec"))
    if isinstance(value, MapValue):
        buffer = mem.check_live(value.buffer, "Map").value
        return MapValue(mem.allocate(dict(buffer), "heap", "HashMap"))
    if isinstance(value, StringValue):
        return StringValue(value.text)
    if isinstance(value, BoxValue):
        inner = interp._read_path(value.target, (), False, "Box clone")
        return BoxValue(mem.allocate(_clone_value(interp, inner), "heap",
                                     "Box"))
    return deep_copy(value)


# ---------------------------------------------------------------------------
# Locks
# ---------------------------------------------------------------------------

def _lock_acquire(interp, thread, receiver, op: BuiltinOp):
    from repro.mir.interp import _SUSPENDED
    mutex = interp._receiver_value(thread, receiver, "lock receiver")
    if not isinstance(mutex, MutexValue):
        raise InterpError(f"lock on non-lock value {mutex!r}")
    mode = "write" if op in (BuiltinOp.MUTEX_LOCK, BuiltinOp.MUTEX_TRY_LOCK,
                             BuiltinOp.RWLOCK_WRITE,
                             BuiltinOp.RWLOCK_TRY_WRITE) else "read"
    is_try = op in (BuiltinOp.MUTEX_TRY_LOCK, BuiltinOp.RWLOCK_TRY_READ,
                    BuiltinOp.RWLOCK_TRY_WRITE)
    state = interp._lock_state(mutex.lock_id, mutex.kind)
    if state.poisoned:
        return err(StringValue("PoisonError"))
    if is_try:
        tid = thread.thread_id
        if mode == "write":
            available = state.writer is None and not state.readers
        else:
            available = state.writer is None
        if not available:
            return err(StringValue("WouldBlock"))
        # fall through to blocking acquire, which will now succeed
        acquired = interp._try_acquire(thread, mutex.lock_id, mode)
        if acquired:
            return ok(GuardValue(mutex.lock_id, mutex.inner, mode))
        return err(StringValue("WouldBlock"))
    acquired = interp._try_acquire(thread, mutex.lock_id, mode)
    if acquired:
        return ok(GuardValue(mutex.lock_id, mutex.inner, mode))
    interp._block(thread, f"lock {mutex.lock_id}", mutex.lock_id)
    return _SUSPENDED


def _refcell_borrow(interp, thread, receiver, op: BuiltinOp):
    cell = interp._receiver_value(thread, receiver, "RefCell")
    if not isinstance(cell, MutexValue):
        raise InterpError(f"borrow on non-RefCell {cell!r}")
    state = interp._lock_state(cell.lock_id, "refcell")
    if op is BuiltinOp.REFCELL_BORROW_MUT:
        if state.writer is not None or state.readers:
            raise RuntimePanic("already borrowed: BorrowMutError")
        state.writer = thread.thread_id
        thread.held_locks.append((cell.lock_id, "write"))
        return GuardValue(cell.lock_id, cell.inner, "write")
    if state.writer is not None:
        raise RuntimePanic("already mutably borrowed: BorrowError")
    tid = thread.thread_id
    state.readers[tid] = state.readers.get(tid, 0) + 1
    thread.held_locks.append((cell.lock_id, "read"))
    return GuardValue(cell.lock_id, cell.inner, "read")


def _condvar_wait(interp, thread, term, arg_ops):
    from repro.mir.interp import _SUSPENDED
    if thread.condvar_wait is not None:
        # Woken up: re-acquire the lock before returning the guard.
        cid, lock_id, guard = thread.condvar_wait
        if interp._try_acquire(thread, lock_id, guard.mode):
            thread.condvar_wait = None
            thread.notified = False
            guard.released = False
            return ok(guard)
        interp._block(thread, f"lock {lock_id}", lock_id)
        return _SUSPENDED
    args = [interp.eval_operand(thread, a) for a in arg_ops]
    cv = interp._receiver_value(thread, args[0], "Condvar")
    guard = args[1] if len(args) > 1 else None
    if not isinstance(cv, CondvarValue) or not isinstance(guard, GuardValue):
        return err(StringValue("WaitError"))
    # Release the lock and wait.
    interp._release_lock(thread, guard.lock_id, guard.mode)
    guard.released = True
    interp.condvars.setdefault(cv.condvar_id, []).append(thread.thread_id)
    thread.condvar_wait = (cv.condvar_id, guard.lock_id, guard)
    interp._block(thread, f"condvar {cv.condvar_id}", cv.condvar_id)
    return _SUSPENDED


def _channel_send(interp, thread, term, arg_ops):
    from repro.mir.interp import _SUSPENDED
    if thread.pending_send is not None:
        channel_id, value = thread.pending_send
        channel = interp.channels.get(channel_id)
        if channel is None or channel.receivers <= 0:
            thread.pending_send = None
            return err(StringValue("SendError"))
        if channel.capacity is not None and \
                len(channel.queue) >= channel.capacity:
            interp._block(thread, "channel-send", channel_id)
            return _SUSPENDED
        channel.queue.append(value)
        thread.pending_send = None
        interp._wake_channel_waiters(channel_id)
        return ok(None)
    args = [interp.eval_operand(thread, a) for a in arg_ops]
    end = interp._receiver_value(thread, args[0], "Sender")
    payload = args[1] if len(args) > 1 else None
    if not isinstance(end, ChannelEnd):
        return err(StringValue("SendError"))
    channel = interp.channels.get(end.channel_id)
    if channel is None or channel.receivers <= 0:
        return err(StringValue("SendError"))
    if channel.capacity is not None and \
            len(channel.queue) >= channel.capacity:
        thread.pending_send = (end.channel_id, payload)
        interp._block(thread, "channel-send", end.channel_id)
        return _SUSPENDED
    channel.queue.append(payload)
    interp._wake_channel_waiters(end.channel_id)
    return ok(None)


# ---------------------------------------------------------------------------
# Vec / slice
# ---------------------------------------------------------------------------

def _vec_buffer(interp, thread, receiver):
    """Resolve a builtin receiver pointer to ``(buffer_alloc, list)``."""
    value = interp._receiver_value(thread, receiver, "Vec receiver")
    if isinstance(value, VecValue):
        alloc = interp.memory.check_live(value.buffer, "Vec buffer")
        return value.buffer, alloc.value
    if isinstance(value, list):
        return None, value
    if isinstance(value, StringValue):
        return None, list(value.text)
    raise InterpError(f"Vec operation on {value!r}")


def _vec_ops(interp, thread, term, op: BuiltinOp, args):
    from repro.mir.interp import _SUSPENDED
    mem = interp.memory
    if op is BuiltinOp.VEC_PUSH:
        buffer_id, buffer = _vec_buffer(interp, thread, args[0])
        buffer.append(args[1] if len(args) > 1 else None)
        if buffer_id is not None:
            interp._record_access(thread, buffer_id, is_write=True)
        return None
    if op is BuiltinOp.VEC_POP:
        buffer_id, buffer = _vec_buffer(interp, thread, args[0])
        if buffer:
            if term.func is not None and term.func.name == "pop_front":
                return some(buffer.pop(0))
            return some(buffer.pop())
        return none()
    if op is BuiltinOp.VEC_LEN:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        return len(buffer)
    if op is BuiltinOp.VEC_CAPACITY:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        return max(len(buffer), 4)
    if op is BuiltinOp.VEC_IS_EMPTY:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        return not buffer
    if op in (BuiltinOp.VEC_GET, BuiltinOp.VEC_GET_MUT):
        buffer_id, buffer = _vec_buffer(interp, thread, args[0])
        index = args[1] if len(args) > 1 else 0
        if isinstance(index, int) and 0 <= index < len(buffer) \
                and buffer_id is not None:
            return some(Pointer(buffer_id, (index,),
                                op is BuiltinOp.VEC_GET_MUT))
        return none()
    if op in (BuiltinOp.VEC_GET_UNCHECKED, BuiltinOp.VEC_GET_UNCHECKED_MUT):
        interp.unchecked_accesses += 1
        buffer_id, buffer = _vec_buffer(interp, thread, args[0])
        index = args[1] if len(args) > 1 else 0
        if not isinstance(index, int) or not (0 <= index < len(buffer)):
            raise UBError(UBKind.OUT_OF_BOUNDS,
                          f"get_unchecked({index}) out of bounds "
                          f"(len {len(buffer)})")
        if buffer_id is not None:
            return Pointer(buffer_id, (index,),
                           op is BuiltinOp.VEC_GET_UNCHECKED_MUT)
        return buffer[index]
    if op in (BuiltinOp.FIRST, BuiltinOp.LAST):
        buffer_id, buffer = _vec_buffer(interp, thread, args[0])
        if not buffer:
            return none()
        index = 0 if op is BuiltinOp.FIRST else len(buffer) - 1
        if buffer_id is not None:
            return some(Pointer(buffer_id, (index,)))
        return some(buffer[index])
    if op is BuiltinOp.VEC_INSERT:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        index = args[1] if len(args) > 1 else 0
        if not (0 <= index <= len(buffer)):
            raise RuntimePanic(f"insertion index (is {index}) should be <= "
                               f"len (is {len(buffer)})")
        buffer.insert(index, args[2] if len(args) > 2 else None)
        return None
    if op is BuiltinOp.VEC_REMOVE:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        index = args[1] if len(args) > 1 else 0
        if not (0 <= index < len(buffer)):
            raise RuntimePanic(f"removal index (is {index}) should be < "
                               f"len (is {len(buffer)})")
        return buffer.pop(index)
    if op is BuiltinOp.VEC_CLEAR:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        for element in buffer:
            interp.drop_value(thread, element)
        buffer.clear()
        return None
    if op is BuiltinOp.VEC_TRUNCATE:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        new_len = args[1] if len(args) > 1 else 0
        while len(buffer) > new_len:
            interp.drop_value(thread, buffer.pop())
        return None
    if op is BuiltinOp.VEC_RESERVE:
        return None
    if op in (BuiltinOp.VEC_AS_PTR, BuiltinOp.VEC_AS_MUT_PTR):
        value = interp._receiver_value(thread, args[0], "as_ptr receiver")
        if isinstance(value, VecValue):
            mem.check_live(value.buffer, "Vec buffer")
            return Pointer(value.buffer, (0,),
                           op is BuiltinOp.VEC_AS_MUT_PTR)
        if isinstance(value, StringValue) and isinstance(args[0], Pointer):
            return Pointer(args[0].alloc_id, args[0].path)
        if isinstance(args[0], Pointer):
            return Pointer(args[0].alloc_id, args[0].path,
                           op is BuiltinOp.VEC_AS_MUT_PTR)
        return Pointer.null_ptr()
    if op is BuiltinOp.VEC_SET_LEN:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        new_len = args[1] if len(args) > 1 else 0
        if new_len > len(buffer):
            buffer.extend([UNINIT] * (new_len - len(buffer)))
        else:
            del buffer[new_len:]
        return None
    if op is BuiltinOp.VEC_FROM_RAW_PARTS:
        pointer = args[0]
        if isinstance(pointer, Pointer):
            # Shares the existing buffer: a second owner is born — dropping
            # both is the paper's double-free.
            return VecValue(pointer.alloc_id)
        return VecValue(mem.allocate([], "heap", "Vec"))
    if op is BuiltinOp.VEC_ITER:
        value = interp._receiver_value(thread, args[0], "iter receiver")
        return value
    if op is BuiltinOp.VEC_CONTAINS:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        needle = args[1] if len(args) > 1 else None
        if isinstance(needle, Pointer):
            needle = interp._read_path(needle.alloc_id, needle.path, False,
                                       "contains needle")
        return any(interp._values_equal(x, needle) for x in buffer)
    if op is BuiltinOp.VEC_EXTEND:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        other = args[1] if len(args) > 1 else None
        if isinstance(other, VecValue):
            other_buffer = mem.check_live(other.buffer, "Vec").value
            buffer.extend(deep_copy(x) for x in other_buffer)
        elif isinstance(other, list):
            buffer.extend(deep_copy(x) for x in other)
        return None
    if op is BuiltinOp.SLICE_COPY_FROM_SLICE:
        _bid, buffer = _vec_buffer(interp, thread, args[0])
        other = args[1] if len(args) > 1 else None
        source: List[Any] = []
        if isinstance(other, VecValue):
            source = mem.check_live(other.buffer, "Vec").value
        elif isinstance(other, list):
            source = other
        elif isinstance(other, Pointer):
            target = interp._read_path(other.alloc_id, other.path, False,
                                       "copy source")
            if isinstance(target, VecValue):
                source = mem.check_live(target.buffer, "Vec").value
            elif isinstance(target, list):
                source = target
        if len(source) != len(buffer):
            raise RuntimePanic("source slice length does not match "
                               "destination slice length")
        buffer[:] = [deep_copy(x) for x in source]
        return None
    return _NOT_HANDLED


def _map_ops(interp, thread, op: BuiltinOp, args):
    mem = interp.memory

    def map_dict(receiver):
        value = interp._receiver_value(thread, receiver, "Map receiver")
        if isinstance(value, MapValue):
            return value.buffer, mem.check_live(value.buffer, "Map").value
        if isinstance(value, dict):
            return None, value
        raise InterpError(f"map operation on {value!r}")

    def key_of(raw):
        if isinstance(raw, StringValue):
            return raw.text
        if isinstance(raw, Pointer):
            return key_of(interp._read_path(raw.alloc_id, raw.path, False,
                                            "map key"))
        return raw

    if op is BuiltinOp.MAP_INSERT:
        buffer_id, table = map_dict(args[0])
        key = key_of(args[1] if len(args) > 1 else None)
        old = table.get(key)
        table[key] = args[2] if len(args) > 2 else None
        if buffer_id is not None:
            interp._record_access(thread, buffer_id, is_write=True)
        return some(old) if old is not None else none()
    if op is BuiltinOp.MAP_GET:
        buffer_id, table = map_dict(args[0])
        key = key_of(args[1] if len(args) > 1 else None)
        if key in table and buffer_id is not None:
            return some(Pointer(buffer_id, (key,)))
        if key in table:
            return some(table[key])
        return none()
    if op is BuiltinOp.MAP_REMOVE:
        _bid, table = map_dict(args[0])
        key = key_of(args[1] if len(args) > 1 else None)
        if key in table:
            return some(table.pop(key))
        return none()
    if op is BuiltinOp.MAP_CONTAINS_KEY:
        _bid, table = map_dict(args[0])
        return key_of(args[1] if len(args) > 1 else None) in table
    return _NOT_HANDLED


def _raw_memory_ops(interp, thread, op: BuiltinOp, args):
    mem = interp.memory
    if op is BuiltinOp.PTR_READ:
        pointer = args[0]
        if isinstance(pointer, Pointer):
            if pointer.null:
                raise UBError(UBKind.NULL_DEREF, "ptr::read of null pointer")
            mem.check_live(pointer.alloc_id, "ptr::read target")
            value = interp._read_path(pointer.alloc_id, pointer.path, False,
                                      "ptr::read")
            # Deliberately *not* a deep copy of handles: the duplicate owns
            # the same resources — the §5.1 double-free seed.
            return deep_copy(value)
        raise UBError(UBKind.NULL_DEREF, "ptr::read of non-pointer")
    if op is BuiltinOp.PTR_WRITE:
        pointer = args[0]
        if isinstance(pointer, Pointer):
            if pointer.null:
                raise UBError(UBKind.NULL_DEREF, "ptr::write to null pointer")
            mem.check_live(pointer.alloc_id, "ptr::write target")
            interp._write_path(pointer.alloc_id, pointer.path,
                               args[1] if len(args) > 1 else None)
            interp._record_access(thread, pointer.alloc_id, is_write=True)
            return None
        raise UBError(UBKind.NULL_DEREF, "ptr::write to non-pointer")
    if op in (BuiltinOp.PTR_COPY, BuiltinOp.PTR_COPY_NONOVERLAPPING):
        src, dst = args[0], args[1] if len(args) > 1 else None
        count = args[2] if len(args) > 2 else 0
        if isinstance(src, Pointer) and isinstance(dst, Pointer):
            mem.check_live(src.alloc_id, "copy source")
            mem.check_live(dst.alloc_id, "copy destination")
            src_container = mem.get(src.alloc_id).value
            dst_container = mem.get(dst.alloc_id).value
            if isinstance(src_container, list) and \
                    isinstance(dst_container, list):
                start_s = src.path[0] if src.path else 0
                start_d = dst.path[0] if dst.path else 0
                for i in range(int(count)):
                    if start_s + i >= len(src_container):
                        raise UBError(UBKind.OUT_OF_BOUNDS,
                                      "ptr::copy source out of bounds")
                    if start_d + i >= len(dst_container):
                        raise UBError(UBKind.OUT_OF_BOUNDS,
                                      "ptr::copy destination out of bounds")
                    dst_container[start_d + i] = deep_copy(
                        src_container[start_s + i])
        return None
    if op in (BuiltinOp.PTR_NULL, BuiltinOp.PTR_NULL_MUT):
        return Pointer.null_ptr()
    if op in (BuiltinOp.PTR_OFFSET, BuiltinOp.PTR_ADD):
        pointer = interp._receiver_value(thread, args[0], "offset receiver") \
            if isinstance(args[0], Pointer) and False else args[0]
        if isinstance(pointer, Pointer) and not pointer.null:
            # Receiver convention: args[0] is &ptr — deref once.
            target = interp._read_path(pointer.alloc_id, pointer.path, False,
                                       "offset receiver")
            if isinstance(target, Pointer):
                pointer = target
        offset = args[1] if len(args) > 1 else 0
        if isinstance(pointer, Pointer) and not pointer.null:
            if pointer.path:
                base = pointer.path[-1]
                new_path = pointer.path[:-1] + (base + int(offset),)
            else:
                new_path = (int(offset),)
            return Pointer(pointer.alloc_id, new_path, pointer.mutable)
        return pointer
    if op is BuiltinOp.PTR_IS_NULL:
        pointer = args[0]
        if isinstance(pointer, Pointer):
            target = interp._read_path(pointer.alloc_id, pointer.path, True,
                                       "is_null receiver")
            if isinstance(target, Pointer):
                return target.null
            return pointer.null
        return True
    if op is BuiltinOp.ALLOC:
        return Pointer(mem.allocate(UNINIT, "heap", "alloc"), (),
                       mutable=True)
    if op is BuiltinOp.DEALLOC:
        pointer = args[0]
        if isinstance(pointer, Pointer) and not pointer.null:
            mem.free(pointer.alloc_id, "dealloc target")
        return None
    if op is BuiltinOp.MEM_DROP:
        for value in args:
            interp.drop_value(thread, value)
        return None
    if op is BuiltinOp.MEM_FORGET:
        return None
    if op is BuiltinOp.MEM_REPLACE:
        pointer = args[0]
        if isinstance(pointer, Pointer):
            old = interp._read_path(pointer.alloc_id, pointer.path, True,
                                    "mem::replace target")
            interp._write_path(pointer.alloc_id, pointer.path,
                               args[1] if len(args) > 1 else None)
            return old
        return None
    if op is BuiltinOp.MEM_SWAP:
        a, b = args[0], args[1] if len(args) > 1 else None
        if isinstance(a, Pointer) and isinstance(b, Pointer):
            va = interp._read_path(a.alloc_id, a.path, True, "swap a")
            vb = interp._read_path(b.alloc_id, b.path, True, "swap b")
            interp._write_path(a.alloc_id, a.path, vb)
            interp._write_path(b.alloc_id, b.path, va)
        return None
    if op is BuiltinOp.MEM_TRANSMUTE:
        return args[0]
    if op in (BuiltinOp.MEM_UNINITIALIZED, BuiltinOp.MAYBE_UNINIT):
        return UNINIT
    if op is BuiltinOp.MEM_ZEROED:
        return 0
    if op is BuiltinOp.MAYBE_UNINIT_ASSUME:
        value = args[0]
        if isinstance(value, Pointer):
            value = interp._read_path(value.alloc_id, value.path, True,
                                      "assume_init receiver")
        if value is UNINIT:
            raise UBError(UBKind.UNINIT_READ,
                          "assume_init on uninitialised memory")
        return value
    if op is BuiltinOp.MEM_SIZE_OF:
        return 8
    return _NOT_HANDLED
