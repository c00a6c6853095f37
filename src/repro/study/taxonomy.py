"""Label vocabularies for the empirical study — one enum per dimension the
paper classifies along."""

from __future__ import annotations

import enum


class Project(enum.Enum):
    """Studied software (Table 1), plus the vulnerability databases."""

    SERVO = "Servo"
    TOCK = "Tock"
    ETHEREUM = "Ethereum"
    TIKV = "TiKV"
    REDOX = "Redox"
    LIBRARIES = "libraries"
    CVE = "CVE/RustSec"


#: Five studied applications in table order.
TABLE1_PROJECTS = [Project.SERVO, Project.TOCK, Project.ETHEREUM,
                   Project.TIKV, Project.REDOX, Project.LIBRARIES]


class BugKind(enum.Enum):
    MEMORY = "memory"
    BLOCKING = "blocking"
    NON_BLOCKING = "non-blocking"


class MemoryEffect(enum.Enum):
    """Table 2 columns."""

    BUFFER_OVERFLOW = "Buffer"
    NULL_DEREF = "Null"
    UNINITIALIZED = "Uninitialized"
    INVALID_FREE = "Invalid"
    USE_AFTER_FREE = "UAF"
    DOUBLE_FREE = "Double free"


class Propagation(enum.Enum):
    """Table 2 rows: where a bug's cause and effect sit w.r.t. unsafe."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    SAFE_TO_UNSAFE = "safe -> unsafe"
    UNSAFE_TO_SAFE = "unsafe -> safe"


class FixStrategy(enum.Enum):
    """§5.2 memory-bug fixing strategies."""

    CONDITIONALLY_SKIP = "conditionally skip code"
    ADJUST_LIFETIME = "adjust lifetime"
    CHANGE_UNSAFE_OPERANDS = "change unsafe operands"
    OTHER = "other"


class SkippedCode(enum.Enum):
    """What the conditional-skip fixes skipped (§5.2)."""

    UNSAFE = "unsafe"
    INTERIOR_UNSAFE = "interior unsafe"
    SAFE = "safe"
    NOT_APPLICABLE = "n/a"


class BlockingPrimitive(enum.Enum):
    """Table 3 columns."""

    MUTEX_RWLOCK = "Mutex&Rwlock"
    CONDVAR = "Condvar"
    CHANNEL = "Channel"
    ONCE = "Once"
    OTHER = "Other"


class BlockingCause(enum.Enum):
    """§6.1 root causes."""

    DOUBLE_LOCK = "double lock"
    CONFLICTING_ORDER = "conflicting lock order"
    FORGOT_UNLOCK = "forgot unlock"
    WAIT_NO_NOTIFY = "wait without notify"
    WAIT_MUTUAL = "mutual wait"
    RECV_NO_SENDER = "recv with no sender"
    CHANNEL_MUTUAL = "channel mutual wait"
    RECV_HOLDING_LOCK = "recv while holding lock"
    SEND_FULL_CHANNEL = "send on full bounded channel"
    ONCE_RECURSION = "recursive call_once"
    BLOCKING_SYSCALL = "blocking platform API"
    BUSY_LOOP = "busy loop"
    JOIN = "blocked join"


class DoubleLockShape(enum.Enum):
    """Where the first lock of a double-lock sits (§6.1)."""

    MATCH_CONDITION = "first lock in match condition"
    IF_CONDITION = "first lock in if condition"
    OTHER = "other"
    NOT_APPLICABLE = "n/a"


class BlockingFix(enum.Enum):
    """§6.1 fix strategies for blocking bugs."""

    ADJUST_SYNC = "adjust synchronisation operations"
    GUARD_LIFETIME = "adjust lock-guard lifetime"
    OTHER = "other"


class DataSharing(enum.Enum):
    """Table 4 columns: how buggy code shares data across threads."""

    GLOBAL = "Global"               # static mutable variable (unsafe)
    POINTER = "Pointer"             # raw pointer passed across threads
    SYNC_TRAIT = "Sync"             # (unsafe) impl Sync
    OS_HARDWARE = "O.H."            # OS / hardware resources
    ATOMIC = "Atomic"               # safe: atomics
    MUTEX = "Mutex"                 # safe: Mutex / RwLock
    MESSAGE = "MSG"                 # message passing (not shared memory)

    @property
    def is_unsafe_sharing(self) -> bool:
        return self in (DataSharing.GLOBAL, DataSharing.POINTER,
                        DataSharing.SYNC_TRAIT, DataSharing.OS_HARDWARE)

    @property
    def is_safe_sharing(self) -> bool:
        return self in (DataSharing.ATOMIC, DataSharing.MUTEX)


class NonblockingIssue(enum.Enum):
    """§6.2 failure modes."""

    DATA_RACE = "data race"
    ATOMICITY_VIOLATION = "atomicity violation"
    ORDER_VIOLATION = "order violation"
    LIBRARY_MISUSE = "Rust library misuse"
    MESSAGE_ORDER = "message ordering"


class NonblockingFix(enum.Enum):
    """§6.2 fix strategies."""

    ENFORCE_ATOMICITY = "enforce atomic accesses"
    ENFORCE_ORDER = "enforce access order"
    AVOID_SHARING = "avoid shared accesses"
    LOCAL_COPY = "make a local copy"
    APP_LOGIC = "change application logic"


class UnsafeOpKind(enum.Enum):
    """§4.1 what unsafe code does."""

    MEMORY_OPERATION = "unsafe memory operation"
    UNSAFE_CALL = "call unsafe function"
    OTHER = "other"


class UnsafePurpose(enum.Enum):
    """§4.1 why unsafe code exists."""

    CODE_REUSE = "reuse existing code"
    PERFORMANCE = "performance"
    THREAD_SHARING = "share data across threads"
    OTHER_BYPASS = "other compiler-check bypassing"


class UnsafeRemovalReason(enum.Enum):
    """§4.2 why unsafe was removed."""

    MEMORY_SAFETY = "improve memory safety"
    CODE_STRUCTURE = "better code structure"
    THREAD_SAFETY = "improve thread safety"
    BUG_FIX = "bug fixing"
    UNNECESSARY = "remove unnecessary usage"


class InteriorUnsafeCheck(enum.Enum):
    """§4.3 how interior-unsafe functions ensure safety."""

    EXPLICIT_CHECK = "explicit condition check"
    INPUT_ENVIRONMENT = "correct inputs / environment"
