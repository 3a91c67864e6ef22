"""Syscall classification table.

Drives three engine decisions per syscall:

* **sharing** — ``NONDET_INPUT`` outcomes are copied master->slave when
  the calls align (the paper's outcome sharing that removes
  environmental nondeterminism);
* **sink selection** — default sink sets are built from categories
  (outgoing network syscalls for networked programs, file outputs
  otherwise, Section 8 "Instrumentation Details");
* **resource tainting** — each syscall maps to the resource it touches,
  so misalignment can taint that resource (Section 7).
"""

from __future__ import annotations

from typing import FrozenSet

from repro.lang.intrinsics import SYSCALL_BUILTINS

# Outcomes that model external nondeterminism; shared when aligned.
NONDET_INPUT: FrozenSet[str] = frozenset({"time", "rand", "getpid", "recv"})

# Syscalls with externally visible effects; candidates for sinks.
OUTPUT_SYSCALLS: FrozenSet[str] = frozenset(
    {"write", "send", "print", "mkdir", "unlink", "rename"}
)

# Input syscalls (data flows into the program).
INPUT_SYSCALLS: FrozenSet[str] = frozenset(
    {"read", "read_line", "recv", "listdir", "stat", "getenv", "source_read"}
)

# Syscalls that are always executed independently by both executions
# (the paper: "some special syscalls are always executed independently
# such as process creation").
ALWAYS_INDEPENDENT: FrozenSet[str] = frozenset(
    {"thread_spawn", "thread_join", "exit", "malloc", "free"}
)

NETWORK_OUT: FrozenSet[str] = frozenset({"send"})
FILE_OUT: FrozenSet[str] = frozenset({"write", "print"})

# Thread service calls are intercepted by the scheduler, not the kernel.
THREAD_SYSCALLS: FrozenSet[str] = frozenset(
    {"thread_spawn", "thread_join", "mutex_create", "mutex_lock", "mutex_unlock"}
)


def validate_coverage() -> None:
    """Every syscall builtin must be known to this table's universe."""
    known = (
        NONDET_INPUT
        | OUTPUT_SYSCALLS
        | INPUT_SYSCALLS
        | ALWAYS_INDEPENDENT
        | THREAD_SYSCALLS
        | {
            "open",
            "close",
            "seek",
            "socket",
            "connect",
            "sleep",
            "sink_observe",
        }
    )
    missing = set(SYSCALL_BUILTINS) - known
    if missing:
        raise AssertionError(f"unclassified syscalls: {sorted(missing)}")


validate_coverage()
