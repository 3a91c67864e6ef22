"""Registry of MiniC intrinsic (built-in) function names.

Two families exist:

* **Pure builtins** — deterministic library helpers (string/list/math
  operations).  They never reach the virtual OS and are invisible to the
  LDX counter scheme.
* **Syscall builtins** — every interaction with the environment: file
  and socket I/O, time, randomness, process/thread services, and the
  explicit ``sink_observe`` annotation from the paper's "the user can
  also choose to annotate the sources and sinks" option.  Memory
  management library calls (``malloc``/``free``) are routed through the
  same interface because the paper uses their parameters as attack
  detection sinks.

The interpreter and the virtual OS both validate themselves against
these sets, so adding an intrinsic in one place without the other fails
fast.
"""

from __future__ import annotations

PURE_BUILTINS = frozenset(
    {
        # generic
        "len",
        "min",
        "max",
        "abs",
        "hash32",
        # conversions
        "to_str",
        "parse_int",
        "ord",
        "chr",
        # strings
        "substr",
        "str_find",
        "str_split",
        "str_join",
        "str_upper",
        "str_lower",
        "str_replace",
        "str_repeat",
        "starts_with",
        "ends_with",
        "str_strip",
        # lists
        "push",
        "pop",
        "list_new",
        "list_fill",
        "sort",
        "contains",
        "index_of",
        "slice",
        "concat",
        "reverse",
        # 32-bit wrapping arithmetic (for integer-overflow modelling)
        "i32_add",
        "i32_mul",
        "i32_sub",
        # checked helpers
        "is_nil",
        "is_str",
        "is_int",
        "is_list",
        "type_of",
    }
)

# name -> category.  Categories drive default source/sink configuration:
#   "file-in"/"file-out", "net-in"/"net-out", "nondet", "proc", "thread",
#   "lib" (memory management library interface), "annot" (explicit
#   source/sink annotations).
SYSCALL_BUILTINS = {
    "open": "file",
    "close": "file",
    "read": "file-in",
    "read_line": "file-in",
    "write": "file-out",
    "seek": "file",
    "stat": "file-in",
    "mkdir": "file-out",
    "unlink": "file-out",
    "rename": "file-out",
    "listdir": "file-in",
    "socket": "net",
    "connect": "net",
    "send": "net-out",
    "recv": "net-in",
    "time": "nondet",
    "rand": "nondet",
    "getpid": "nondet",
    "getenv": "proc",
    "sleep": "proc",
    "exit": "proc",
    "print": "file-out",
    "thread_spawn": "thread",
    "thread_join": "thread",
    "mutex_create": "thread",
    "mutex_lock": "thread",
    "mutex_unlock": "thread",
    "malloc": "lib",
    "free": "lib",
    "sink_observe": "annot",
    "source_read": "annot",
}

ALL_INTRINSICS = PURE_BUILTINS | frozenset(SYSCALL_BUILTINS)


def syscall_category(name: str) -> str:
    """Return the category string of a syscall builtin."""
    return SYSCALL_BUILTINS[name]
