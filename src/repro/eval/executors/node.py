"""The multihost worker node: ``python -m repro.eval.executors``.

One node process serves one :class:`MultiHostExecutor` slot.  The
protocol is line-delimited JSON over stdin/stdout — dumb enough to run
unchanged through an SSH pipe:

parent -> node::

    {"op": "hello", "cache_dir": ..., "cache_enabled": ...,
     "backend": ..., "relevance": ..., "warm": [workload, ...]}
    {"op": "run", "batch": N, "cells": "<base64 pickle of [Cell, ...]>"}
    {"op": "shutdown"}

node -> parent::

    {"op": "ready", "pid": ...}                       after hello
    {"op": "heartbeat"}                               every few seconds
    {"op": "result", "batch": N, "data": "<base64 pickle of results>"}
    {"op": "error", "batch": N, "kind": ..., "message": ...}

Cells and results ride as base64-pickled blobs inside the JSON frame:
cells are tuples of primitives and results are the same objects a pool
worker would return over its pipe, so pickling is exactly as safe as
the single-host path (both ends must run the same code version — true
for localhost nodes by construction, documented for SSH nodes).

``hello`` configures the node's process-global artifact cache and
interpreter backend (the multihost analogue of the pool's worker
initializer) and **warms the on-disk artifact cache**: every workload
the sweep will touch is instrumented once up front, so cells hit a
warm cache even on a node with a cold disk.

The heartbeat thread starts the moment the process does — before
``hello`` is even read — so the parent's dead-node detector stays fed
through cache warm-up (the expensive step, and the exact cold-cache
scenario warm-up exists for) just as it does while a long cell
computes.  Anything a cell prints to stdout is redirected to stderr so
the protocol stream cannot be corrupted.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import sys
import threading
from typing import Optional

HEARTBEAT_INTERVAL = 2.0


def encode_blob(obj: object) -> str:
    """Pickle *obj* into a JSON-safe base64 string."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_blob(text: str) -> object:
    """Inverse of :func:`encode_blob`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _configure(msg: dict) -> None:
    from repro import cache
    from repro.instrument import set_relevance_enabled
    from repro.interp import set_default_backend

    cache.configure(
        cache_dir=msg.get("cache_dir"),
        enabled=bool(msg.get("cache_enabled", True)),
    )
    set_default_backend(msg.get("backend", "threaded"))
    set_relevance_enabled(bool(msg.get("relevance", True)))


def _warm(names) -> None:
    """Instrument every workload the sweep will touch, populating this
    node's artifact cache before any cell needs it (best effort)."""
    from repro.workloads import get_workload

    for name in names or []:
        try:
            get_workload(name).instrumented
        except Exception:
            pass  # an unknown workload fails in its cell, with context


def main(argv: Optional[list] = None) -> int:
    stdin = sys.stdin
    protocol = sys.stdout
    sys.stdout = sys.stderr  # cell prints must never corrupt the protocol
    write_lock = threading.Lock()

    def emit(msg: dict) -> None:
        with write_lock:
            protocol.write(json.dumps(msg, sort_keys=True) + "\n")
            protocol.flush()

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                emit({"op": "heartbeat"})
            except (BrokenPipeError, ValueError, OSError):
                return  # parent is gone; the main loop will exit on EOF

    # Heartbeats must flow before hello is handled: cache warm-up
    # instruments every workload in the sweep and can take far longer
    # than the parent's heartbeat timeout on a cold cache.
    threading.Thread(
        target=heartbeat, name="node-heartbeat", daemon=True
    ).start()

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except ValueError:
            emit({"op": "error", "batch": None, "kind": "ProtocolError",
                  "message": f"unparseable frame: {line[:200]!r}"})
            continue
        op = msg.get("op")
        if op == "hello":
            _configure(msg)
            _warm(msg.get("warm"))
            emit({"op": "ready", "pid": os.getpid()})
        elif op == "run":
            from repro.eval.parallel import run_cell

            try:
                cells = decode_blob(msg["cells"])
                results = [run_cell(cell) for cell in cells]
            except KeyboardInterrupt:
                raise
            except BaseException as failure:
                # A failing cell fails deterministically everywhere:
                # report it so the parent raises instead of re-dispatching.
                emit({"op": "error", "batch": msg.get("batch"),
                      "kind": type(failure).__name__,
                      "message": str(failure)})
            else:
                emit({"op": "result", "batch": msg["batch"],
                      "data": encode_blob(results)})
        elif op == "shutdown":
            break
        else:
            emit({"op": "error", "batch": None, "kind": "ProtocolError",
                  "message": f"unknown op {op!r}"})
    stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
