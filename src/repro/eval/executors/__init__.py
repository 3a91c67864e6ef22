"""Pluggable cell-execution backends for the eval/chaos fan-out.

See :mod:`repro.eval.executors.base` for the ``submit/stream/close``
contract, :mod:`.local` for the single-host backends and
:mod:`.multihost` for the SSH/subprocess node fan-out.
"""

from repro.eval.executors.base import (
    Cell,
    CellExecutor,
    ExecutorError,
    make_executor,
    parse_nodes,
)
from repro.eval.executors.local import LocalPoolExecutor, SerialExecutor
from repro.eval.executors.multihost import MultiHostExecutor

__all__ = [
    "Cell",
    "CellExecutor",
    "ExecutorError",
    "LocalPoolExecutor",
    "MultiHostExecutor",
    "SerialExecutor",
    "make_executor",
    "parse_nodes",
]
