"""Table 4 — Effectiveness for Concurrent Programs.

Each concurrent workload is dual-executed N times (paper: 100) with the
input mutation applied and a different schedule seed per run — the
source of low-level-race nondeterminism.  Reported per program:
min/max/stddev of the syscall-difference count and of the tainted-sink
count.  Expected shape: tainted sinks stable for the lock-disciplined
programs (apache, pbzip2, pigz), slightly varying for axel and x264.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.core.engine import run_dual
from repro.eval.reporting import format_table
from repro.workloads import get_workload


class Table4Row:
    """Distribution of per-run measurements for one program."""

    def __init__(self, name: str, diffs: List[int], sinks: List[int]) -> None:
        self.name = name
        self.diffs = diffs
        self.sinks = sinks

    @staticmethod
    def _std(values: List[int]) -> float:
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    def as_list(self) -> List[object]:
        return [
            self.name,
            f"{min(self.diffs)} / {max(self.diffs)} / {self._std(self.diffs):.2f}",
            f"{min(self.sinks)} / {max(self.sinks)} / {self._std(self.sinks):.2f}",
        ]


HEADERS = [
    "Program",
    "# syscall diffs (min/max/std)",
    "# tainted sinks (min/max/std)",
]


def measure_run(name: str, run: int) -> Tuple[int, int]:
    """One seeded dual execution: (syscall diffs, tainted sinks).

    The (master, slave) schedule seeds are a pure function of the run
    index, so any subset of runs can execute anywhere (including in a
    pool worker) and still reproduce the full sweep exactly.
    """
    workload = get_workload(name)
    result = run_dual(
        workload.instrumented,
        workload.build_world(1),
        workload.config(),
        master_seed=2 * run + 1,
        slave_seed=2 * run + 2,
    )
    return result.report.syscall_diffs, result.report.tainted_sinks


def rows_from_chunks(
    chunks: Iterable[Tuple[str, List[Tuple[int, int]]]]
) -> List[Table4Row]:
    """One row per workload from its ``(name, measured runs)`` chunks.

    Chunks arrive in plan order (workload, then run), so the rows and
    their run lists come out the same for any chunk size.
    """
    measured: Dict[str, List[Tuple[int, int]]] = {}
    for name, runs in chunks:
        measured.setdefault(name, []).extend(runs)
    return [
        Table4Row(name, [diff for diff, _ in runs], [sink for _, sink in runs])
        for name, runs in measured.items()
    ]


def render_table4(rows: List[Table4Row], runs: int) -> str:
    return format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title=f"Table 4: Concurrent programs over {runs} seeded runs",
    )
