"""Table 3 — Effectiveness of Causality Inference.

Tainted-sink counts of LDX versus TaintGrind and LIBDFT, with the
total number of sinks encountered.  The paper's headline: dependence-
based tainting reports only a fraction of LDX's true causalities
(TaintGrind 31.47%, LIBDFT 20%), TaintGrind's set is a superset of
LIBDFT's, and LDX has no false positives.
"""

from __future__ import annotations

from typing import List

from repro.baselines.taint import run_taint
from repro.core.engine import run_dual
from repro.eval.reporting import format_table
from repro.workloads import get_workload


class Table3Row:
    """One program's tainted-sink counts per tool."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ldx = 0
        self.taintgrind = 0
        self.libdft = 0
        self.total_sinks = 0

    def as_list(self) -> List[object]:
        return [self.name, self.ldx, self.taintgrind, self.libdft, self.total_sinks]


HEADERS = ["Program", "LDX", "TaintGrind", "LIBDFT", "Total sinks"]


def measure_workload(name: str) -> Table3Row:
    workload = get_workload(name)
    config = workload.table3_variant()
    row = Table3Row(name)

    ldx = run_dual(workload.instrumented, workload.build_world(1), config)
    row.ldx = ldx.report.tainted_sinks
    row.total_sinks = max(ldx.report.sinks_total, 1)

    taintgrind = run_taint(
        workload.module, workload.build_world(1), config, "taintgrind"
    )
    row.taintgrind = taintgrind.tainted_sinks

    libdft = run_taint(workload.module, workload.build_world(1), config, "libdft")
    row.libdft = libdft.tainted_sinks
    return row


def render_table3(rows: List[Table3Row]) -> str:
    text = format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title="Table 3: Tainted sinks — LDX vs TaintGrind vs LIBDFT",
    )
    ldx_total = sum(row.ldx for row in rows)
    if ldx_total:
        tg = 100.0 * sum(row.taintgrind for row in rows) / ldx_total
        ld = 100.0 * sum(row.libdft for row in rows) / ldx_total
        text += (
            f"\n\nTaintGrind detects {tg:.1f}% of LDX's sinks; "
            f"LIBDFT detects {ld:.1f}% (paper: 31.47% and 20%)."
        )
    return text
