"""Table 2 — Dual Execution Effectiveness.

For each program, two input mutations: one expected to cause sink
differences (leakage) and one expected not to.  LDX must distinguish
them (O / X); TightLip, lacking execution alignment, reports leakage
for both whenever the syscall sequence diverges.  The last columns
report the misaligned-syscall count of the leak run and its share of
all dynamic syscalls.
"""

from __future__ import annotations

from typing import List

from repro.baselines.tightlip import run_tightlip
from repro.core.engine import run_dual
from repro.eval.reporting import format_table
from repro.workloads import get_workload

LEAK = "O"
CLEAN = "X"
IMPOSSIBLE = "-"


class Table2Row:
    """One program's dual-execution effectiveness measurements."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ldx_input1 = ""
        self.ldx_input2 = ""
        self.tightlip_input1 = ""
        self.tightlip_input2 = ""
        self.syscall_diffs = 0
        self.total_syscalls = 0

    @property
    def diff_pct(self) -> float:
        if self.total_syscalls == 0:
            return 0.0
        return 100.0 * self.syscall_diffs / self.total_syscalls

    def as_list(self) -> List[object]:
        return [
            self.name,
            f"{self.ldx_input1} / {self.ldx_input2}",
            f"{self.tightlip_input1} / {self.tightlip_input2}",
            f"{self.syscall_diffs} ({self.diff_pct:.2f}%)",
        ]


HEADERS = ["Program", "LDX (in1/in2)", "TightLip (in1/in2)", "# syscall diffs"]


def measure_workload(name: str) -> Table2Row:
    workload = get_workload(name)
    row = Table2Row(name)

    leak_config = workload.leak_variant()
    leak_result = run_dual(
        workload.instrumented, workload.build_world(1), leak_config
    )
    row.ldx_input1 = LEAK if leak_result.report.causality_detected else CLEAN
    row.syscall_diffs = leak_result.report.sequence_diffs
    row.total_syscalls = leak_result.master.stats.syscalls

    tight1 = run_tightlip(workload.module, workload.build_world(1), leak_config)
    row.tightlip_input1 = LEAK if tight1.leak_reported else CLEAN

    noleak_config = workload.noleak_variant()
    if noleak_config is None:
        row.ldx_input2 = IMPOSSIBLE
        row.tightlip_input2 = IMPOSSIBLE
    else:
        noleak_result = run_dual(
            workload.instrumented, workload.build_world(1), noleak_config
        )
        row.ldx_input2 = LEAK if noleak_result.report.causality_detected else CLEAN
        tight2 = run_tightlip(
            workload.module, workload.build_world(1), noleak_config
        )
        row.tightlip_input2 = LEAK if tight2.leak_reported else CLEAN
    return row


def render_table2(rows: List[Table2Row]) -> str:
    return format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title="Table 2: Dual Execution Effectiveness (LDX vs TightLip)",
    )
