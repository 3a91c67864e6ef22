"""Table 1 — Benchmarks and Instrumentation.

Columns mirror the paper: program size, instrumented instruction count
and percentage, instrumented loops, recursive functions, indirect call
sites, sink/syscall site counts, the static maximum counter value, the
dynamic average/maximum counter values and maximum counter-stack depth
(measured during one dual execution), and the number of mutated source
reads.
"""

from __future__ import annotations

from typing import List

from repro.core.engine import run_dual
from repro.eval.reporting import format_table
from repro.workloads import get_workload


class Table1Row:
    """One benchmark's instrumentation statistics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.category = ""
        self.loc = 0
        self.instructions = 0
        self.instrumented_sites = 0
        self.instrumented_pct = 0.0
        self.loops = 0
        self.recursive = 0
        self.indirect = 0
        self.syscall_sites = 0
        self.max_static_counter = 0
        self.pruned_counter_sites = 0
        self.dyn_avg_counter = 0.0
        self.dyn_max_counter = 0
        self.max_stack_depth = 0
        self.mutated_inputs = 0

    def as_list(self) -> List[object]:
        return [
            self.name,
            self.loc,
            self.instrumented_sites,
            f"{self.instrumented_pct:.1f}%",
            self.loops,
            self.recursive,
            self.indirect,
            self.syscall_sites,
            self.max_static_counter,
            self.pruned_counter_sites,
            f"{self.dyn_avg_counter:.1f}/{self.dyn_max_counter}",
            self.max_stack_depth,
            self.mutated_inputs,
        ]


HEADERS = [
    "Program",
    "LOC",
    "Inst.",
    "Inst.%",
    "Loops",
    "Recur.",
    "FPTR",
    "Syscalls",
    "MaxCnt",
    "PrunedCnt",
    "DynCnt(avg/max)",
    "StkDepth",
    "Mutated",
]


def measure_workload(name: str) -> Table1Row:
    """Compute one benchmark's Table 1 row."""
    workload = get_workload(name)
    stats = workload.instrumented.static_stats()
    row = Table1Row(name)
    row.category = workload.category
    row.loc = workload.loc
    row.instructions = stats["total_instructions"]
    row.instrumented_sites = stats["instrumented_sites"]
    row.instrumented_pct = stats["instrumented_pct"]
    row.loops = stats["instrumented_loops"]
    row.recursive = stats["recursive_functions"]
    row.indirect = stats["indirect_call_sites"]
    row.syscall_sites = stats["syscall_sites"]
    row.max_static_counter = stats["max_static_counter"]
    row.pruned_counter_sites = stats["prunable_counter_sites"]

    result = run_dual(workload.instrumented, workload.build_world(1), workload.config())
    master_stats = result.master.stats
    row.dyn_avg_counter = master_stats.avg_counter
    row.dyn_max_counter = master_stats.max_counter
    row.max_stack_depth = master_stats.max_stack_depth
    row.mutated_inputs = result.report.mutated_source_reads
    return row


def render_table1(rows: List[Table1Row]) -> str:
    text = format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title="Table 1: Benchmarks and Instrumentation",
    )
    if rows:
        avg_pct = sum(r.instrumented_pct for r in rows) / len(rows)
        text += f"\n\naverage instrumented-site density: {avg_pct:.2f}%"
    return text
