"""Figure 6 — Normalized overhead of LDX.

For every performance benchmark we run:

* native (uninstrumented, single execution) — the baseline;
* LDX with identical inputs (master/slave perfectly coupled): counter
  maintenance + outcome sharing cost only (the paper's first bar);
* LDX with the mutated input (path/syscall differences exercised): adds
  synchronization and realignment (the paper's second bar);

and, for the comparison discussed around Figure 6:

* LIBDFT and TaintGrind (per-instruction shadow propagation);
* DualEx (per-instruction execution-indexing through a monitor).
"""

from __future__ import annotations

from typing import List

from repro.baselines.dualex import run_dualex
from repro.baselines.native import run_native
from repro.baselines.taint import run_taint
from repro.core.config import LdxConfig, SourceSpec
from repro.core.engine import run_dual
from repro.eval.reporting import arithmetic_mean, format_table, geometric_mean
from repro.workloads import get_workload


class Figure6Row:
    """One benchmark's normalized overheads (1.0 = native)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.native_time = 0.0
        self.ldx_coupled = 0.0  # identical inputs
        self.ldx_mutated = 0.0  # perturbed inputs
        self.libdft = 0.0
        self.taintgrind = 0.0
        self.dualex = 0.0

    @property
    def ldx_coupled_overhead_pct(self) -> float:
        return (self.ldx_coupled - 1.0) * 100.0

    @property
    def ldx_mutated_overhead_pct(self) -> float:
        return (self.ldx_mutated - 1.0) * 100.0

    def as_list(self) -> List[object]:
        return [
            self.name,
            f"{self.ldx_coupled_overhead_pct:.1f}%",
            f"{self.ldx_mutated_overhead_pct:.1f}%",
            f"{self.libdft:.1f}x",
            f"{self.taintgrind:.1f}x",
            f"{self.dualex:.0f}x",
        ]


HEADERS = [
    "Program",
    "LDX (same input)",
    "LDX (mutated)",
    "LIBDFT",
    "TaintGrind",
    "DualEx",
]


def _uncoupled_config(config: LdxConfig) -> LdxConfig:
    """The same sinks with no sources: master and slave stay identical."""
    return LdxConfig(sources=SourceSpec(), sinks=config.sinks, mutation=config.mutation)


def measure_workload(name: str, with_heavy_baselines: bool = True) -> Figure6Row:
    """Measure one benchmark's overheads."""
    workload = get_workload(name)
    row = Figure6Row(name)
    config = workload.config()

    native = run_native(workload.module, workload.build_world(1))
    row.native_time = native.time

    coupled = run_dual(
        workload.instrumented, workload.build_world(1), _uncoupled_config(config)
    )
    row.ldx_coupled = coupled.dual_time / native.time

    mutated = run_dual(workload.instrumented, workload.build_world(1), config)
    row.ldx_mutated = mutated.dual_time / native.time

    if with_heavy_baselines:
        libdft = run_taint(workload.module, workload.build_world(1), config, "libdft")
        row.libdft = libdft.time / native.time
        taintgrind = run_taint(
            workload.module, workload.build_world(1), config, "taintgrind"
        )
        row.taintgrind = taintgrind.time / native.time
        dualex = run_dualex(workload.module, workload.build_world(1), config)
        row.dualex = dualex.time / native.time
    return row


def render_figure6(rows: List[Figure6Row]) -> str:
    text = format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title="Figure 6: Normalized overhead of LDX (and baselines)",
    )
    coupled = [row.ldx_coupled for row in rows]
    mutated = [row.ldx_mutated for row in rows]
    text += (
        "\n\nLDX overhead, same input:  "
        f"geo-mean {100 * (geometric_mean(coupled) - 1):.2f}%  "
        f"arith-mean {100 * (arithmetic_mean(coupled) - 1):.2f}%"
    )
    text += (
        "\nLDX overhead, mutated:     "
        f"geo-mean {100 * (geometric_mean(mutated) - 1):.2f}%  "
        f"arith-mean {100 * (arithmetic_mean(mutated) - 1):.2f}%"
    )
    heavy = [row for row in rows if row.libdft > 0]
    if heavy:
        text += (
            "\nLIBDFT slowdown:           "
            f"arith-mean {arithmetic_mean([r.libdft for r in heavy]):.1f}x"
        )
        text += (
            "\nTaintGrind slowdown:       "
            f"arith-mean {arithmetic_mean([r.taintgrind for r in heavy]):.1f}x"
        )
        text += (
            "\nDualEx slowdown:           "
            f"arith-mean {arithmetic_mean([r.dualex for r in heavy]):.0f}x"
        )
    return text
