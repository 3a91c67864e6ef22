"""Benchmark: regenerate Figure 6 (normalized overhead of LDX).

The paper's headline: LDX's overhead is single-digit percent (geo-mean
4.45%/4.7%, arith 5.7%/6.08%) while LIBDFT is ~6x and DualEx three
orders of magnitude.  The shape assertions below encode exactly that.
"""

import pytest

from repro.eval.figure6 import render_figure6
from repro.eval.parallel import plan_eval_cells, run_cells
from repro.eval.reporting import arithmetic_mean, geometric_mean


@pytest.mark.paper
def test_figure6_ldx_overhead(benchmark):
    """LDX's two bars (same-input and mutated-input runs)."""
    cells = [
        ("figure6", (payload[0], False))
        for kind, payload in plan_eval_cells()
        if kind == "figure6"
    ]
    rows, _stats = benchmark.pedantic(run_cells, (cells,), rounds=1, iterations=1)
    print()
    print(render_figure6(rows))
    coupled_geo = geometric_mean([row.ldx_coupled for row in rows]) - 1.0
    mutated_geo = geometric_mean([row.ldx_mutated for row in rows]) - 1.0
    # Paper shape: single-digit-percent mean overheads.
    assert 0.0 < coupled_geo < 0.15
    assert 0.0 < mutated_geo < 0.25


@pytest.mark.paper
def test_figure6_baseline_contrast(benchmark):
    """LIBDFT several-x; TaintGrind worse; DualEx orders of magnitude."""
    cells = [("figure6", (name, True)) for name in ("bzip2", "hmmer", "sjeng")]
    rows, _stats = benchmark.pedantic(run_cells, (cells,), rounds=1, iterations=1)
    print()
    print(render_figure6(rows))
    libdft = arithmetic_mean([row.libdft for row in rows])
    taintgrind = arithmetic_mean([row.taintgrind for row in rows])
    dualex = arithmetic_mean([row.dualex for row in rows])
    ldx = arithmetic_mean([row.ldx_mutated for row in rows])
    assert libdft > 3.0  # several-x slowdown
    assert taintgrind > libdft  # Valgrind heavier than PIN
    assert dualex > 100.0  # orders of magnitude
    assert ldx < 1.5  # LDX nowhere near the taint tools
