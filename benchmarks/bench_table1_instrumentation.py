"""Benchmark: regenerate Table 1 (Benchmarks and Instrumentation).

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark both
times the pipeline and prints the regenerated table (compare against
EXPERIMENTS.md / the paper's Table 1).
"""

import pytest

from repro.eval.parallel import plan_eval_cells, run_cells
from repro.eval.table1 import render_table1
from repro.instrument import instrument_module
from repro.ir import compile_source
from repro.workloads import ALL_WORKLOADS, get_workload


@pytest.mark.paper
def test_table1_full(benchmark):
    """Regenerate the whole of Table 1."""
    cells = [cell for cell in plan_eval_cells() if cell[0] == "table1"]
    rows, _stats = benchmark.pedantic(run_cells, (cells,), rounds=1, iterations=1)
    print()
    print(render_table1(rows))
    assert len(rows) == 28
    # Every benchmark received instrumentation.
    assert all(row.instrumented_sites > 0 for row in rows)
    # Counter values stay bounded (loops reset counters).
    assert all(row.dyn_max_counter <= row.max_static_counter for row in rows)


@pytest.mark.paper
def test_instrumentation_pipeline_speed(benchmark):
    """Time compile+instrument for the largest workload (apples-to-
    apples with the paper's 'instrumentation details')."""
    biggest = max(ALL_WORKLOADS, key=lambda w: w.loc)

    def pipeline():
        return instrument_module(compile_source(biggest.source))

    instrumented = benchmark(pipeline)
    assert instrumented.plan.instrumented_instruction_count > 0
