"""Benchmark: regenerate Table 2 (Dual Execution Effectiveness).

Paper shape: LDX distinguishes the leaking mutation (O) from the
benign one (X) for all programs except the four numeric ones (O / -);
TightLip reports leakage whenever the syscall sequence diverges, so it
false-positives on benign-but-divergent mutations.
"""

import pytest

from repro.eval.parallel import plan_eval_cells, run_cells
from repro.eval.table2 import IMPOSSIBLE, LEAK, CLEAN, render_table2


@pytest.mark.paper
def test_table2(benchmark):
    cells = [cell for cell in plan_eval_cells() if cell[0] == "table2"]
    rows, _stats = benchmark.pedantic(run_cells, (cells,), rounds=1, iterations=1)
    print()
    print(render_table2(rows))
    assert len(rows) == 17  # 5 netsys + 12 SPEC models

    # LDX: every leak variant detected, every no-leak variant silent.
    assert all(row.ldx_input1 == LEAK for row in rows)
    two_sided = [row for row in rows if row.ldx_input2 != IMPOSSIBLE]
    assert all(row.ldx_input2 == CLEAN for row in two_sided)
    # The four numeric programs have no constructible no-leak mutation.
    assert sum(1 for row in rows if row.ldx_input2 == IMPOSSIBLE) == 4

    # TightLip never out-distinguishes LDX, and false-positives on at
    # least one benign divergent mutation.
    assert all(row.tightlip_input1 == LEAK for row in rows)
    assert any(
        row.tightlip_input2 == LEAK and row.ldx_input2 == CLEAN for row in rows
    )
