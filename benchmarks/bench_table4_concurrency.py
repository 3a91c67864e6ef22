"""Benchmark: regenerate Table 4 (Effectiveness for Concurrent
Programs) — N seeded dual executions per concurrent workload.

Paper shape: tainted-sink counts are stable for the lock-disciplined
programs (LDX's lock-order sharing enforces the schedule) while
low-level races make syscall-difference counts wobble; axel's sink
count varies (per-run nondeterminism the paper attributes to its
Internet connections).
"""

import pytest

from repro.eval.parallel import plan_eval_cells, run_cells
from repro.eval.table4 import render_table4, rows_from_chunks

RUNS = 100


@pytest.mark.paper
def test_table4(benchmark):
    cells = [cell for cell in plan_eval_cells(RUNS) if cell[0] == "table4"]
    chunks, _stats = benchmark.pedantic(
        run_cells, (cells,), rounds=1, iterations=1
    )
    rows = rows_from_chunks(
        (payload[0], chunk) for (_kind, payload), chunk in zip(cells, chunks)
    )
    print()
    print(render_table4(rows, RUNS))
    by_name = {row.name: row for row in rows}

    # Lock-disciplined programs: stable tainted sinks.
    for name in ("apache", "pbzip2", "pigz"):
        row = by_name[name]
        assert min(row.sinks) == max(row.sinks), name

    # axel: racy progress reporting varies the tainted sinks.
    axel = by_name["axel"]
    assert min(axel.sinks) < max(axel.sinks)

    # Schedule nondeterminism shows up in the syscall-diff counts of at
    # least one lock-disciplined program.
    assert any(
        min(by_name[name].diffs) < max(by_name[name].diffs)
        or min(by_name[name].diffs) > 0
        for name in ("apache", "pbzip2", "pigz")
    )
