"""Integration tests for the cell pipeline (plan -> run_cells -> assemble).

The contract under test: for any executor, job count or chunking the
reassembled report is byte-identical to the committed golden report —
cells are independent, workers rebuild their worlds from the cell
spec, and reassembly happens in plan order.
"""

import os

import pytest

from repro.eval.executors import make_executor
from repro.eval.parallel import assemble_report, plan_eval_cells, run_cells
from repro.eval.robustness import render_chaos, run_chaos
from repro.eval.runner import run_all

TABLE4_RUNS = 3
GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden", "eval_table4_runs3.txt",
)


@pytest.fixture(scope="module")
def serial_report():
    return run_all(table4_runs=TABLE4_RUNS).report


def test_serial_report_matches_golden(serial_report):
    with open(GOLDEN) as handle:
        assert serial_report == handle.read()


def test_run_all_jobs4_is_byte_identical_to_serial(serial_report):
    with make_executor(4) as executor:
        parallel_report = run_all(table4_runs=TABLE4_RUNS, executor=executor)
    assert parallel_report.report == serial_report


def test_cell_plan_covers_every_section():
    cells = plan_eval_cells(table4_runs=10, table4_chunk=4)
    kinds = {kind for kind, _payload in cells}
    assert kinds == {"table1", "figure6", "table2", "table3", "table4", "mutation"}
    # 10 runs in chunks of 4 -> 3 chunks per concurrent workload.
    table4 = [payload for kind, payload in cells if kind == "table4"]
    per_name = {}
    for name, start, stop in table4:
        per_name.setdefault(name, []).append((start, stop))
    for spans in per_name.values():
        assert spans == [(0, 4), (4, 8), (8, 10)]


def test_one_run_chunks_reassemble_to_golden(serial_report):
    """Every Table 4 run in a chunk of its own: reassembly crosses a
    chunk boundary between every pair of runs."""
    cells = plan_eval_cells(TABLE4_RUNS, table4_chunk=1)
    assert sum(kind == "table4" for kind, _payload in cells) == 5 * TABLE4_RUNS
    results, _stats = run_cells(cells)
    assert assemble_report(cells, results, TABLE4_RUNS) == serial_report


def test_chaos_rows_are_chunk_invariant():
    names = ["gzip", "apache"]
    seeds = 4
    whole = run_chaos(names=names, seeds=seeds, seed_chunk=seeds)
    split = run_chaos(names=names, seeds=seeds, seed_chunk=1)
    assert [row.name for row in split] == names
    for whole_row, split_row in zip(whole, split):
        assert split_row.as_list() == whole_row.as_list()
        assert split_row.violations == whole_row.violations
        assert split_row.runs == whole_row.runs
        assert split_row.faults_injected == whole_row.faults_injected


def test_chaos_parallel_rows_match_serial():
    names = ["gzip", "apache"]
    serial_rows = run_chaos(names=names, seeds=4)
    with make_executor(2) as executor:
        parallel_rows = run_chaos(
            names=names, seeds=4, seed_chunk=2, executor=executor
        )
    assert render_chaos(parallel_rows, 4, 0.1) == render_chaos(serial_rows, 4, 0.1)
    for serial_row, parallel_row in zip(serial_rows, parallel_rows):
        assert serial_row.violations == parallel_row.violations
        assert serial_row.runs == parallel_row.runs
        assert serial_row.faults_injected == parallel_row.faults_injected


def test_chaos_jobs_flag_routes_through_parallel():
    # gzip has no no-leak variant: 2 variants x 3 seeds = 6 runs.
    with make_executor(2) as executor:
        rows = run_chaos(names=["gzip"], seeds=3, executor=executor)
    assert rows[0].runs == 2 * 3
