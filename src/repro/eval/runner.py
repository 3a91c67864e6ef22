"""Run the complete evaluation and produce an EXPERIMENTS-style report."""

from __future__ import annotations

from typing import Optional

from repro.eval.parallel import (
    TABLE4_CHUNK,
    assemble_report,
    plan_eval_cells,
    plan_table5_cells,
    run_cells,
)


class EvalResult:
    """The combined report plus the ``--check-static`` verdict."""

    def __init__(self, report: str, static_ok: bool = True) -> None:
        self.report = report
        self.static_ok = static_ok


def run_all(
    table4_runs: int = 100,
    cache_dir: Optional[str] = None,
    use_cache: Optional[bool] = None,
    check_static: bool = False,
    table5_path: Optional[str] = None,
    store_path: Optional[str] = None,
    executor=None,
) -> EvalResult:
    """Run every experiment; return the combined plain-text report.

    The evaluation is planned as cells (``repro.eval.parallel``) that
    run on *executor* (a :class:`repro.eval.executors.CellExecutor`,
    left open for the caller) or, without one, in process.  The report
    is byte-identical for any executor, job count or node count.
    *cache_dir* and *use_cache* stay in the signature for existing
    callers but change nothing: an executor's workers take their cache
    settings from ``make_executor``, and an in-process run uses the
    process's configured cache (``repro.cache.configure``).

    With ``store_path`` the run is **incremental** against the columnar
    results store (``repro.results``): every completed cell persists
    there keyed by its content address, cells whose key is already
    present are reused instead of re-executed (a warm re-run executes
    zero cells), and the invocation is recorded so ``repro report``
    re-renders the byte-identical report from the store alone.

    ``check_static=True`` appends Table 5 — every workload dual-executed
    with the static causality analysis installed as the engine's
    soundness oracle — and ``EvalResult.static_ok`` reports whether any
    dynamic detection escaped the static may-depend set.  Table 5 runs
    in process regardless of the executor: each cell already reuses the
    cached instrumentation artifacts, and the oracle check must observe
    the exact detections of a normal engine run.  ``table5_path``
    optionally writes the machine-readable JSON artifact for CI.
    """
    store = None
    if store_path is not None:
        from repro.results import ResultsStore

        store = ResultsStore(store_path)

    cells = plan_eval_cells(table4_runs, TABLE4_CHUNK)
    results, stats = run_cells(
        cells, store=store, label="eval", executor=executor
    )
    result = EvalResult(assemble_report(cells, results, table4_runs))

    if check_static:
        from repro.eval.table5 import render_table5, soundness_ok, table5_json

        rows, table5_stats = run_cells(
            plan_table5_cells(), store=store, label="eval"
        )
        for name in stats:
            stats[name] += table5_stats[name]
        result.report += "\n\n\n" + render_table5(rows)
        result.static_ok = soundness_ok(rows)
        if table5_path:
            with open(table5_path, "w") as handle:
                handle.write(table5_json(rows))

    if store is not None:
        store.record_run(
            "eval",
            {
                "table4_runs": table4_runs,
                "table4_chunk": TABLE4_CHUNK,
                "check_static": check_static,
            },
            **stats,
        )
        store.close()
    return result
