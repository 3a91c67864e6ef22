"""Parallel evaluation: fan eval/chaos cells out over an executor.

Every experiment in the harness decomposes into independent cells:

* Table 1 / Figure 6 / Table 2 / Table 3 — one cell per workload;
* Table 4 — one cell per (workload, chunk of seeded runs): the
  schedule seeds are a pure function of the run index, so any chunk
  reproduces its slice of the serial sweep exactly;
* the mutation study — one cell per strategy (the stateful ``random``
  mutator's RNG stream flows across workloads *within* a strategy, so
  a strategy is the smallest split that preserves serial results);
* the chaos sweep — one cell per (workload, chunk of fault seeds).

Cells are plain tuples of primitives.  Workers rebuild everything they
need — the workload, its :class:`World`, seeds, fault plans — from the
cell spec via the registry, so no mutable state crosses process
boundaries; the only shared objects are immutable instrumentation
artifacts served by :mod:`repro.cache` (each worker holds its own
cache instance, warmed from the same on-disk layer when one is
configured).

*Where* cells run is pluggable (:mod:`repro.eval.executors`): in
process, over a process pool on this machine, or across worker nodes
on other machines.  Executors stream ``(index, result)`` pairs back in
completion order; this module persists each completed cell the moment
it arrives and reassembles **in plan order**, so per-table rows come
back in exactly the order the serial path produces them and the
rendered report is byte-identical for any job count, node count or
interleaving — and an interrupt or a dead node never discards
finished work.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

# A cell is (kind, payload-of-primitives); see _CELL_RUNNERS.
Cell = Tuple[str, tuple]

# Runs per Table 4 cell / fault seeds per chaos cell.  Small enough to
# load-balance across workers, large enough to amortize task dispatch.
TABLE4_CHUNK = 10
CHAOS_CHUNK = 5


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


# -- cell execution (runs inside pool workers) ---------------------------------


def _worker_init(
    cache_dir: Optional[str], cache_enabled: bool, backend: str,
    relevance: bool,
) -> None:
    """Configure the worker's process-global artifact cache and
    interpreter backend.

    Workers spawned fresh (no fork inheritance) warm up from the
    on-disk layer instead of re-lowering every workload, and inherit
    the parent's dispatch strategy so an ``--interp-backend`` or
    ``--no-relevance`` choice applies to every cell regardless of
    --jobs.
    """
    from repro import cache
    from repro.instrument import set_relevance_enabled
    from repro.interp import set_default_backend

    cache.configure(cache_dir=cache_dir, enabled=cache_enabled)
    set_default_backend(backend)
    set_relevance_enabled(relevance)


def _cell_table1(name: str):
    from repro.eval.table1 import measure_workload

    return measure_workload(name)


def _cell_figure6(name: str, with_heavy_baselines: bool):
    from repro.eval.figure6 import measure_workload

    return measure_workload(name, with_heavy_baselines)


def _cell_table2(name: str):
    from repro.eval.table2 import measure_workload

    return measure_workload(name)


def _cell_table3(name: str):
    from repro.eval.table3 import measure_workload

    return measure_workload(name)


def _cell_table4(name: str, start: int, stop: int):
    from repro.eval.table4 import measure_run

    return [measure_run(name, run) for run in range(start, stop)]


def _cell_mutation(strategy: str, names: Tuple[str, ...]):
    from repro.eval.mutation_study import run_strategy

    return run_strategy(strategy, list(names))


def _cell_chaos(
    name: str,
    seeds: Tuple[int, ...],
    rate: float,
    watchdog_deadline: float,
    checkpoint_dir: Optional[str] = None,
):
    from repro.eval.robustness import chaos_workload

    if checkpoint_dir is None:
        return chaos_workload(name, seeds, rate, watchdog_deadline)
    # Resume mode: a completed cell is served from its checkpoint, an
    # incomplete one runs and persists.  The key hashes the workload's
    # source, so editing a workload orphans its stale cells.
    from repro.checkpoint import CheckpointStore, chaos_cell_key
    from repro.workloads import get_workload

    store = CheckpointStore(checkpoint_dir)
    key = chaos_cell_key(
        name, seeds, rate, watchdog_deadline, get_workload(name).source
    )
    return store.load_or_run(
        key, lambda: chaos_workload(name, seeds, rate, watchdog_deadline)
    )


def _cell_table5(name: str):
    from repro.eval.table5 import measure_workload

    return measure_workload(name)


def _cell_serve_baseline(
    name: str, seed: int, deadline: float, fault_seed: int, fault_rate: float
):
    from repro.eval.serve_chaos import baseline_for

    return baseline_for(name, seed, deadline, fault_seed, fault_rate)


def _cell_serve_faultfree(name: str, seed: int):
    from repro.eval.serve_chaos import faultfree_baseline

    return faultfree_baseline(name, seed)


_CELL_RUNNERS = {
    "table1": _cell_table1,
    "figure6": _cell_figure6,
    "table2": _cell_table2,
    "table3": _cell_table3,
    "table4": _cell_table4,
    "table5": _cell_table5,
    "mutation": _cell_mutation,
    "chaos": _cell_chaos,
    "serve_baseline": _cell_serve_baseline,
    "serve_faultfree": _cell_serve_faultfree,
}


def run_cell(cell: Cell):
    """Execute one cell (the pool's task function; also the serial path)."""
    kind, payload = cell
    return _CELL_RUNNERS[kind](*payload)


# -- scheduling ----------------------------------------------------------------


def _cache_settings(
    cache_dir: Optional[str], cache_enabled: Optional[bool]
) -> Tuple[Optional[str], bool]:
    """Resolve worker cache settings, inheriting the parent's
    process-global cache configuration for unspecified values."""
    from repro import cache

    current = cache.get_cache()
    if cache_dir is None:
        cache_dir = current.cache_dir
    if cache_enabled is None:
        cache_enabled = current.enabled
    return cache_dir, cache_enabled


def _default_executor(
    cells: Sequence[Cell],
    jobs: int,
    cache_dir: Optional[str],
    cache_enabled: Optional[bool],
):
    """The historical auto choice: in-process for one job or one cell,
    a local process pool otherwise."""
    from repro.eval.executors import LocalPoolExecutor, SerialExecutor

    if jobs <= 1 or len(cells) <= 1:
        return SerialExecutor()
    return LocalPoolExecutor(
        jobs=min(jobs, len(cells)),
        cache_dir=cache_dir,
        cache_enabled=cache_enabled,
    )


def fan_out(
    cells: Sequence[Cell],
    jobs: int,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
    executor=None,
) -> List[object]:
    """Run *cells*, results in cell order regardless of completion order.

    With *executor* (a :class:`repro.eval.executors.CellExecutor`) the
    cells run wherever it says — serial, local pool, or multihost
    worker nodes; without one the historical jobs-based choice applies.
    A provided executor is left open for further rounds (the caller
    owns its lifecycle) except on interrupt, where it is closed so
    queued cells are abandoned rather than awaited.
    """
    owned = executor is None
    if owned:
        executor = _default_executor(cells, jobs, cache_dir, cache_enabled)
    results: List[object] = [None] * len(cells)
    try:
        executor.submit(cells)
        for index, result in executor.stream():
            results[index] = result
    except KeyboardInterrupt:
        # Ctrl-C: abandon queued cells instead of waiting for them.
        # Cells that already finished were flushed by their workers
        # (the chaos checkpoint store persists per cell), so a --resume
        # rerun restarts at the first incomplete cell.
        executor.close()
        raise
    finally:
        if owned:
            executor.close()
    return results


def run_cells(
    cells: Sequence[Cell],
    jobs: int,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
    store=None,
    label: str = "eval",
    executor=None,
) -> Tuple[List[object], Dict[str, int]]:
    """Run *cells* incrementally against a results store.

    Cells whose content-address key is already present in *store* are
    served from it; only absent (or superseded-fingerprint) cells
    execute, and every freshly executed cell **persists the moment its
    result streams back** — an interrupt or node loss mid-run keeps
    every finished cell, and the re-run reuses them.  Returns the
    in-order results plus {planned, executed, reused} counts, and
    prints the counts to stderr — CI greps that line to prove a warm
    re-run executed zero cells.  With no store this is plain
    :func:`fan_out`.
    """
    if store is None or not store.enabled:
        return (
            fan_out(cells, jobs, cache_dir, cache_enabled, executor),
            {"planned": len(cells), "executed": len(cells), "reused": 0},
        )
    from repro.results import spec_for_cell

    specs = [spec_for_cell(cell) for cell in cells]
    found = store.get_cells([spec.key for spec in specs])
    results: List[object] = [found.get(spec.key) for spec in specs]
    miss_indices = [i for i, result in enumerate(results) if result is None]
    reused = len(cells) - len(miss_indices)
    executed = 0
    if miss_indices:
        miss_cells = [cells[i] for i in miss_indices]
        owned = executor is None
        if owned:
            executor = _default_executor(
                miss_cells, jobs, cache_dir, cache_enabled
            )
        try:
            executor.submit(miss_cells)
            for position, result in executor.stream():
                index = miss_indices[position]
                results[index] = result
                store.put_cell(specs[index], result)
                executed += 1
        except KeyboardInterrupt:
            # Every cell that finished is already in the store; account
            # for the partial run before re-raising so the user knows
            # what a re-run will reuse.
            print(
                f"{label}: results store: interrupted — {executed} executed, "
                f"{reused} reused of {len(cells)} cells persisted "
                f"({store.path})",
                file=sys.stderr,
            )
            executor.close()
            raise
        finally:
            if owned:
                executor.close()
    stats = {
        "planned": len(cells),
        "executed": len(miss_indices),
        "reused": reused,
    }
    print(
        f"{label}: results store: {stats['executed']} executed, "
        f"{stats['reused']} reused of {stats['planned']} cells "
        f"({store.path})",
        file=sys.stderr,
    )
    return results, stats


def _chunks(count: int, size: int) -> List[Tuple[int, int]]:
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def plan_eval_cells(
    table4_runs: int = 100, table4_chunk: int = TABLE4_CHUNK
) -> List[Cell]:
    """Decompose the full evaluation into independent cells.

    Cell order is the reassembly order; it mirrors the serial
    ``run_all`` exactly (table order, then workload order, then run
    order).
    """
    from repro.eval.mutation_study import STUDY_WORKLOADS, strategies_under_study
    from repro.workloads import (
        ALL_WORKLOADS,
        PERF_SUBSET,
        TABLE2_SUBSET,
        TABLE3_SUBSET,
        workloads_by_category,
    )

    cells: List[Cell] = []
    cells += [("table1", (w.name,)) for w in ALL_WORKLOADS]
    cells += [("figure6", (name, True)) for name in PERF_SUBSET]
    cells += [("table2", (name,)) for name in TABLE2_SUBSET]
    cells += [("table3", (name,)) for name in TABLE3_SUBSET]
    for workload in workloads_by_category("concurrency"):
        for start, stop in _chunks(table4_runs, table4_chunk):
            cells.append(("table4", (workload.name, start, stop)))
    for strategy in strategies_under_study():
        cells.append(("mutation", (strategy, tuple(STUDY_WORKLOADS))))
    return cells


def plan_table5_cells(names: Optional[List[str]] = None) -> List[Cell]:
    """One Table 5 cell per workload, in ``run_table5`` order."""
    from repro.workloads import ALL_WORKLOADS

    names = names or [w.name for w in ALL_WORKLOADS]
    return [("table5", (name,)) for name in names]


def plan_chaos_cells(
    names: List[str],
    seeds: int,
    rate: float,
    watchdog_deadline: float,
    seed_chunk: int = CHAOS_CHUNK,
    checkpoint_dir: Optional[str] = None,
) -> List[Cell]:
    """Decompose a chaos sweep into (workload, seed-chunk) cells.

    Cell order is the merge order; it reproduces the serial sweep.
    """
    cells: List[Cell] = []
    for name in names:
        for start, stop in _chunks(seeds, seed_chunk):
            cells.append(
                (
                    "chaos",
                    (
                        name,
                        tuple(range(start, stop)),
                        rate,
                        watchdog_deadline,
                        checkpoint_dir,
                    ),
                )
            )
    return cells


def assemble_report(
    cells: Sequence[Cell], results: Sequence[object], table4_runs: int
) -> str:
    """Reassemble per-cell results into the serial report, byte for byte."""
    from repro.eval.figure6 import render_figure6
    from repro.eval.mutation_study import render_mutation_study
    from repro.eval.table1 import render_table1
    from repro.eval.table2 import render_table2
    from repro.eval.table3 import render_table3
    from repro.eval.table4 import Table4Row, render_table4

    by_kind: Dict[str, List[Tuple[tuple, object]]] = {}
    for (kind, payload), result in zip(cells, results):
        by_kind.setdefault(kind, []).append((payload, result))

    table4_rows: List[Table4Row] = []
    order: List[str] = []
    per_name: Dict[str, List[Tuple[int, int]]] = {}
    for (name, _start, _stop), chunk in by_kind.get("table4", []):
        if name not in per_name:
            per_name[name] = []
            order.append(name)
        per_name[name].extend(chunk)  # cells arrive in run order
    for name in order:
        measurements = per_name[name]
        table4_rows.append(
            Table4Row(
                name,
                [diff for diff, _sink in measurements],
                [sink for _diff, sink in measurements],
            )
        )

    outcomes = {
        payload[0]: result for payload, result in by_kind.get("mutation", [])
    }

    sections = [
        render_table1([r for _p, r in by_kind.get("table1", [])]),
        render_figure6([r for _p, r in by_kind.get("figure6", [])]),
        render_table2([r for _p, r in by_kind.get("table2", [])]),
        render_table3([r for _p, r in by_kind.get("table3", [])]),
        render_table4(table4_rows, table4_runs),
        render_mutation_study(outcomes),
    ]
    return "\n\n\n".join(sections)


def run_all_parallel(
    table4_runs: int = 100,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
    table4_chunk: int = TABLE4_CHUNK,
    store=None,
    executor=None,
) -> str:
    """The full evaluation, fanned out; report identical to ``run_all``.

    With *store* (a :class:`repro.results.ResultsStore`) the run is
    incremental: cells already stored are reused, fresh cells persist.
    (:func:`repro.eval.runner.run_all` additionally records the run so
    ``repro report`` can re-render it with zero execution.)  With
    *executor* the cells run on that backend instead of the jobs-based
    default.
    """
    jobs = default_jobs() if jobs is None else jobs
    cells = plan_eval_cells(table4_runs, table4_chunk)
    results, _stats = run_cells(
        cells, jobs, cache_dir, cache_enabled, store=store, label="eval",
        executor=executor,
    )
    return assemble_report(cells, results, table4_runs)


def run_chaos_parallel(
    names: Optional[List[str]] = None,
    seeds: int = 50,
    rate: float = 0.1,
    watchdog_deadline: float = 25_000.0,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
    seed_chunk: int = CHAOS_CHUNK,
    checkpoint_dir: Optional[str] = None,
    store=None,
    executor=None,
):
    """The chaos sweep, fanned out; rows identical to a serial sweep.

    With *checkpoint_dir* each finished (workload, seed-chunk) cell is
    persisted there, and already-persisted cells are loaded instead of
    re-run — an interrupted sweep resumes at the first incomplete cell.
    Loaded or re-run, cells merge in the same planned order, so the
    resumed report is byte-identical to an uninterrupted one.  With
    *store* cells additionally persist into the columnar results store
    (keys exclude the checkpoint dir), making re-runs incremental and
    the sweep reportable via ``repro report --chaos``.
    """
    from repro.eval.robustness import ChaosRow
    from repro.workloads import ALL_WORKLOADS

    jobs = default_jobs() if jobs is None else jobs
    names = names or [workload.name for workload in ALL_WORKLOADS]
    cells = plan_chaos_cells(
        names, seeds, rate, watchdog_deadline, seed_chunk, checkpoint_dir
    )
    results, stats = run_cells(
        cells, jobs, cache_dir, cache_enabled, store=store, label="chaos",
        executor=executor,
    )
    if store is not None and store.enabled:
        store.record_run(
            "chaos",
            {
                "names": list(names),
                "seeds": seeds,
                "rate": rate,
                "watchdog_deadline": watchdog_deadline,
                "seed_chunk": seed_chunk,
            },
            **stats,
        )

    rows: List[ChaosRow] = []
    by_name: Dict[str, ChaosRow] = {}
    for (kind, payload), chunk_row in zip(cells, results):
        name = payload[0]
        if name not in by_name:
            by_name[name] = chunk_row
            rows.append(chunk_row)
        else:
            # Chunks were planned (and mapped back) in seed order, so
            # merging in cell order reproduces the serial violations.
            by_name[name].merge(chunk_row)
    return rows
