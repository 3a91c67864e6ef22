"""Single-host executors: in-process serial and the process pool.

:class:`SerialExecutor` runs each cell in the calling process and
yields it immediately — the natural backend for ``--jobs 1`` and the
reference implementation of the streaming contract (an interrupt loses
at most the cell currently executing).

:class:`LocalPoolExecutor` is the historical ``fan_out`` behavior
behind the executor interface: a :class:`ProcessPoolExecutor` whose
workers configure their process-global artifact cache and interpreter
backend once at spawn, then pull cells one at a time.  Unlike the old
``pool.map`` path it streams futures as they complete, so the caller
can persist finished cells while slower ones are still running.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval.executors.base import Cell, CellExecutor, ExecutorError


class SerialExecutor(CellExecutor):
    """Run cells in the calling process, one at a time, in plan order."""

    name = "serial"

    def __init__(self) -> None:
        self._cells: Optional[List[Cell]] = None

    def submit(self, cells: Sequence[Cell]) -> None:
        if self._cells:
            raise ExecutorError("previous round not drained")
        self._cells = list(cells)

    def stream(self) -> Iterator[Tuple[int, object]]:
        from repro.eval.parallel import run_cell

        cells, self._cells = self._cells or [], None
        for index, cell in enumerate(cells):
            yield index, run_cell(cell)


class LocalPoolExecutor(CellExecutor):
    """Fan cells out over a process pool on this machine.

    The pool is created lazily at the first submit (so its workers
    inherit the cache/backend configuration current at run time, not at
    construction) and persists across rounds — warm workers serve every
    ``run_cells`` call of an invocation.
    """

    name = "local"

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_enabled: Optional[bool] = None,
    ) -> None:
        from repro.eval.parallel import default_jobs

        self.jobs = default_jobs() if jobs is None else jobs
        if self.jobs < 1:
            raise ExecutorError(f"jobs must be >= 1, got {self.jobs}")
        self._cache_dir = cache_dir
        self._cache_enabled = cache_enabled
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: Dict[object, int] = {}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from repro.eval.parallel import _cache_settings, _worker_init
            from repro.instrument import relevance_enabled
            from repro.interp import get_default_backend

            cache_dir, cache_enabled = _cache_settings(
                self._cache_dir, self._cache_enabled
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(
                    cache_dir, cache_enabled, get_default_backend(),
                    relevance_enabled(),
                ),
            )
        return self._pool

    def submit(self, cells: Sequence[Cell]) -> None:
        if self._pending:
            raise ExecutorError("previous round not drained")
        from repro.eval.parallel import run_cell

        pool = self._ensure_pool()
        self._pending = {
            pool.submit(run_cell, cell): index
            for index, cell in enumerate(cells)
        }

    def stream(self) -> Iterator[Tuple[int, object]]:
        while self._pending:
            done, _running = wait(self._pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = self._pending.pop(future)
                yield index, future.result()

    def close(self) -> None:
        self._pending = {}
        if self._pool is not None:
            # Abandon queued cells instead of waiting for them; running
            # workers finish their current cell and exit.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
