"""The executor interface: *where* eval/chaos cells run.

:mod:`repro.eval.parallel` decomposes every experiment into
deterministic cells; this package decides where those cells execute.
The contract is deliberately tiny — three methods — so backends can
range from a plain in-process loop to a multi-machine fan-out without
the planners or the results store caring:

* :meth:`CellExecutor.submit` opens a **round**: the executor takes
  ownership of a cell list.  A new round may start once the previous
  one is drained, so one executor (and its warm workers) serves every
  ``run_cells`` call of an invocation.
* :meth:`CellExecutor.stream` yields ``(index, result)`` pairs in
  **completion order**, where *index* is the cell's position in the
  submitted list.  Streaming is the interrupt-safety contract: the
  caller persists each completed cell the moment it arrives, so a
  Ctrl-C or a dead worker node never discards finished work.  Callers
  reassemble in plan order, so completion order never leaks into
  reports.
* :meth:`CellExecutor.close` releases workers.  It is idempotent and
  safe mid-round (the round is abandoned).

Backends: :class:`~repro.eval.executors.local.SerialExecutor` (in
process), :class:`~repro.eval.executors.local.LocalPoolExecutor`
(process pool) and :class:`~repro.eval.executors.multihost.MultiHostExecutor`
(worker nodes over subprocess/SSH with work stealing and dead-node
re-dispatch); :func:`make_executor` picks one from ``--jobs``/``--nodes``.  All three produce byte-identical reports: cells are
pure functions of their spec.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

# A cell is (kind, payload-of-primitives); see repro.eval.parallel.
Cell = Tuple[str, tuple]


class ExecutorError(ReproError):
    """An executor could not run its cells (bad spec, all nodes lost)."""


class CellExecutor:
    """Abstract cell-execution backend; see the module docstring."""

    name = "abstract"

    def submit(self, cells: Sequence[Cell]) -> None:
        """Open a round over *cells* (the previous round must be drained)."""
        raise NotImplementedError

    def stream(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` in completion order until the
        round is drained."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers; idempotent, safe mid-round."""

    def run(self, cells: Sequence[Cell]) -> List[object]:
        """Submit one round and drain it; results in plan order."""
        self.submit(cells)
        results: List[object] = [None] * len(cells)
        for index, result in self.stream():
            results[index] = result
        return results

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_nodes(spec: str) -> List[str]:
    """``host,host*N,...`` -> one entry per worker node.

    ``localhost`` (or ``local``) names a subprocess node on this
    machine; anything else is reached over SSH.  ``HOST*N`` repeats a
    host N times (N worker processes on that machine).
    """
    nodes: List[str] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, star, count_text = chunk.partition("*")
        count = 1
        if star:
            try:
                count = int(count_text)
            except ValueError:
                raise ExecutorError(
                    f"bad node multiplier {chunk!r} (want HOST*N)"
                ) from None
            if count < 1:
                raise ExecutorError(f"node multiplier must be >= 1: {chunk!r}")
        if not host:
            raise ExecutorError(f"empty host in --nodes entry {chunk!r}")
        nodes.extend([host] * count)
    if not nodes:
        raise ExecutorError(f"--nodes {spec!r} names no worker nodes")
    return nodes


def make_executor(
    jobs: int = 1,
    nodes: Optional[str] = None,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
) -> CellExecutor:
    """The executor for a ``--jobs``/``--nodes`` choice.

    ``nodes`` fans out to worker nodes, ``jobs > 1`` runs a local
    process pool, anything else runs in process.  This is the only
    place an executor is chosen.
    """
    if nodes is not None:
        if jobs > 1:
            # Both flags name the parallelism; silently preferring one
            # would run a sweep somewhere the user did not ask for.
            raise ExecutorError(
                f"--nodes and --jobs {jobs} are exclusive: worker nodes "
                "set the parallelism (use HOST*N for N workers on a host)"
            )
        from repro.eval.executors.multihost import MultiHostExecutor

        return MultiHostExecutor(
            parse_nodes(nodes), cache_dir=cache_dir, cache_enabled=cache_enabled
        )
    if jobs > 1:
        from repro.eval.executors.local import LocalPoolExecutor

        return LocalPoolExecutor(
            jobs=jobs, cache_dir=cache_dir, cache_enabled=cache_enabled
        )
    from repro.eval.executors.local import SerialExecutor

    return SerialExecutor()
