"""Unit tests for the cell-executor interface and its local backends.

MultiHost behavior that needs real worker nodes lives in
tests/integration/test_distributed.py; here we cover the contract
surface: node-spec parsing, the --jobs/--nodes executor choice, serial
streaming, the wire blob codec and the pure helpers of the multihost
scheduler.
"""

import time

import pytest

from repro.eval import parallel
from repro.eval.executors import (
    ExecutorError,
    LocalPoolExecutor,
    MultiHostExecutor,
    SerialExecutor,
    make_executor,
    parse_nodes,
)
from repro.eval.executors.multihost import _batch_size, _warm_list
from repro.eval.executors.node import decode_blob, encode_blob


# -- parse_nodes ---------------------------------------------------------------


def test_parse_nodes_comma_separated():
    assert parse_nodes("localhost,big-box,localhost") == [
        "localhost", "big-box", "localhost",
    ]


def test_parse_nodes_multiplier_expands():
    assert parse_nodes("localhost*3") == ["localhost"] * 3
    assert parse_nodes("a*2,b") == ["a", "a", "b"]


def test_parse_nodes_tolerates_whitespace_and_blanks():
    assert parse_nodes(" localhost , ,remote ") == ["localhost", "remote"]


@pytest.mark.parametrize("spec", ["", "  ", ","])
def test_parse_nodes_rejects_empty_spec(spec):
    with pytest.raises(ExecutorError, match="names no worker nodes"):
        parse_nodes(spec)


def test_parse_nodes_rejects_bad_multiplier():
    with pytest.raises(ExecutorError, match="bad node multiplier"):
        parse_nodes("localhost*lots")
    with pytest.raises(ExecutorError, match="must be >= 1"):
        parse_nodes("localhost*0")


def test_parse_nodes_rejects_empty_host():
    with pytest.raises(ExecutorError, match="empty host"):
        parse_nodes("*3")


# -- make_executor -------------------------------------------------------------


def test_make_executor_defaults_to_auto():
    # No --jobs/--nodes: the derived choice runs cells in process.
    assert isinstance(make_executor(), SerialExecutor)


def test_make_executor_serial():
    executor = make_executor(1)
    assert isinstance(executor, SerialExecutor)
    executor.close()


def test_make_executor_local_pool():
    executor = make_executor(2)
    assert isinstance(executor, LocalPoolExecutor)
    assert executor.jobs == 2
    executor.close()  # pool is lazy: close before it ever spawned


def test_make_executor_nodes_alone_implies_multihost():
    executor = make_executor(1, nodes="localhost,localhost")
    assert isinstance(executor, MultiHostExecutor)
    executor.close()


def test_make_executor_rejects_nodes_with_jobs():
    # Both flags name the parallelism; silently preferring one would
    # run a "distributed" sweep on one machine or the other way round.
    with pytest.raises(ExecutorError, match="exclusive"):
        make_executor(2, nodes="localhost,localhost")


# -- SerialExecutor ------------------------------------------------------------


@pytest.fixture
def square_cells(monkeypatch):
    """Register a trivial in-process cell kind so executor mechanics can
    be tested without running real workloads."""
    monkeypatch.setitem(parallel._CELL_RUNNERS, "square", lambda n: n ** 2)
    return [("square", (n,)) for n in range(7)]


def test_serial_executor_streams_in_plan_order(square_cells):
    with SerialExecutor() as executor:
        executor.submit(square_cells)
        pairs = list(executor.stream())
    assert pairs == [(n, n * n) for n in range(7)]


def test_serial_executor_run_reassembles(square_cells):
    with SerialExecutor() as executor:
        assert executor.run(square_cells) == [n * n for n in range(7)]


def test_serial_executor_serves_multiple_rounds(square_cells):
    with SerialExecutor() as executor:
        assert executor.run(square_cells[:3]) == [0, 1, 4]
        assert executor.run(square_cells[3:]) == [9, 16, 25, 36]


def test_serial_executor_close_mid_round_is_safe(square_cells):
    executor = SerialExecutor()
    executor.submit(square_cells)
    next(executor.stream())
    executor.close()
    executor.close()  # idempotent


def test_local_pool_has_at_most_one_worker_per_cell(square_cells):
    executor = LocalPoolExecutor(jobs=4)
    try:
        executor.submit(square_cells[:2])
        assert executor._pool._max_workers == 2
    finally:
        executor.close()


def test_local_pool_widens_for_a_larger_round():
    # Pools spawn no worker until a cell is submitted, so sizing can be
    # checked without running any.
    executor = LocalPoolExecutor(jobs=4)
    try:
        assert executor._ensure_pool(2)._max_workers == 2
        assert executor._ensure_pool(7)._max_workers == 4
        assert executor._ensure_pool(1)._max_workers == 4
    finally:
        executor.close()


def test_run_cells_uses_caller_executor_and_leaves_it_open(square_cells):
    with SerialExecutor() as executor:
        results, stats = parallel.run_cells(square_cells, executor=executor)
        assert executor.run(square_cells[:2]) == [0, 1]
    assert results == [n * n for n in range(7)]
    assert stats == {"planned": 7, "executed": 7, "reused": 0}


def test_run_cells_without_executor_runs_in_process(square_cells, monkeypatch):
    built = []

    def fake_make_executor(*args, **kwargs):
        built.append((args, kwargs))
        return SerialExecutor()

    from repro.eval import executors

    monkeypatch.setattr(executors, "make_executor", fake_make_executor)
    results, _stats = parallel.run_cells(square_cells)
    assert results == [n * n for n in range(7)]
    assert built == [((), {})]


# -- wire codec ----------------------------------------------------------------


def test_blob_roundtrip_preserves_tuples():
    # Chaos payloads nest tuples; JSON alone would degrade them to
    # lists and break content-addressed cell keys.
    payload = [("chaos", ("gzip", (0, 1, 2), 0.1, 25_000.0))]
    assert decode_blob(encode_blob(payload)) == payload
    assert isinstance(decode_blob(encode_blob(payload))[0][1][1], tuple)


# -- multihost scheduler helpers ----------------------------------------------


def test_batch_size_targets_steal_factor():
    # 64 cells on 2 nodes -> 64 // (2*4) = 8 per batch.
    assert _batch_size(64, 2) == 8
    # Never exceeds MAX_BATCH even for huge rounds.
    assert _batch_size(10_000, 2) == 8
    # Small rounds degrade to single-cell batches.
    assert _batch_size(3, 2) == 1
    assert _batch_size(0, 2) == 1


def test_warm_list_collects_distinct_workloads():
    cells = [
        ("table1", ("gzip",)),
        ("chaos", ("bzip2", (0, 1), 0.1, 25_000.0)),
        ("mutation", ("baseline", ("gzip", "apache"))),
        ("table1", ("gzip",)),
    ]
    assert _warm_list(cells) == ["gzip", "bzip2", "apache"]


def test_multihost_constructor_validates():
    with pytest.raises(ExecutorError, match="at least one node"):
        MultiHostExecutor([])
    with pytest.raises(ExecutorError, match="window"):
        MultiHostExecutor(["localhost"], window=0)


def test_truncated_result_frame_kills_node_and_redispatches():
    """A result frame with fewer results than the batch had cells must
    not silently drop the missing cells (zip truncation would hang the
    round forever): the node is declared dead and the whole batch is
    re-dispatched to a survivor."""
    from repro.eval.executors.multihost import _Node

    executor = MultiHostExecutor(["a", "b"])
    node_a, node_b = _Node("a", 0), _Node("b", 1)
    sent = []
    for fake in (node_a, node_b):
        fake.alive = fake.ready = True
        fake.last_seen = time.monotonic()
        fake.send = lambda msg: sent.append(msg)  # no real process
    executor._nodes = [node_a, node_b]
    batch = [(0, ("square", (2,))), (1, ("square", (3,)))]
    node_a.inflight[7] = batch
    executor._round_pending = 2
    # Node a answers batch 7 with one result for two cells...
    executor._events.put((0, {
        "op": "result", "batch": 7, "data": encode_blob(["short"]),
    }))
    # ...and the re-dispatched batch (the executor assigns it batch
    # id 0) comes back complete from node b.
    executor._events.put((1, {
        "op": "result", "batch": 0, "data": encode_blob([4, 9]),
    }))
    assert dict(executor.stream()) == {0: 4, 1: 9}
    assert not node_a.alive
    assert executor.redispatched_cells == 2
    assert sent and sent[-1]["op"] == "run"
