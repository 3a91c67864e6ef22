"""Integration tests for the multihost executor.

The contract under test: reports are byte-identical whether cells run
in process, on a local pool, or on worker nodes — including when a
node dies mid-sweep and its in-flight cells are re-dispatched.  Nodes
here are localhost subprocesses, the same machinery CI exercises with
``--nodes localhost,localhost``.
"""

import json
import select
import subprocess
import time

import pytest

from repro.eval.executors import (
    ExecutorError,
    LocalPoolExecutor,
    MultiHostExecutor,
)
from repro.eval.parallel import plan_chaos_cells
from repro.eval.robustness import ChaosRow, render_chaos, run_chaos

NAMES = ["gzip", "bzip2"]
SEEDS = 4
RATE = 0.1
DEADLINE = 25_000.0


@pytest.fixture(scope="module")
def serial_text():
    rows = run_chaos(names=NAMES, seeds=SEEDS)
    return render_chaos(rows, SEEDS, RATE)


def _render(rows):
    return render_chaos(rows, SEEDS, RATE)


def test_local_pool_executor_matches_serial(serial_text):
    with LocalPoolExecutor(jobs=2) as executor:
        rows = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
    assert _render(rows) == serial_text


def test_multihost_two_nodes_matches_serial(serial_text):
    with MultiHostExecutor(["localhost", "localhost"]) as executor:
        rows = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
    assert _render(rows) == serial_text


def test_multihost_executor_serves_multiple_rounds(serial_text):
    """One executor (and its warm nodes) runs round after round, the
    way a CLI invocation reuses it across fan-outs."""
    with MultiHostExecutor(["localhost"]) as executor:
        first = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
        second = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
    assert _render(first) == serial_text
    assert _render(second) == serial_text


def test_node_heartbeats_before_hello_is_handled():
    """The node's heartbeat thread starts with the process, not after
    warm-up: the parent must see liveness while a cold cache warms,
    which can take far longer than the heartbeat timeout."""
    from repro.eval.executors.multihost import _node_command, _node_env

    proc = subprocess.Popen(
        _node_command("localhost"),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=_node_env(), text=True,
    )
    try:
        # No hello is ever sent, so nothing configures or warms the
        # node — the first frame can only come from the heartbeat
        # thread (2s interval; 20s allows for a slow interpreter start).
        readable, _, _ = select.select([proc.stdout], [], [], 20.0)
        assert readable, "node sent no frame within 20s of starting"
        frame = json.loads(proc.stdout.readline())
        assert frame["op"] == "heartbeat"
    finally:
        proc.kill()
        proc.wait()


def test_idle_executor_between_rounds_keeps_nodes_alive(serial_text):
    """Liveness is recorded as heartbeats arrive on the reader thread,
    not when stream() consumes them — so an executor idling between
    rounds longer than heartbeat_timeout (a lifecycle the contract
    explicitly supports) must not declare its healthy nodes dead."""
    with MultiHostExecutor(["localhost"], heartbeat_timeout=4.0) as executor:
        first = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
        time.sleep(6.0)  # > heartbeat_timeout with no stream() pumping
        node = executor._nodes[0]
        second = run_chaos(names=NAMES, seeds=SEEDS, executor=executor)
        assert node.alive
    assert _render(first) == serial_text
    assert _render(second) == serial_text


def test_kill_one_node_mid_sweep_redispatches(serial_text):
    """Killing a node mid-round loses no cells: its in-flight batches
    re-dispatch to the survivor and the merged report is still
    byte-identical to the serial sweep."""
    cells = plan_chaos_cells(NAMES, SEEDS, RATE, DEADLINE, seed_chunk=1)
    executor = MultiHostExecutor(
        ["localhost", "localhost"], batch_size=1, window=1
    )
    results = [None] * len(cells)
    try:
        executor.submit(cells)
        victim_killed = False
        for index, result in executor.stream():
            results[index] = result
            if not victim_killed:
                # First result is back: the round is mid-flight.  Kill
                # node 0 the hard way (no shutdown handshake).
                victim = executor._nodes[0]
                if victim.proc is not None:
                    victim.proc.kill()
                victim_killed = True
    finally:
        executor.close()

    assert victim_killed
    assert all(result is not None for result in results)

    rows = []
    by_name = {}
    for (kind, payload), chunk_row in zip(cells, results):
        assert isinstance(chunk_row, ChaosRow)
        name = payload[0]
        if name not in by_name:
            by_name[name] = chunk_row
            rows.append(chunk_row)
        else:
            by_name[name].merge(chunk_row)
    assert _render(rows) == serial_text


def test_all_nodes_dead_raises_executor_error():
    cells = plan_chaos_cells(NAMES, SEEDS, RATE, DEADLINE, seed_chunk=1)
    executor = MultiHostExecutor(["localhost"], batch_size=1)
    try:
        executor.submit(cells)
        with pytest.raises(ExecutorError, match="all worker nodes died"):
            for _index, _result in executor.stream():
                executor._nodes[0].proc.kill()
    finally:
        executor.close()


def test_multihost_store_path_matches_pool(tmp_path, serial_text):
    """run_chaos with a results store persists each cell as it
    streams back from the nodes; a warm re-run executes nothing."""
    from repro.results import ResultsStore

    store = ResultsStore(str(tmp_path / "cells.sqlite"))
    try:
        with MultiHostExecutor(["localhost", "localhost"]) as executor:
            rows = run_chaos(
                names=NAMES, seeds=SEEDS, rate=RATE,
                watchdog_deadline=DEADLINE, store=store, executor=executor,
            )
        assert _render(rows) == serial_text
        # Warm re-run: every cell served from the store, serial backend.
        warm = run_chaos(
            names=NAMES, seeds=SEEDS, rate=RATE,
            watchdog_deadline=DEADLINE, store=store,
        )
        assert _render(warm) == serial_text
        assert store.latest_run("chaos")["executed"] == 0
    finally:
        store.close()
