"""Interrupt safety of store-backed runs, end to end.

The contract under test: every cell that finished before a SIGINT is
already persisted in the results store (run_cells streams results and
persists each one as it arrives), so the re-run reuses all of them and
the final report is byte-identical to an uninterrupted run.

The run under test is a real ``repro eval`` subprocess — the signal
lands on the CLI exactly as a user's Ctrl-C would.  Each run gets a
session of its own: a run that outlives its timeout is sent SIGABRT
(``PYTHONFAULTHANDLER`` then dumps every thread's stack into the
failure message) and its whole process group, pool workers included,
is killed, so a hang is diagnosable and leaves no orphans behind.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

TABLE4_RUNS = 120  # enough cells that a mid-run SIGINT leaves work undone
START_TIMEOUT = 60.0  # seconds to wait for the first persisted cells
MIN_CELLS_BEFORE_SIGINT = 5


def _eval_command(store_path):
    return [
        sys.executable, "-m", "repro", "eval",
        "--table4-runs", str(TABLE4_RUNS),
        "--jobs", "2",
        "--store-path", store_path,
    ]


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    env["PYTHONFAULTHANDLER"] = "1"
    return env


def _start(store_path, cwd):
    return subprocess.Popen(
        _eval_command(store_path), cwd=cwd, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _kill_group(proc):
    """Kill the run and every process it started (its session's group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _communicate(proc, timeout):
    """``proc.communicate``; on a timeout, fail with every thread's stack."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGABRT)  # faulthandler dumps all threads
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        # Pool workers hold the output pipes open: kill them before
        # reading the dump to its end.
        _kill_group(proc)
        _stdout, stderr = proc.communicate()
        pytest.fail(
            f"eval did not exit within {timeout}s; thread dump:\n"
            f"{stderr[-8000:]}"
        )


def _cell_count(store_path):
    """Count persisted cells without disturbing the writer."""
    try:
        conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    except sqlite3.OperationalError:
        return 0
    try:
        return conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
    except sqlite3.OperationalError:
        return 0  # schema not committed yet
    finally:
        conn.close()


def _run(store_path, cwd):
    """One uninterrupted run: (returncode, stdout, stderr)."""
    proc = _start(store_path, cwd)
    try:
        stdout, stderr = _communicate(proc, timeout=300)
    finally:
        _kill_group(proc)
    return proc.returncode, stdout, stderr


def test_sigint_mid_eval_persists_cells_and_resumes_byte_identical(tmp_path):
    interrupted_store = str(tmp_path / "interrupted.sqlite")

    # -- interrupt a run once a few cells are persisted -----------------------
    proc = _start(interrupted_store, str(tmp_path))
    try:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if _cell_count(interrupted_store) >= MIN_CELLS_BEFORE_SIGINT:
                break
            if proc.poll() is not None:
                pytest.fail(
                    "eval finished before the interrupt could land; raise "
                    f"TABLE4_RUNS (stderr: {proc.stderr.read()[-500:]})"
                )
            time.sleep(0.05)
        else:
            pytest.fail("no cells persisted within the startup timeout")
        proc.send_signal(signal.SIGINT)
        stdout, stderr = _communicate(proc, timeout=60)
    finally:
        _kill_group(proc)

    assert proc.returncode == 130, stderr[-500:]
    assert "interrupted" in stderr
    # run_cells printed the partial accounting before re-raising.
    assert "cells persisted" in stderr
    persisted = _cell_count(interrupted_store)
    assert persisted >= MIN_CELLS_BEFORE_SIGINT

    # -- the re-run reuses every persisted cell -------------------------------
    code, resumed_stdout, resumed_stderr = _run(interrupted_store, str(tmp_path))
    assert code == 0, resumed_stderr[-500:]
    counts = [
        line for line in resumed_stderr.splitlines()
        if "eval: results store:" in line
    ]
    assert counts, resumed_stderr[-500:]
    # "eval: results store: N executed, M reused of P cells (path)"
    fields = counts[0].split()
    executed, reused, planned = (
        int(fields[3]), int(fields[5]), int(fields[8])
    )
    assert executed + reused == planned
    assert reused >= persisted  # every interrupted-run cell was reused
    assert executed < planned  # ... so not everything re-ran

    # -- byte-identical to an uninterrupted fresh run -------------------------
    code, fresh_stdout, fresh_stderr = _run(
        str(tmp_path / "fresh.sqlite"), str(tmp_path)
    )
    assert code == 0, fresh_stderr[-500:]
    assert resumed_stdout == fresh_stdout
