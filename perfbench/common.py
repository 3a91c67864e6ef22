"""Shared pieces of the benchmark: paths, percentiles, the registry's
(workload, variant) pairs with their known answers, the host-speed
probe, fresh-process set-up timing and the result record every
workload fills in.

The host-speed probe
--------------------
The shared host this benchmark was defined on runs 20-40% faster or
slower from one minute to the next, and a fixed CPU loop swings the
same way.  No estimator inside a 30-second run removes that, so every
gated timing except ``setup_s`` is reported at a reference host speed.
The measured work is interleaved with :func:`probe`, a fixed
pure-Python task that never touches the program: before each program
(check-cold), before each closed-loop round (serve-warm) and before
each cell inside each eval process (eval-tables).  A time is then
multiplied by ``REFERENCE_PROBE_S`` / the median probe time of the same
stretch of work.  A program that gets faster changes its own times
and not the probe's, so a gain shows in full; a slower host slows
both, and the ratio holds.  The unscaled figures are printed on the
note lines.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space for caches, stores and reports; removed after each run.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# Span files of traced runs; kept so a run can be inspected afterwards.
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")

# Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# Median probe time on the host the benchmark was defined on (2-vCPU
# VM, Python 3.11), over 12 minutes of interleaved work.
REFERENCE_PROBE_S = 0.0034

Pair = Tuple[str, str]


def child_env() -> Dict[str, str]:
    """Environment for the benchmark's child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = WORK_ROOT
    return env


def registry_pairs() -> List[Pair]:
    """Every registered (workload, variant) pair: ``leak`` for all
    workloads plus ``noleak`` where the workload defines one."""
    from repro.workloads import ALL_WORKLOADS

    pairs: List[Pair] = []
    for workload in ALL_WORKLOADS:
        pairs.append((workload.name, "leak"))
        if workload.noleak_variant() is not None:
            pairs.append((workload.name, "noleak"))
    return pairs


def expected_causality(name: str, variant: str) -> bool:
    """The registry's known answer for one pair."""
    from repro.workloads import get_workload

    if variant == "noleak":
        return False
    return get_workload(name).expected_leak


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def sum_of_medians(samples: Dict[object, List[float]]) -> float:
    """Sum over keys of the median of each key's samples.

    The machine's speed drifts in bursts of about a second; a burst
    inflates a few operations of a run, which moves a whole-run total
    but leaves each operation's median across repeats alone.
    """
    return sum(statistics.median(values) for values in samples.values())


def _probe_task() -> int:
    """Fixed pure-Python work: dict updates, tuple building, str() and
    a sort."""
    table: Dict[int, int] = {}
    items = []
    total = 0
    for i in range(6000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        total += len(str(i))
    items.sort()
    return total


def probe() -> float:
    """Seconds the fixed probe task takes right now, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: Sequence[float]) -> float:
    """REFERENCE_PROBE_S / the median of *probes*: multiply a time
    measured among those probes by it to get the time at the reference
    host speed (divide a rate by it)."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def probe_note(probes: Sequence[float]) -> str:
    return (f"host probe: median {statistics.median(probes) * 1000:.4g} ms of "
            f"{len(probes)} (reference {REFERENCE_PROBE_S * 1000:g} ms); timings "
            f"below are scaled by {speed_factor(probes):.4g}")


def beyond(count: int, fraction: float) -> int:
    """Samples above the nearest-rank percentile of *count* samples."""
    return count - max(1, math.ceil(fraction * count))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workdir(workload: str, seed: int) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def trace_path(workload: str, seed: int, part: str = "") -> str:
    """Where a traced run writes its spans (kept after the run)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    return os.path.join(TRACE_DIR, f"{workload}-seed{seed}{part}.jsonl")


def spawn_child(args: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start ``perfbench.child`` in a fresh interpreter."""
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT, env=child_env(), **kwargs,
    )


def time_to_ready(args: Sequence[str], timeout: float = 120.0) -> float:
    """Seconds from spawning a fresh child until it prints ``ready``;
    the child is then left to finish and reaped."""
    start = time.perf_counter()
    child = spawn_child(args, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child {list(args)} failed (exit {code})")
    return ready


def median_setup(args: Sequence[str]) -> Tuple[float, List[float]]:
    samples = [time_to_ready(args) for _ in range(SETUP_REPEATS)]
    return statistics.median(samples), samples


class Outcome:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        # Human-readable lines printed before the JSON result.
        self.notes: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, reason: str) -> None:
        """Count one failed operation, keeping the first reasons."""
        self.failed += 1
        if sum(1 for note in self.notes if note.startswith("FAIL")) < 10:
            self.notes.append(f"FAIL {reason}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def summary(values: Sequence[float]) -> str:
    """``median [q1, q3] n=N`` for a note line."""
    if len(values) < 2:
        return f"{values[0]:.6g} n={len(values)}" if values else "n=0"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (
        f"{statistics.median(values):.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
        f"n={len(values)}"
    )
