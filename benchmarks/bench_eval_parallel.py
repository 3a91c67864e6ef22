"""Benchmark: parallel eval fan-out and the instrumentation artifact cache.

Records (as ``extra_info`` in the pytest-benchmark JSON):

* serial vs ``--jobs 4`` wall clock for the evaluation suite and the
  speedup between them — the acceptance target is >= 2.5x at 4 jobs on
  hardware that has 4 cores to give;
* cold vs warm artifact-cache timings and hit rates — a warm cache
  must eliminate every re-lex/re-parse/re-lower/re-plan (zero misses).

The byte-identity of the serial and parallel reports is asserted
unconditionally; the speedup floor is asserted only when the machine
actually has >= 4 CPUs (a single-core container cannot exhibit it).
"""

import os
import time

import pytest

from repro.cache import ArtifactCache
from repro.eval.executors import make_executor
from repro.eval.runner import run_all
from repro.workloads import ALL_WORKLOADS

TABLE4_RUNS = 100
JOBS = 4
SPEEDUP_FLOOR = 2.5


@pytest.mark.paper
def test_parallel_eval_speedup(benchmark):
    start = time.perf_counter()
    serial_report = run_all(table4_runs=TABLE4_RUNS).report
    serial_seconds = time.perf_counter() - start

    parallel_report = None

    def parallel_run():
        nonlocal parallel_report
        with make_executor(JOBS) as executor:
            parallel_report = run_all(
                table4_runs=TABLE4_RUNS, executor=executor
            ).report

    benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_seconds = benchmark.stats.stats.total

    # The fan-out contract: reassembled output is byte-identical.
    assert parallel_report == serial_report

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_seconds, 3)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = os.cpu_count()
    print(
        f"\nserial {serial_seconds:.2f}s  "
        f"parallel(jobs={JOBS}) {parallel_seconds:.2f}s  "
        f"speedup {speedup:.2f}x on {os.cpu_count()} cpus"
    )

    if (os.cpu_count() or 1) >= JOBS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"--jobs {JOBS} speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x acceptance floor"
        )


@pytest.mark.paper
def test_artifact_cache_hit_rate(benchmark, tmp_path):
    """Cold run compiles and stores; warm run must be all disk hits."""
    cache_dir = str(tmp_path / "artifacts")

    start = time.perf_counter()
    cold = ArtifactCache(cache_dir=cache_dir)
    for workload in ALL_WORKLOADS:
        cold.instrumented(workload.source)
    cold_seconds = time.perf_counter() - start
    assert cold.stats.misses == len(ALL_WORKLOADS)
    assert cold.stats.stores == len(ALL_WORKLOADS)

    warm = None

    def warm_run():
        nonlocal warm
        warm = ArtifactCache(cache_dir=cache_dir)
        for workload in ALL_WORKLOADS:
            warm.instrumented(workload.source)

    benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_seconds = benchmark.stats.stats.total

    # The acceptance criterion: a warm cache eliminates ALL
    # re-lowering/re-planning — every lookup is a hit.
    assert warm.stats.misses == 0
    assert warm.stats.disk_hits == len(ALL_WORKLOADS)
    assert warm.stats.hit_rate == 1.0

    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["cold_hit_rate"] = cold.stats.hit_rate
    benchmark.extra_info["warm_hit_rate"] = warm.stats.hit_rate
    benchmark.extra_info["workloads"] = len(ALL_WORKLOADS)
    print(
        f"\ncold compile {cold_seconds*1000:.1f}ms "
        f"({cold.stats.misses} misses)  "
        f"warm load {warm_seconds*1000:.1f}ms "
        f"({warm.stats.disk_hits} disk hits, hit rate "
        f"{warm.stats.hit_rate:.0%})"
    )
