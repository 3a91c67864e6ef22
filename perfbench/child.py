"""Fresh-interpreter entry points of the benchmark.

``python -m perfbench.child MODE ...`` from the repository root with
``src`` and the root on ``PYTHONPATH``.  The set-up modes print
``ready`` once the state a workload's measured phase starts from
exists; the parent times spawn-to-ready.  ``eval`` runs the paper
reproduction the way ``repro eval --cache-dir D --store-path S`` does
and writes the report and its own measurements to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def serve_ready(cache_dir: str) -> int:
    """A started service with a warm factory for every pair."""
    from perfbench.serve_warm import start_service

    service = start_service(cache_dir)
    _ready()
    return 0 if service.drain(timeout=120) else 1


def check_ready() -> int:
    """The public API a one-shot program check imports, caches fresh."""
    from repro import cache
    from repro.analysis import analyze_source  # noqa: F401
    from repro.core import run_dual  # noqa: F401
    from repro.instrument import instrument_module  # noqa: F401
    from repro.ir import compile_source  # noqa: F401
    from repro.workloads import ALL_WORKLOADS  # noqa: F401

    cache.configure()
    _ready()
    return 0


def warm_cache(cache_dir: str) -> int:
    """Fill an on-disk artifact cache with every registry program."""
    from repro import cache
    from repro.workloads import ALL_WORKLOADS

    cache.configure(cache_dir=cache_dir)
    for workload in ALL_WORKLOADS:
        cache.instrumented_for(workload.source)
    _ready()
    return 0


TABLE4_RUNS = 100


def run_eval(args) -> int:
    """One ``repro eval`` invocation; writes report.txt and stats.json."""
    from repro import cache
    from repro.eval.executors import SerialExecutor
    from repro.eval.runner import run_all
    from repro.interp import set_default_backend

    from perfbench.common import probe

    class TimedSerialExecutor(SerialExecutor):
        """The serial executor, timing each cell's execution, with the
        host-speed probe before each cell when ``--probe`` is given."""

        def __init__(self) -> None:
            super().__init__()
            self.latencies = []
            self.probes = []

        def stream(self):
            inner = super().stream()
            while True:
                if args.probe:
                    self.probes.append(probe())
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                self.latencies.append(time.perf_counter() - start)
                yield item

    set_default_backend(args.backend)
    if args.cache_dir:
        cache.configure(cache_dir=args.cache_dir)
    else:
        cache.configure(enabled=False)
    tracer = patches = None
    if args.trace:
        from perfbench import tracer as tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
    executor = TimedSerialExecutor() if args.store else None
    start = time.perf_counter()
    try:
        result = run_all(
            table4_runs=TABLE4_RUNS,
            cache_dir=args.cache_dir,
            use_cache=bool(args.cache_dir),
            store_path=args.store,
            executor=executor,
        )
    finally:
        if executor is not None:
            executor.close()
        if patches is not None:
            patches.restore()
    run_seconds = time.perf_counter() - start
    with open(os.path.join(args.out, "report.txt"), "w") as handle:
        handle.write(result.report)
    stats = {
        "run_all_s": run_seconds,
        "cell_latencies_s": executor.latencies if executor else [],
        "probes_s": executor.probes if executor else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from perfbench import tracer as tracing

        tracer.write(os.path.join(args.out, "trace.jsonl"))
        stats["layers"] = tracing.layer_metrics(tracer)
        stats["traced_s"] = tracer.self_seconds()
        stats["leftover_wrappers"] = tracing.leftover_wrappers()
    with open(os.path.join(args.out, "stats.json"), "w") as handle:
        json.dump(stats, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=["serve-ready", "check-ready",
                                         "warm-cache", "eval"])
    parser.add_argument("--cache-dir")
    parser.add_argument("--store")
    parser.add_argument("--out")
    parser.add_argument("--backend", default="threaded")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "serve-ready":
        return serve_ready(args.cache_dir)
    if args.mode == "check-ready":
        return check_ready()
    if args.mode == "warm-cache":
        return warm_cache(args.cache_dir)
    return run_eval(args)


if __name__ == "__main__":
    sys.exit(main())
