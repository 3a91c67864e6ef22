"""Workload ``check-cold``: one-shot checks of programs no cache has
seen, closed loop with one client.

Each program is a registry source salted with a unique function that
is never called, so every cache misses while the known verdict still
holds.  For each program the client makes the calls ``repro analyze``
and ``repro leak`` make: ``analyze_source`` -> ``compile_source`` ->
``instrument_module`` -> ``run_dual(..., static_oracle=analysis)`` on
``build_world(world_seed)``.  Programs come in sweeps: one sweep is a
seeded permutation of all 41 (workload, variant) pairs, so every run
checks whole sets and never a hand-picked subset.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from perfbench import common

# Percentile reported as latency_tail_ms: a 30-second run checks about
# six sweeps or more (246 programs), so 24 or more lie beyond it.
TAIL = 0.90
# peak_rss_mb is the high-water mark after this many sweeps, so it
# measures a fixed amount of work however fast the sweeps run.
RSS_SWEEPS = 3
WORLD_SEEDS = (1, 2, 3, 4, 5)


def plan_sweep(seed: int, sweep: int) -> List[Tuple[str, str, int]]:
    """(workload, variant, world seed) in this sweep's seeded order.

    World seeds cycle over the registry order, so every sweep of every
    run does the same work: the seed moves only the order and the
    salts, and per-sweep counts are exact.
    """
    programs = [
        (name, variant, WORLD_SEEDS[index % len(WORLD_SEEDS)])
        for index, (name, variant) in enumerate(common.registry_pairs())
    ]
    random.Random(f"check-cold:{seed}:{sweep}").shuffle(programs)
    return programs


def salted(source: str, tag: str) -> str:
    return f"{source}\nfn perfbench_salt_{tag}() {{\n  return 0;\n}}\n"


def check_program(name: str, variant: str, world_seed: int, tag: str):
    """One cold check; returns the DualResult."""
    from repro.analysis import analyze_source
    from repro.core import run_dual
    from repro.instrument import instrument_module
    from repro.ir import compile_source
    from repro.workloads import get_workload

    workload = get_workload(name)
    config = workload.leak_variant() if variant == "leak" else workload.noleak_variant()
    source = salted(workload.source, tag)
    analysis = analyze_source(source, config, f"{name}:{variant}")
    instrumented = instrument_module(compile_source(source))
    return run_dual(
        instrumented, workload.build_world(world_seed), config,
        static_oracle=analysis,
    )


def verify(outcome: common.Outcome, name: str, variant: str, result) -> bool:
    """Count the check as failed unless the verdict is the known one."""
    expected = common.expected_causality(name, variant)
    if result.report.causality_detected != expected:
        outcome.fail(f"{name}:{variant} causality={result.report.causality_detected}, expected {expected}")
        return False
    if result.report.soundness_violations:
        outcome.fail(f"{name}:{variant} soundness violations {result.report.soundness_violations[:2]}")
        return False
    return True


def sweeps(outcome: common.Outcome, seed: int, seconds: float, phase: str) -> List[dict]:
    """Whole sweeps until *seconds* have passed (at least one)."""
    from perfbench.tracer import add_result_counts

    done: List[dict] = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        index = len(done)
        latencies: List[float] = []
        verdicts: List[bool] = []
        counts: Dict[str, float] = {}
        by_pair: Dict[Tuple[str, str], float] = {}
        probes: List[float] = []

        def add(name: str, value: float) -> None:
            counts[name] = counts.get(name, 0) + value

        sweep_start = time.perf_counter()
        for position, (name, variant, world_seed) in enumerate(plan_sweep(seed, index)):
            tag = f"{phase}_{seed}_{index}_{position}".replace("-", "m")
            probes.append(common.probe())
            began = time.perf_counter()
            outcome.attempted += 1
            try:
                result = check_program(name, variant, world_seed, tag)
            except Exception as error:  # a crash is a failed check, not a stop
                outcome.fail(f"{name}:{variant} raised {type(error).__name__}: {error}")
                latencies.append(float("inf"))
                verdicts.append(None)
                continue
            elapsed = time.perf_counter() - began
            if verify(outcome, name, variant, result):
                by_pair[name, variant] = elapsed
            else:
                elapsed = float("inf")  # a wrong answer misses any latency limit
            latencies.append(elapsed)
            verdicts.append(result.report.causality_detected)
            add_result_counts(add, result)
        done.append({
            "rss_mb": common.peak_rss_mb(),
            "wall_s": time.perf_counter() - sweep_start,
            "latencies": latencies,
            "by_pair": by_pair,
            "probes": probes,
            "verdicts": verdicts,
            "counts": counts,
        })
    return done


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    outcome = common.Outcome()
    from repro import cache

    setup, setups = common.median_setup(["check-ready"])
    cache.configure()
    if not trace:
        measured = sweeps(outcome, seed, seconds, "run")
        latencies = [x for sweep in measured for x in sweep["latencies"]]
        walls = [sweep["wall_s"] for sweep in measured]
        per_pair: Dict[Tuple[str, str], List[float]] = {}
        for sweep in measured:
            for pair, seconds_taken in sweep["by_pair"].items():
                per_pair.setdefault(pair, []).append(seconds_taken)
        sweep_wall = common.sum_of_medians(per_pair)
        probes = [x for sweep in measured for x in sweep["probes"]]
        factor = common.speed_factor(probes)
        p50 = common.percentile(latencies, 0.5)
        tail = common.percentile(latencies, TAIL)
        outcome.metric("setup_s", setup, "s")
        outcome.metric("peak_rss_mb", measured[:RSS_SWEEPS][-1]["rss_mb"], "MB")
        outcome.metric("latency_p50_ms", p50 * 1000 * factor, "ms")
        outcome.metric("latency_tail_ms", tail * 1000 * factor, "ms")
        outcome.metric("throughput_per_s", len(per_pair) / (sweep_wall * factor), "1/s")
        outcome.metric("wall_s", sweep_wall * factor, "s")
        outcome.notes.append(common.probe_note(probes))
        outcome.notes.append(
            "wall_s: one sweep of 41 programs, summed from per-program medians; "
            f"unscaled {sweep_wall:.6g} s; whole-sweep samples: " + common.summary(walls)
        )
        outcome.notes.append(
            f"latency: per program, p50 and p{round(TAIL * 100)} of {len(latencies)} "
            f"programs ({common.beyond(len(latencies), TAIL)} beyond the tail); "
            f"unscaled {p50 * 1000:.6g} ms and {tail * 1000:.6g} ms"
        )
    else:
        _traced(outcome, seed, seconds)
    outcome.notes.append("setup_s samples: " + common.summary(setups))
    return outcome


def _traced(outcome: common.Outcome, seed: int, seconds: float) -> None:
    from perfbench import tracer as tracing

    plain = sweeps(outcome, seed, seconds / 2, "plain")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = sweeps(outcome, seed, seconds / 2, "traced")
    finally:
        patches.restore()
    tracer.write(common.trace_path("check-cold", seed))
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        outcome.fail(f"wrappers left installed: {leftovers[:3]}")
    compare = min(len(plain), len(traced))
    for before, after in zip(plain[:compare], traced[:compare]):
        if before["verdicts"] != after["verdicts"]:
            outcome.fail("traced verdicts differ from untraced ones")
        for name in ("interp.instructions", "interp.edge_actions", "interp.syscalls"):
            if before["counts"].get(name) != after["counts"].get(name):
                outcome.fail(f"traced {name} differs from the untraced count")
    per_sweep = tracing.layer_metrics(tracer, per=len(traced))
    for name, value in per_sweep.items():
        outcome.metric(name, value, tracing.unit_of(name))
    p50 = lambda runs: common.percentile([x for s in runs for x in s["latencies"]], 0.5)
    outcome.metric("bench.tracing_overhead", p50(traced) / p50(plain), "ratio")
    total = sum(x for s in traced for x in s["latencies"])
    outcome.metric("bench.unattributed_share", 1.0 - tracer.self_seconds() / total, "ratio")
    outcome.notes.append(f"per-layer values are per sweep of 41 programs ({len(traced)} traced sweeps)")
