"""Workload ``eval-tables``: the paper reproduction, one fresh
``repro eval`` process per run.

Each run starts a new interpreter on a warm on-disk artifact cache and
a fresh results store, so it executes and persists all 137 cells —
what a user pays on every ``repro eval`` invocation, including the
memory-only threaded codegen.  The report must be byte-identical to a
reference rendered on the switch backend (an independent interpreter
path), which is produced outside every timed region and kept per
source tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import time
from typing import Dict, List

from perfbench import common
from perfbench.tracer import EXACT_COUNTS, unit_of

# Percentile of per-cell latency reported as latency_tail_ms: one run
# has 137 cells, so at least 13 lie beyond it.
TAIL = 0.90
RUN_TIMEOUT = 150.0


def _source_digest() -> str:
    """Content hash of the program tree the reference is rendered from."""
    hasher = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(common.SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                hasher.update(os.path.relpath(path, common.SRC).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:20]


def _run_child(args: List[str], out: str) -> float:
    """Run one eval child to completion; returns its wall seconds."""
    os.makedirs(out, exist_ok=True)
    start = time.perf_counter()
    child = common.spawn_child(
        ["eval", "--out", out, *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = child.communicate(timeout=RUN_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    wall = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"eval child failed ({child.returncode}): {err[-2000:]}")
    return wall


def reference_report() -> str:
    """The switch-backend report for this source tree (rendered once)."""
    path = os.path.join(common.WORK_ROOT, f"reference-{_source_digest()}.txt")
    if not os.path.exists(path):
        out = os.path.join(common.WORK_ROOT, f"reference-{os.getpid()}")
        _run_child(["--backend", "switch"], out)
        os.replace(os.path.join(out, "report.txt"), path)
        shutil.rmtree(out, ignore_errors=True)
    with open(path) as handle:
        return handle.read()


def _runs(workdir: str, cache_dir: str, seconds: float, trace: bool,
          label: str, reference: str, outcome: common.Outcome,
          seed: int = 0) -> List[dict]:
    """Eval runs until *seconds* have passed (at least one)."""
    runs: List[dict] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        out = os.path.join(workdir, f"{label}-{len(runs)}")
        store = os.path.join(out, "results.db")
        args = ["--cache-dir", cache_dir, "--store", store]
        args.append("--trace" if trace else "--probe")
        wall = _run_child(args, out)
        with open(os.path.join(out, "report.txt")) as handle:
            report = handle.read()
        with open(os.path.join(out, "stats.json")) as handle:
            stats = json.load(handle)
        stats["wall_s"] = wall
        stats["digest"] = hashlib.sha256(report.encode()).hexdigest()
        outcome.attempted += 1
        if report != reference:
            outcome.fail(f"{label} run {len(runs)}: report differs from the switch reference")
        if trace:
            shutil.copy(
                os.path.join(out, "trace.jsonl"),
                common.trace_path("eval-tables", seed, f"-run{len(runs)}"),
            )
        runs.append(stats)
    return runs


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    # The eval takes no inputs: the seed only names the run.  Every run
    # repeats the same 137 cells, which is what makes it a yardstick.
    outcome = common.Outcome()
    workdir = common.make_workdir("eval-tables", seed)
    try:
        reference = reference_report()
        caches = [os.path.join(workdir, f"cache-{i}") for i in range(common.SETUP_REPEATS)]
        setups = [common.time_to_ready(["warm-cache", "--cache-dir", d]) for d in caches]
        setup = statistics.median(setups)
        if not trace:
            runs = _runs(workdir, caches[0], seconds, False, "run", reference, outcome)
            _end_to_end(outcome, runs, setup)
        else:
            plain = _runs(workdir, caches[0], seconds / 2, False, "plain", reference, outcome)
            traced = _runs(workdir, caches[0], seconds / 2, True, "traced", reference,
                           outcome, seed)
            _per_layer(outcome, plain, traced)
        outcome.notes.append("setup_s samples: " + common.summary(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _end_to_end(outcome: common.Outcome, runs: List[dict], setup: float) -> None:
    # Each process is scaled by its own probes, taken between its cells;
    # its wall excludes the probes' own time.
    walls = [stats["wall_s"] - sum(stats["probes_s"]) for stats in runs]
    factors = [common.speed_factor(stats["probes_s"]) for stats in runs]
    cells = [value * factor for stats, factor in zip(runs, factors)
             for value in stats["cell_latencies_s"]]
    wall = statistics.median(w * f for w, f in zip(walls, factors))
    outcome.metric("setup_s", setup, "s")
    outcome.metric("peak_rss_mb", statistics.median(s["peak_rss_mb"] for s in runs), "MB")
    outcome.metric("latency_p50_ms", common.percentile(cells, 0.5) * 1000, "ms")
    outcome.metric("latency_tail_ms", common.percentile(cells, TAIL) * 1000, "ms")
    outcome.metric("throughput_per_s", len(runs[0]["cell_latencies_s"]) / wall, "1/s")
    outcome.metric("wall_s", wall, "s")
    outcome.notes.append(common.probe_note([p for s in runs for p in s["probes_s"]]))
    outcome.notes.append(
        "wall_s: the median whole eval process, spawn to exit, each scaled by its "
        "own probes; unscaled samples: " + common.summary(walls)
        + "; factors: " + common.summary(factors)
    )
    outcome.notes.append(
        f"latency: per-cell execution, p50 and p{round(TAIL * 100)} of {len(cells)} "
        f"cells ({common.beyond(len(cells), TAIL)} beyond the tail)"
    )


def _per_layer(outcome: common.Outcome, plain: List[dict], traced: List[dict]) -> None:
    digests = {stats["digest"] for stats in plain + traced}
    if len(digests) != 1:
        outcome.fail("traced and untraced eval reports differ")
    layers: Dict[str, List[float]] = {}
    for stats in traced:
        if stats["leftover_wrappers"]:
            outcome.fail(f"wrappers left installed: {stats['leftover_wrappers'][:3]}")
        for name, value in stats["layers"].items():
            layers.setdefault(name, []).append(value)
    for name, values in sorted(layers.items()):
        if name in EXACT_COUNTS and len(set(values)) != 1:
            outcome.fail(f"{name} differs between identical eval runs: {values}")
        outcome.metric(name, statistics.median(values), unit_of(name))
    # The untraced runs probe host speed between cells; that time is
    # left out so both sides time the same work.
    wall_plain = statistics.median(s["wall_s"] - sum(s["probes_s"]) for s in plain)
    wall_traced = statistics.median(s["wall_s"] - sum(s["probes_s"]) for s in traced)
    traced_share = statistics.median(s["traced_s"] / s["wall_s"] for s in traced)
    outcome.metric("bench.tracing_overhead", wall_traced / wall_plain, "ratio")
    outcome.metric("bench.unattributed_share", 1.0 - traced_share, "ratio")
    outcome.notes.append(f"per-layer values are per eval run (median of {len(traced)} traced runs)")

