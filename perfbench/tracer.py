"""Out-of-program tracing: time the calls into each layer's public
functions by wrapping them from outside the program.

:func:`install` replaces every target in :data:`TARGETS` with a timing
wrapper — in the defining module or class, in every loaded ``repro``
module that bound the same function with ``from ... import``, and on
every registered workload instance (``Workload.build_world`` is an
instance attribute).  :meth:`Patches.restore` puts every original back.

Spans live in memory per thread and are written out once, at the end
of a run.  A span's *self* time is its duration minus the time its
child spans cover, so the per-layer totals add up without double
counting (``analyze_module`` calls ``instrument_module``, which calls
``compute_relevance``, which calls the dominator code, ...).  Calls
marked hot (one per syscall or per world clone) are aggregated only;
every other call is also kept as a span record.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

WRAPPED_MARK = "__perfbench_wrapped__"

# (layer, module, attribute path, hot).  The layer names are the
# per-layer metric prefixes; several functions may share one layer.
TARGETS: List[Tuple[str, str, str, bool]] = [
    ("lang.parse", "repro.lang.parser", "parse", False),
    ("ir.lower", "repro.ir.lowering", "compile_source", False),
    ("cfg.dominators", "repro.cfg.dominators", "compute_dominators", False),
    ("cfg.dominators", "repro.cfg.dominators", "compute_postdominators", False),
    ("cfg.dominators", "repro.cfg.dominators", "immediate_dominators", False),
    ("cfg.dominators", "repro.cfg.dominators", "immediate_postdominators_of", False),
    ("cfg.dominators", "repro.cfg.dominators", "immediate_postdominators", False),
    ("cfg.loops", "repro.cfg.loops", "find_loops", False),
    ("cfg.loops", "repro.cfg.loops", "find_back_edges", False),
    ("analysis.analyze", "repro.analysis.analyzer", "analyze_module", False),
    ("analysis.relevance", "repro.analysis.relevance", "compute_relevance", False),
    ("instrument.instrument", "repro.instrument.pipeline", "instrument_module", False),
    ("interp.compile_module", "repro.interp.compile", "compiled_for_module", False),
    ("core.engine_run", "repro.core.engine", "LdxEngine.run", False),
    ("core.factory_build", "repro.core.engine", "EngineFactory.__init__", False),
    ("vos.syscall", "repro.vos.kernel", "Kernel.execute", True),
    ("vos.world_clone", "repro.vos.world", "World.clone", True),
    ("cache.artifact_lookup", "repro.cache", "ArtifactCache.lookup", False),
    ("baselines.native", "repro.baselines.native", "run_native", False),
    ("baselines.taint", "repro.baselines.taint.runner", "run_taint", False),
    ("baselines.tightlip", "repro.baselines.tightlip", "run_tightlip", False),
    ("baselines.dualex", "repro.baselines.dualex.engine", "run_dualex", False),
    ("eval.cell", "repro.eval.parallel", "run_cell", False),
    ("results.put_cell", "repro.results.store", "ResultsStore.put_cell", False),
]

# Generated-code compilation: ``builtins.compile`` called with these
# file names by the threaded backend's lazy codegen.
CODEGEN_MODULE = "repro.interp.compile"
CODEGEN_FILENAMES = ("<ldx-run>", "<ldx-region>")

# The cell kinds ``repro eval`` plans (``eval.parallel.plan_eval_cells``).
EVAL_CELL_KINDS = ("table1", "figure6", "table2", "table3", "table4", "mutation")

# Modules whose ``from ... import`` bindings must exist before patching,
# so the identity scan finds them.
PRELOAD = (
    "repro.analysis",
    "repro.baselines",
    "repro.cache",
    "repro.core",
    "repro.eval.parallel",
    "repro.eval.runner",
    "repro.eval.table5",
    "repro.instrument",
    "repro.interp",
    "repro.ir",
    "repro.results",
    "repro.serve",
    "repro.workloads",
)


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class _ThreadState:
    """One thread's span stack and aggregates (no lock on the hot path)."""

    def __init__(self, name: str) -> None:
        self.thread = name
        self.stack: List[_Frame] = []
        # layer -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        # (operation id, layer, start, end, self seconds, depth)
        self.spans: List[tuple] = []
        self.op = 0


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._next_op = 0
        self.origin = time.perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _new_op(self) -> int:
        with self._lock:
            self._next_op += 1
            return self._next_op

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def call(self, layer: str, hot: bool, function: Callable, args, kwargs):
        """Run *function* inside a span named *layer*."""
        state = self._state()
        stack = state.stack
        if not stack:
            state.op = self._new_op()
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            own = duration - frame.child
            if stack:
                stack[-1].child += duration
            entry = state.totals[layer]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if not hot:
                state.spans.append(
                    (state.op, layer, frame.start - self.origin,
                     end - self.origin, own, len(stack))
                )

    def outermost(self, layer: str) -> bool:
        """True when no enclosing span on this thread is *layer*."""
        return all(frame.layer != layer for frame in self._state().stack[:-1])

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, total, own) in state.totals.items():
                entry = merged[layer]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return dict(merged)

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                merged[name] += value
        return dict(merged)

    def self_seconds(self) -> float:
        """Seconds covered by any span (sum of self times)."""
        return sum(own for _, _, own in self.totals().values())

    def write(self, path: str) -> None:
        """Write every kept span plus the aggregates as JSON lines."""
        with self._lock:
            states = list(self._states)
        with open(path, "w") as handle:
            for state in states:
                for op, layer, start, end, own, depth in state.spans:
                    handle.write(json.dumps({
                        "thread": state.thread, "op": op, "layer": layer,
                        "start": round(start, 6), "end": round(end, 6),
                        "self": round(own, 6), "depth": depth,
                    }) + "\n")
            handle.write(json.dumps({
                "totals": self.totals(), "counts": self.counts(),
            }, sort_keys=True) + "\n")


# -- patching ------------------------------------------------------------------


class Patches:
    """Every (owner, attribute, original) replaced by :func:`install`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner, attribute: str, value) -> None:
        had = attribute in vars(owner)
        self._undo.append((owner, attribute, vars(owner).get(attribute), had))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original, had = self._undo.pop()
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, vars(owner)[attribute]


def _wrap(tracer: Tracer, layer: str, hot: bool, original: Callable) -> Callable:
    if layer == "cache.artifact_lookup":
        def wrapper(cache, *args, **kwargs):
            before = cache.stats.memory_hits + cache.stats.disk_hits
            start = time.perf_counter()
            result = tracer.call(layer, hot, original, (cache,) + args, kwargs)
            hit = cache.stats.memory_hits + cache.stats.disk_hits > before
            tracer.count("cache.artifact_lookups")
            if hit:
                tracer.count("cache.artifact_hits")
                tracer.count("cache.artifact_load_s", time.perf_counter() - start)
            return result
    elif layer == "cfg.dominators":
        def wrapper(*args, **kwargs):
            return tracer.call(layer, hot, _count_outermost, (original,) + args, kwargs)

        def _count_outermost(function, *args, **kwargs):
            if tracer.outermost(layer):
                tracer.count("cfg.dominators_calls")
            return function(*args, **kwargs)
    elif layer == "core.engine_run":
        def wrapper(*args, **kwargs):
            result = tracer.call(layer, hot, original, args, kwargs)
            add_result_counts(tracer.count, result)
            return result
    elif layer == "eval.cell":
        def wrapper(cell, *args, **kwargs):
            return tracer.call(f"eval.{cell[0]}", hot, original, (cell,) + args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(layer, hot, original, args, kwargs)
    setattr(wrapper, WRAPPED_MARK, original)
    wrapper.__name__ = getattr(original, "__name__", layer)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def add_result_counts(add: Callable[[str, float], None], result) -> None:
    """Add a DualResult's exact work counts (both sides) through *add*."""
    for machine in (result.master, result.slave):
        stats = machine.stats
        add("interp.instructions", stats.instructions)
        add("interp.edge_actions", stats.edge_actions)
        add("interp.syscalls", stats.syscalls)
    add("vos.faults_injected", len(result.degradation.faults_injected))
    add("vos.retries", result.degradation.retries)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> Patches:
    """Wrap every target; returns the patches to restore afterwards."""
    for name in PRELOAD:
        importlib.import_module(name)
    patches = Patches()
    modules = _repro_modules()
    for layer, module_name, path, hot in TARGETS:
        owner, attribute, original = _resolve(module_name, path)
        wrapper = _wrap(tracer, layer, hot, original)
        patches.replace(owner, attribute, wrapper)
        if "." in path:
            continue  # a method: every caller reaches it through the class
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    patches.replace(module, name, wrapper)

    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        original = workload.build_world
        patches.replace(
            workload, "build_world",
            _wrap(tracer, "vos.world_build", False, original),
        )

    import builtins

    builtin_compile = builtins.compile

    def codegen_compile(source, filename, *args, **kwargs):
        if filename not in CODEGEN_FILENAMES:
            return builtin_compile(source, filename, *args, **kwargs)
        size = len(source.encode() if isinstance(source, str) else source)
        tracer.count("interp.codegen_calls")
        tracer.count("interp.codegen_bytes", size)
        return tracer.call(
            "interp.codegen", False, builtin_compile,
            (source, filename) + args, kwargs,
        )

    setattr(codegen_compile, WRAPPED_MARK, builtin_compile)
    patches.replace(importlib.import_module(CODEGEN_MODULE), "compile", codegen_compile)
    return patches


def leftover_wrappers() -> List[str]:
    """Every place a tracing wrapper is still installed (should be [])."""
    found: List[str] = []

    def scan(owner, label: str) -> None:
        for name, value in list(vars(owner).items()):
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{label}.{name}")
            elif isinstance(value, type) and value.__module__ == getattr(owner, "__name__", None):
                scan(value, f"{label}.{name}")

    for module in _repro_modules():
        scan(module, module.__name__)
    workloads = sys.modules.get("repro.workloads")
    if workloads is not None:
        for workload in workloads.ALL_WORKLOADS:
            if hasattr(vars(workload).get("build_world"), WRAPPED_MARK):
                found.append(f"workload {workload.name}.build_world")
    return found


def layer_metrics(tracer: Tracer, per: float = 1.0) -> Dict[str, float]:
    """The per-layer metric values, divided by *per* work units."""
    totals = tracer.totals()
    counts = tracer.counts()

    def own(*layers: str) -> float:
        return sum(totals.get(layer, (0, 0.0, 0.0))[2] for layer in layers) / per

    def calls(layer: str) -> float:
        return totals.get(layer, (0, 0.0, 0.0))[0] / per

    def count(name: str) -> float:
        return counts.get(name, 0) / per

    lookups = counts.get("cache.artifact_lookups", 0)
    metrics = {
        "lang.parse_s": own("lang.parse"),
        "ir.lower_s": own("ir.lower"),
        "cfg.dominators_calls": count("cfg.dominators_calls"),
        "cfg.dominators_s": own("cfg.dominators"),
        "cfg.loops_s": own("cfg.loops"),
        "analysis.analyze_s": own("analysis.analyze"),
        "analysis.relevance_s": own("analysis.relevance"),
        "instrument.instrument_s": own("instrument.instrument"),
        "interp.codegen_calls": count("interp.codegen_calls"),
        "interp.codegen_s": own("interp.codegen"),
        "interp.codegen_bytes": count("interp.codegen_bytes"),
        "interp.compile_module_s": own("interp.compile_module"),
        "interp.instructions": count("interp.instructions"),
        "interp.edge_actions": count("interp.edge_actions"),
        "interp.syscalls": count("interp.syscalls"),
        "core.engine_run_s": own("core.engine_run"),
        "core.factory_build_s": own("core.factory_build"),
        "vos.syscall_calls": calls("vos.syscall"),
        "vos.syscall_s": own("vos.syscall"),
        "vos.world_clone_s": own("vos.world_clone"),
        "vos.world_build_s": own("vos.world_build"),
        "vos.faults_injected": count("vos.faults_injected"),
        "vos.retries": count("vos.retries"),
        "cache.artifact_hit_ratio": (
            counts.get("cache.artifact_hits", 0) / lookups if lookups else 0.0
        ),
        "cache.artifact_load_s": count("cache.artifact_load_s"),
        "results.put_cell_calls": calls("results.put_cell"),
        "results.put_cell_s": own("results.put_cell"),
    }
    for baseline in ("native", "taint", "tightlip", "dualex"):
        metrics[f"baselines.{baseline}_s"] = own(f"baselines.{baseline}")
        metrics[f"baselines.{baseline}_calls"] = calls(f"baselines.{baseline}")
    for kind in EVAL_CELL_KINDS:
        metrics[f"eval.{kind}_s"] = own(f"eval.{kind}")
    return metrics


# Work counts that must repeat exactly for identical inputs.
EXACT_COUNTS = (
    "interp.instructions",
    "interp.edge_actions",
    "interp.syscalls",
    "cfg.dominators_calls",
    "interp.codegen_calls",
    "results.put_cell_calls",
)


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_overhead")):
        return "ratio"
    return "count"
