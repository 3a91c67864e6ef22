"""Unit tests for the threaded-code compiler and backend plumbing."""

import pytest

from repro.baselines.native import run_native
from repro.errors import InterpreterError
from repro.instrument import instrument_module
from repro.interp.compile import (
    BACKEND_SWITCH,
    BACKEND_THREADED,
    clear_compile_memo,
    compile_module,
    compiled_for_module,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_event_locally
from repro.ir import compile_source
from repro.vos.kernel import Kernel
from repro.vos.world import World

LOOP = """
fn main() {
    var i = 0;
    var total = 0;
    while (i < 20) {
        total = total + i;
        i = i + 1;
    }
    print(total);
    return total;
}
"""


def both_runs(source, world_factory=None, plan=False, seed=0, **kwargs):
    factory = world_factory or World
    module = compile_source(source)
    module_plan = instrument_module(module).plan if plan else None
    switch = run_native(
        module, factory(), plan=module_plan, seed=seed, backend="switch", **kwargs
    )
    threaded = run_native(
        module, factory(), plan=module_plan, seed=seed, backend="threaded", **kwargs
    )
    return switch, threaded


# -- backend resolution --------------------------------------------------------


def test_resolve_backend_none_uses_default():
    assert resolve_backend(None) == get_default_backend()


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_backend("jit")


def test_set_default_backend_rejects_unknown():
    with pytest.raises(ValueError):
        set_default_backend("bogus")


def test_set_default_backend_round_trips():
    original = get_default_backend()
    try:
        set_default_backend(BACKEND_SWITCH)
        assert get_default_backend() == BACKEND_SWITCH
    finally:
        set_default_backend(original)


# -- compilation ----------------------------------------------------------------


def test_compile_produces_step_per_instruction():
    module = compile_source(LOOP)
    compiled = compile_module(module, fuse=False)
    for function in module.functions.values():
        steps = compiled.steps_for(function.name)
        assert len(steps) == len(function.instrs)
        assert all(callable(step) for step in steps)


def test_fusion_finds_superinstructions():
    module = compile_source(LOOP)
    fused = compile_module(module, fuse=True)
    unfused = compile_module(module, fuse=False)
    assert unfused.fused_count == 0
    # The loop body (consts, arithmetic, the branch) fuses into regions.
    assert fused.fused_count > 0


def test_fusion_does_not_change_results():
    switch, threaded = both_runs(LOOP)
    assert switch.stdout == threaded.stdout == "190"
    assert switch.time == threaded.time
    assert switch.stats.instructions == threaded.stats.instructions


def test_compile_memo_reuses_compilations():
    module = compile_source(LOOP)
    first = compiled_for_module(module, None, fuse=True)
    second = compiled_for_module(module, None, fuse=True)
    assert first is second
    other = compiled_for_module(module, None, fuse=False)
    assert other is not first
    clear_compile_memo()
    third = compiled_for_module(module, None, fuse=True)
    assert third is not first


# -- identity of observable behaviour -------------------------------------------


def test_backends_agree_on_global_reads_and_writes():
    source = """
    var g = 10;
    fn bump() { g = g + 1; return g; }
    fn main() {
        var local = 99;
        print(bump());
        print(local);
        print(bump());
        print(g);
    }
    """
    switch, threaded = both_runs(source)
    assert switch.stdout == threaded.stdout == "11991212"
    assert switch.time == threaded.time


def test_backends_agree_under_instrumentation():
    switch, threaded = both_runs(LOOP, plan=True)
    assert switch.stdout == threaded.stdout
    assert switch.time == threaded.time
    assert switch.stats.edge_actions == threaded.stats.edge_actions > 0


def test_backends_agree_on_error_surface():
    source = "fn main() { print(1 / 0); }"
    module = compile_source(source)
    errors = []
    for backend in ("switch", "threaded"):
        with pytest.raises(InterpreterError) as exc_info:
            run_native(module, World(), backend=backend)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]


def test_backends_agree_on_budget_exhaustion():
    source = "fn main() { while (1) { } }"
    module = compile_source(source)
    errors = []
    for backend in ("switch", "threaded"):
        with pytest.raises(InterpreterError) as exc_info:
            run_native(module, World(), backend=backend, max_instructions=500)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    assert "instruction budget exceeded" in errors[0]


def test_instr_hook_forces_switch_loop():
    module = compile_source(LOOP)
    machine = Machine(module, Kernel(World()), backend="threaded")
    seen = []
    machine.instr_hook = lambda thread, frame, instr: seen.append(instr.opname)
    while True:
        event = machine.next_event()
        if event is None:
            break
        resolve_event_locally(machine, event)
    assert machine.finished
    # The hook observed every instruction despite the threaded backend.
    assert len(seen) == machine.stats.instructions


# -- profiling ------------------------------------------------------------------


def test_profile_disabled_records_nothing():
    switch, threaded = both_runs(LOOP)
    for result in (switch, threaded):
        assert not result.stats.profiled
        assert result.stats.opcode_counts is None


def test_profile_enabled_counts_match_instructions():
    for backend in ("switch", "threaded"):
        module = compile_source(LOOP)
        result = run_native(module, World(), backend=backend, profile=True)
        stats = result.stats
        assert stats.profiled
        assert sum(stats.opcode_counts.values()) == stats.instructions
        assert set(stats.opcode_time) <= set(stats.opcode_counts)


def test_profile_histograms_identical_across_backends():
    module = compile_source(LOOP)
    switch = run_native(module, World(), backend="switch", profile=True)
    threaded = run_native(module, World(), backend="threaded", profile=True)
    assert dict(switch.stats.opcode_counts) == dict(threaded.stats.opcode_counts)
    assert dict(switch.stats.opcode_time) == dict(threaded.stats.opcode_time)
    assert switch.time == threaded.time


# -- region caps ----------------------------------------------------------------


def test_small_region_caps_stay_byte_identical(monkeypatch):
    # Any cap setting is byte-safe: a tiny region budget only shrinks
    # how much code fuses, never what the program observes.
    from repro.interp import compile as compile_mod

    module = compile_source(LOOP)
    baseline = run_native(compile_source(LOOP), World(), backend="threaded")
    monkeypatch.setattr(compile_mod, "REGION_CAP", 2)
    monkeypatch.setattr(compile_mod, "REGION_PATH_CAP", 4)
    monkeypatch.setattr(compile_mod, "REGION_BOUND", 6)
    clear_compile_memo()
    try:
        capped = run_native(module, World(), backend="threaded")
        regions = [
            step
            for function in compiled_for_module(module).functions.values()
            for step in function.steps
            if step.__code__.co_filename == "<ldx-region>"
        ]
    finally:
        clear_compile_memo()
    # The plan-less run really fused under the small caps.
    assert regions
    assert capped.stdout == baseline.stdout
    assert capped.time == baseline.time
    assert capped.stats.instructions == baseline.stats.instructions
