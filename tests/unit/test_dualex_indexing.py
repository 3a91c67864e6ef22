"""Unit tests for the DualEx execution-indexing tracker."""

from repro.baselines.dualex.indexing import IndexTracker
from repro.baselines.native import run_native
from repro.cfg.dominators import immediate_postdominators
from repro.interp.events import BarrierEvent, SyscallEvent
from repro.interp.machine import Machine
from repro.interp.resolve import resolve_event_locally
from repro.ir import compile_source
from repro.vos.kernel import Kernel
from repro.vos.world import World


def trace_indices(source, world=None):
    """Run a program, returning the execution index of each syscall."""
    module = compile_source(source)
    machine = Machine(module, Kernel(world or World(seed=1)))
    tracker = IndexTracker()
    tracker.attach(machine)
    indices = []
    while True:
        event = machine.next_event()
        if event is None:
            break
        if isinstance(event, SyscallEvent):
            indices.append(
                (tracker.index_of(event.thread_id, event.index), event.name)
            )
        resolve_event_locally(machine, event)
    return indices


def test_postdominators_of_diamond():
    module = compile_source(
        "fn main() { var x = 1; if (x > 0) { x = 2; } else { x = 3; } print(x); }"
    )
    main = module.functions["main"]
    postdoms = immediate_postdominators(main)
    # Every node's ipostdom chain reaches the exit.
    node = main.entry
    steps = 0
    while node != main.exit and steps < 100:
        node = postdoms[node]
        steps += 1
    assert node == main.exit


def test_same_program_same_indices():
    source = """
    fn main() {
      var x = 2;
      if (x > 1) { print("a"); } else { print("b"); }
      print("end");
    }
    """
    assert trace_indices(source) == trace_indices(source)


def test_loop_iterations_get_distinct_indices():
    source = """
    fn main() {
      for (var i = 0; i < 3; i = i + 1) { print(i); }
    }
    """
    indices = [index for index, _ in trace_indices(source)]
    assert len(indices) == 3
    assert len(set(indices)) == 3  # iteration counts disambiguate


def test_divergent_branches_get_different_indices():
    base = """
    fn main() {{
      var x = {value};
      if (x > 5) {{ print("hi"); }} else {{ print("lo"); }}
    }}
    """
    high = trace_indices(base.format(value=9))
    low = trace_indices(base.format(value=1))
    # Same branch site but recorded at different nodes -> different index.
    assert high != low


def test_recursion_depth_in_index():
    source = """
    fn f(n) {
      if (n == 0) { print("base"); return 0; }
      return f(n - 1);
    }
    fn main() { f(2); }
    """
    indices = [index for index, _ in trace_indices(source)]
    assert len(indices) == 1
    # The call chain appears in the index (two call entries + branches).
    call_entries = [part for part in indices[0] if part[0] == "call"]
    assert len(call_entries) == 3  # main->f, f->f, f->f
