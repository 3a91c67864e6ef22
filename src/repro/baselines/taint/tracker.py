"""Value-level dynamic taint tracking over the MiniC machine.

Models the *program-dependence-based* causality inference LDX is
compared against (Section 8.3): taint enters at sources, propagates
through **data dependences only**, and is checked at sinks.  Two
deliberate fidelity choices mirror the real tools:

* **no control-dependence propagation** — the documented blind spot of
  LIBDFT/TaintGrind that LDX's counterfactual approach closes;
* **no index/pointer propagation** — ``a[i]`` carries the taint of the
  loaded *element*, not of the index ``i`` (PIN/Valgrind tools do not
  taint through addresses by default).

List taint is element-granular (byte-level tools track individual
locations); a whole-object taint covers cases where element identity is
lost.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.ir import instructions as ins

EMPTY: FrozenSet[str] = frozenset()


class TaintPolicy:
    """What a given tool propagates.

    ``unmodeled_builtins`` — library helpers whose taint transfer the
    tool fails to model (outputs come out clean).  The paper observed
    exactly this for LIBDFT: "LIBDFT does not correctly model taint
    propagation for some library calls", which is why TaintGrind's
    results are a superset of LIBDFT's in Table 3.
    """

    def __init__(self, name: str, unmodeled_builtins: FrozenSet[str] = EMPTY) -> None:
        self.name = name
        self.unmodeled_builtins = unmodeled_builtins


# LIBDFT (PIN-based, relies on hand-written summaries for library
# routines): propagation through higher-level helpers is missed.
LIBDFT_POLICY = TaintPolicy(
    "libdft",
    unmodeled_builtins=frozenset(
        {
            "str_split",
            "str_join",
            "str_replace",
            "str_repeat",
            "str_upper",
            "str_lower",
            "str_strip",
            "sort",
            "reverse",
            "concat",
            "hash32",
        }
    ),
)

# TaintGrind (Valgrind-based): executes and instruments the library code
# itself — full data-dependence propagation.
TAINTGRIND_POLICY = TaintPolicy("taintgrind")


class _ObjectShadow:
    """Taint state of one list object."""

    __slots__ = ("ref", "elements", "whole")

    def __init__(self, ref: list) -> None:
        self.ref = ref  # keeps id() stable
        self.elements: Dict[int, FrozenSet[str]] = {}
        self.whole: FrozenSet[str] = EMPTY

    def full(self) -> FrozenSet[str]:
        taint = self.whole
        for element in self.elements.values():
            taint = taint | element
        return taint


class TaintTracker:
    """Shadow state + data-dependence propagation for one execution."""

    def __init__(self, policy: TaintPolicy) -> None:
        self.policy = policy
        # id(frame) -> {register -> taint set}.
        self._frames: Dict[int, Dict[str, FrozenSet[str]]] = {}
        self._globals: Dict[str, FrozenSet[str]] = {}
        self._objects: Dict[int, _ObjectShadow] = {}
        # Resource id -> taint (files/sockets that received tainted data).
        self.resource_taint: Dict[str, FrozenSet[str]] = {}
        self.tainted_sink_events = 0
        self.sink_events = 0

    # -- attachment ------------------------------------------------------------

    def attach(self, machine) -> None:
        """Install the tracker's hooks on *machine*."""
        machine.instr_hook = self._make_instr_hook(machine)
        machine.call_hook = self._make_call_hook(machine)
        machine.return_hook = self._make_return_hook(machine)

    def _make_instr_hook(self, machine):
        per_instruction = (
            machine.costs.taint_per_instruction
            if self.policy.name == "libdft"
            else machine.costs.taintgrind_per_instruction
        )

        def on_instruction(thread, frame, instr) -> None:
            machine.charge(thread.tid, per_instruction)
            self._propagate(machine, thread, frame, instr)

        return on_instruction

    def _make_call_hook(self, machine):
        def on_call(thread, caller, callee, instr) -> None:
            arg_taints = [
                self.register_taint(machine, caller, a) for a in instr.args
            ]
            shadow = self._frame_shadow(callee)
            for param, taint in zip(callee.function.params, arg_taints):
                shadow[param] = taint

        return on_call

    def _make_return_hook(self, machine):
        def on_return(thread, popped, caller, dst, value) -> None:
            taint = self._frame_shadow(popped).get(".ret", EMPTY)
            self.write_taint(machine, caller, dst, taint)
            self._frames.pop(id(popped), None)

        return on_return

    # -- shadow environment -------------------------------------------------------

    def _frame_shadow(self, frame) -> Dict[str, FrozenSet[str]]:
        shadow = self._frames.get(id(frame))
        if shadow is None:
            shadow = {}
            self._frames[id(frame)] = shadow
        return shadow

    def _value_of(self, machine, frame, name: str):
        if name in frame.locals:
            return frame.locals[name]
        return machine.globals.get(name)

    def register_taint(self, machine, frame, name: str) -> FrozenSet[str]:
        """Taint of the register itself (no object contents)."""
        if name in frame.locals:
            return self._frame_shadow(frame).get(name, EMPTY)
        if name in machine.globals:
            return self._globals.get(name, EMPTY)
        return EMPTY

    def read_taint(self, machine, frame, name: str) -> FrozenSet[str]:
        """Full read taint: register plus object contents for lists.
        Used when a value flows as a whole (builtin args, syscall args,
        arithmetic)."""
        taint = self.register_taint(machine, frame, name)
        value = self._value_of(machine, frame, name)
        if isinstance(value, list):
            shadow = self._objects.get(id(value))
            if shadow is not None:
                taint = taint | shadow.full()
        return taint

    def write_taint(self, machine, frame, name: str, taint: FrozenSet[str]) -> None:
        if name in machine.globals and name not in frame.locals:
            self._globals[name] = taint
        else:
            self._frame_shadow(frame)[name] = taint

    def _object_shadow(self, obj: list) -> _ObjectShadow:
        shadow = self._objects.get(id(obj))
        if shadow is None:
            shadow = _ObjectShadow(obj)
            self._objects[id(obj)] = shadow
        return shadow

    def args_taint(self, machine, event) -> FrozenSet[str]:
        """Union taint of a syscall event's arguments."""
        frame = machine.threads[event.thread_id].frames[-1]
        instr = frame.function.instrs[frame.index]
        return self._uses_taint(machine, frame, instr.uses())

    # -- propagation --------------------------------------------------------------

    def _uses_taint(self, machine, frame, names) -> FrozenSet[str]:
        taint: FrozenSet[str] = EMPTY
        for name in names:
            taint = taint | self.read_taint(machine, frame, name)
        return taint

    def _propagate(self, machine, thread, frame, instr) -> None:
        kind = type(instr)
        if kind is ins.Const:
            self.write_taint(machine, frame, instr.dst, EMPTY)
        elif kind is ins.Move:
            self.write_taint(
                machine,
                frame,
                instr.dst,
                self.register_taint(machine, frame, instr.src),
            )
        elif kind is ins.Unop:
            self.write_taint(
                machine,
                frame,
                instr.dst,
                self.read_taint(machine, frame, instr.operand),
            )
        elif kind is ins.Binop:
            self.write_taint(
                machine,
                frame,
                instr.dst,
                self._uses_taint(machine, frame, (instr.left, instr.right)),
            )
        elif kind is ins.LoadIndex:
            self._propagate_load(machine, frame, instr)
        elif kind is ins.StoreIndex:
            self._propagate_store(machine, frame, instr)
        elif kind is ins.NewList:
            items = list(instr.items)
            taints = [self.read_taint(machine, frame, item) for item in items]
            self.write_taint(machine, frame, instr.dst, EMPTY)
            # Element taints are attached once the object exists; defer
            # by tainting through the destination register: the next
            # hook sees the created object.  Simpler: mark pending.
            self._pending_newlist = (id(frame), instr.dst, taints)
        elif kind is ins.CallBuiltin:
            self._propagate_builtin(machine, frame, instr)
        elif kind is ins.Ret:
            taint = (
                self.register_taint(machine, frame, instr.src)
                if instr.src is not None
                else EMPTY
            )
            self._frame_shadow(frame)[".ret"] = taint
        self._flush_pending_newlist(machine, frame, instr)

    _pending_newlist = None

    def _flush_pending_newlist(self, machine, frame, instr) -> None:
        pending = self._pending_newlist
        if pending is None or type(instr) is ins.NewList:
            return
        frame_id, dst, taints = pending
        self._pending_newlist = None
        if frame_id != id(frame):
            return
        value = self._value_of(machine, frame, dst)
        if isinstance(value, list) and any(taints):
            shadow = self._object_shadow(value)
            for index, taint in enumerate(taints):
                if taint:
                    shadow.elements[index] = taint

    def _propagate_load(self, machine, frame, instr: ins.LoadIndex) -> None:
        base = self._value_of(machine, frame, instr.base)
        index = self._value_of(machine, frame, instr.index)
        taint = self.register_taint(machine, frame, instr.base)
        if isinstance(base, list):
            shadow = self._objects.get(id(base))
            if shadow is not None and isinstance(index, int):
                taint = taint | shadow.whole | shadow.elements.get(index, EMPTY)
        elif isinstance(base, str):
            # Loading a char from a string: the string's taint flows.
            taint = taint  # register taint already covers it
        # The index itself does not propagate (no pointer taint).
        self.write_taint(machine, frame, instr.dst, taint)

    def _propagate_store(self, machine, frame, instr: ins.StoreIndex) -> None:
        base = self._value_of(machine, frame, instr.base)
        index = self._value_of(machine, frame, instr.index)
        taint = self.read_taint(machine, frame, instr.src)
        if isinstance(base, list) and isinstance(index, int):
            shadow = self._object_shadow(base)
            if taint:
                shadow.elements[index] = taint
            else:
                shadow.elements.pop(index, None)  # strong update clears

    def _propagate_builtin(self, machine, frame, instr: ins.CallBuiltin) -> None:
        taint = self._uses_taint(machine, frame, instr.args)
        if instr.name in self.policy.unmodeled_builtins:
            taint = EMPTY  # this tool fails to model the call
        self.write_taint(machine, frame, instr.dst, taint)
        if (
            instr.name in ("push", "list_fill")
            and instr.args
            and instr.name not in self.policy.unmodeled_builtins
        ):
            target = self._value_of(machine, frame, instr.args[0])
            if isinstance(target, list) and len(instr.args) > 1:
                value_taint = self.read_taint(machine, frame, instr.args[1])
                if value_taint:
                    shadow = self._object_shadow(target)
                    if instr.name == "push":
                        shadow.elements[len(target)] = value_taint
                    else:  # list_fill
                        for index in range(len(target)):
                            shadow.elements[index] = value_taint
