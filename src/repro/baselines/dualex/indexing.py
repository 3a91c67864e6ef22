"""Execution Indexing (Xin et al. 2008) — DualEx's alignment structure.

An execution index identifies a point by the stack of control-flow
regions enclosing it: call sites and branch predicates (with iteration
counts).  Two executions align exactly when their indices are equal.
Precise, but it requires processing *every* instruction — the cost that
makes DualEx three orders of magnitude slower than LDX.

Branch regions close at the predicate's immediate postdominator,
computed here from the reversed CFG.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cfg.dominators import immediate_postdominators
from repro.ir import instructions as ins
from repro.ir.function import IRFunction


class _Entry:
    """One region on the index stack."""

    __slots__ = ("kind", "depth", "node", "join", "iteration")

    def __init__(self, kind: str, depth: int, node: int, join: Optional[int]) -> None:
        self.kind = kind  # "call" | "branch"
        self.depth = depth  # frame depth the entry belongs to
        self.node = node
        self.join = join
        self.iteration = 1

    def key(self) -> Tuple:
        return (self.kind, self.depth, self.node, self.iteration)


class IndexTracker:
    """Maintains the execution index of every thread of a machine."""

    def __init__(self) -> None:
        self._postdoms: Dict[str, Dict[int, int]] = {}
        self._stacks: Dict[int, List[_Entry]] = {}

    def attach(self, machine) -> None:
        machine.instr_hook = self._make_instr_hook(machine)
        machine.call_hook = self._make_call_hook(machine)
        machine.return_hook = self._make_return_hook(machine)

    def index_of(self, thread_id: int, node: int) -> Tuple:
        """The current execution index plus the point's own node."""
        stack = self._stacks.get(thread_id, [])
        return tuple(entry.key() for entry in stack) + ((node,),)

    def _postdom_for(self, function: IRFunction) -> Dict[int, int]:
        table = self._postdoms.get(function.name)
        if table is None:
            table = immediate_postdominators(function)
            self._postdoms[function.name] = table
        return table

    def _make_instr_hook(self, machine):
        def on_instruction(thread, frame, instr) -> None:
            machine.charge(thread.tid, machine.costs.dualex_per_instruction)
            stack = self._stacks.setdefault(thread.tid, [])
            depth = len(thread.frames)
            node = frame.index
            # Close branch regions that join at this node.
            while (
                stack
                and stack[-1].kind == "branch"
                and stack[-1].depth == depth
                and stack[-1].join == node
            ):
                stack.pop()
            if isinstance(instr, ins.CJump):
                if (
                    stack
                    and stack[-1].kind == "branch"
                    and stack[-1].depth == depth
                    and stack[-1].node == node
                ):
                    # Re-executing the same predicate (loop iteration).
                    stack[-1].iteration += 1
                else:
                    join = self._postdom_for(frame.function).get(node)
                    stack.append(_Entry("branch", depth, node, join))

        return on_instruction

    def _make_call_hook(self, machine):
        def on_call(thread, caller, callee, instr) -> None:
            stack = self._stacks.setdefault(thread.tid, [])
            stack.append(_Entry("call", len(thread.frames), caller.index, None))

        return on_call

    def _make_return_hook(self, machine):
        def on_return(thread, popped, caller, dst, value) -> None:
            stack = self._stacks.setdefault(thread.tid, [])
            # Pop everything belonging to the popped frame, then the
            # call entry itself.
            depth = len(thread.frames) + 1
            while stack and stack[-1].depth >= depth:
                stack.pop()

        return on_return
