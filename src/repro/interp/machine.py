"""The MiniC execution machine.

One :class:`Machine` is one program execution (the paper's master *or*
slave).  It interprets the IR instruction by instruction, maintains the
per-thread LDX counter stacks, applies the instrumentation plan's edge
actions on control transfers, and *yields* events (syscalls, loop
barriers) to whatever driver owns it.

The machine is driver-agnostic: the native runner resolves events
locally; the LDX engine couples two machines; the taint baselines hook
every instruction.  Nothing in here knows about dual execution.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import BudgetExceededError, FaultInjected, InterpreterError
from repro.instrument.plan import (
    CounterAdd,
    ElidedAdd,
    FunctionPlan,
    LoopExit,
    LoopSync,
    ModulePlan,
)
from repro.interp.builtins import call_builtin
from repro.interp.compile import (
    BACKEND_THREADED,
    CompiledModule,
    compiled_for_module,
    resolve_backend,
)
from repro.interp.costs import DEFAULT_COSTS, CostModel
from repro.interp.events import BarrierEvent, Event, SyscallEvent
from repro.ir import instructions as ins
from repro.ir.function import IRFunction, IRModule
from repro.ir.ops import apply_binop, apply_unop, truthy
from repro.vos.clock import DeterministicRng
from repro.vos.kernel import Kernel

# Thread statuses.
RUNNABLE = "runnable"
WAIT_SYSCALL = "wait-syscall"
WAIT_BARRIER = "wait-barrier"
WAIT_JOIN = "wait-join"
WAIT_MUTEX = "wait-mutex"
DONE = "done"


class Frame:
    """One activation record."""

    __slots__ = ("function", "plan", "index", "locals", "return_dst", "scoped", "code")

    def __init__(
        self,
        function: IRFunction,
        plan: Optional[FunctionPlan],
        return_dst: Optional[str],
        scoped: bool,
    ) -> None:
        self.function = function
        self.plan = plan
        self.index = function.entry
        self.locals: Dict[str, object] = {}
        self.return_dst = return_dst
        self.scoped = scoped
        # Step-closure array under the threaded backend, else None.
        self.code = None


class ThreadState:
    """One thread: frames, counter stack, virtual clock, status."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.frames: List[Frame] = []
        self.counter_stack: List[int] = [0]
        self.clock = 0.0
        self.status = RUNNABLE
        self.result: object = None
        # Set while a syscall awaits its result.
        self.pending_event: Optional[Event] = None
        # (dst, remaining_actions) while a barrier splits an edge.
        self.pending_transition: Optional[Tuple[int, List[object]]] = None
        # tid this thread waits to join.
        self.join_target: Optional[int] = None
        self.waiting_mutex: Optional[int] = None
        # Active barrier-loop records: [frame_depth, function, head, count].
        # Back-edge crossings bump `count`; loop exits pop the record —
        # this is what lets two executions rendezvous on the same
        # iteration of the same loop.
        self.loop_stack: List[List[object]] = []

    @property
    def counter(self) -> Tuple[int, ...]:
        return tuple(self.counter_stack)

    @property
    def done(self) -> bool:
        return self.status == DONE


class MachineStats:
    """Runtime statistics (feeds Table 1's dynamic columns)."""

    def __init__(self) -> None:
        self.instructions = 0
        self.edge_actions = 0
        self.syscalls = 0
        self.barriers = 0
        self.counter_samples: List[int] = []
        self.max_stack_depth = 1
        # Per-opcode histograms, populated only when the machine runs
        # with profiling enabled (None keeps the hot path allocation-
        # and branch-free).
        self.opcode_counts: Optional[Dict[str, int]] = None
        self.opcode_time: Optional[Dict[str, float]] = None
        # Executed instructions the sink-relevance pass classified
        # elidable, per opcode (needs a plan carrying a relevance
        # classification; stays all-zero otherwise).
        self.opcode_elided: Optional[Dict[str, int]] = None

    def enable_profiling(self) -> None:
        if self.opcode_counts is None:
            self.opcode_counts = defaultdict(int)
            self.opcode_time = defaultdict(float)
            self.opcode_elided = defaultdict(int)

    @property
    def profiled(self) -> bool:
        return self.opcode_counts is not None

    @property
    def avg_counter(self) -> float:
        if not self.counter_samples:
            return 0.0
        return sum(self.counter_samples) / len(self.counter_samples)

    @property
    def max_counter(self) -> int:
        return max(self.counter_samples, default=0)


class Machine:
    """One program execution over a kernel, surfacing events."""

    def __init__(
        self,
        module: IRModule,
        kernel: Kernel,
        plan: Optional[ModulePlan] = None,
        costs: CostModel = None,
        name: str = "exec",
        schedule_seed: int = 0,
        max_instructions: int = 50_000_000,
        backend: Optional[str] = None,
        profile: bool = False,
    ) -> None:
        self.module = module
        self.kernel = kernel
        self.plan = plan
        self.costs = costs or DEFAULT_COSTS
        self.name = name
        self.globals: Dict[str, object] = dict(module.global_values)
        self.threads: List[ThreadState] = []
        self.stats = MachineStats()
        self.finished = False
        self.exit_code: Optional[int] = None
        self.max_instructions = max_instructions
        # Mutex id -> owner tid (None when free) and FIFO wait queues.
        self._mutex_owner: Dict[int, Optional[int]] = {}
        self._mutex_queue: Dict[int, List[int]] = {}
        # Scheduling jitter source — models racy thread interleavings.
        self._sched_rng = DeterministicRng(schedule_seed * 7919 + 17)
        # Optional per-instruction hook: hook(thread, frame, instr).
        # Used by the taint and DualEx baselines.  Stored behind a
        # property: assigning a hook invalidates the cached driver
        # loop (which must switch to the hook-aware switch driver).
        self._instr_hook: Optional[Callable[[ThreadState, Frame, ins.Instr], None]] = None
        # Events raised while servicing a driver call (e.g. a barrier on
        # the edge just past a completed syscall); drained first.
        self._deferred_events: List[Event] = []
        # Optional callback fired on every successful lock acquisition:
        # lock_hook(mutex_id, tid).  The LDX engine uses it to record
        # (master) and track (slave) lock acquisition order.
        self.lock_hook: Optional[Callable[[int, int], None]] = None
        # Optional frame-boundary hooks for analyses that mirror the
        # call stack (taint tracking, execution indexing):
        #   call_hook(thread, caller_frame, callee_frame, instr)
        #   return_hook(thread, popped_frame, caller_frame, dst, value)
        self.call_hook = None
        self.return_hook = None
        # Interpreter backend: "switch" walks the type-dispatch chain;
        # "threaded" executes pre-compiled step closures.  Profiling
        # runs unfused code so each step is exactly one instruction.
        self.backend = resolve_backend(backend)
        self._profile = profile
        # Per-function elidable index sets for profile attribution
        # (which executed instructions the relevance pass would let a
        # backend skip counter work for).
        self._elidable: Optional[Dict[str, FrozenSet[int]]] = None
        if profile:
            self.stats.enable_profiling()
            relevance = getattr(plan, "relevance", None)
            if relevance is not None:
                self._elidable = {
                    fn_name: fn_rel.elidable
                    for fn_name, fn_rel in relevance.functions.items()
                }
        self._code: Optional[CompiledModule] = (
            compiled_for_module(module, plan, fuse=not profile)
            if self.backend == BACKEND_THREADED
            else None
        )
        self._spawn_main()

    # -- setup -------------------------------------------------------------------

    def _plan_for(self, function_name: str) -> Optional[FunctionPlan]:
        if self.plan is None:
            return None
        return self.plan.functions.get(function_name)

    def _new_frame(
        self,
        function: IRFunction,
        return_dst: Optional[str],
        scoped: bool,
    ) -> Frame:
        frame = Frame(function, self._plan_for(function.name), return_dst, scoped)
        if self._code is not None:
            frame.code = self._code.steps_for(function.name)
        return frame

    def _spawn_main(self) -> None:
        main = self.module.function("main")
        thread = ThreadState(0)
        thread.frames.append(self._new_frame(main, None, False))
        self.threads.append(thread)

    # -- public driving API ---------------------------------------------------------

    @property
    def time(self) -> float:
        """The machine's virtual time = max over its threads."""
        return max((thread.clock for thread in self.threads), default=0.0)

    def runnable_threads(self) -> List[ThreadState]:
        return [t for t in self.threads if t.status == RUNNABLE]

    def has_pending_work(self) -> bool:
        """True when next_event() can make progress without the driver."""
        if self.finished:
            return False
        if self._deferred_events or self.runnable_threads():
            return True
        # All threads done: one more next_event() call flips `finished`.
        if all(thread.done for thread in self.threads):
            return True
        # A joiner whose target finished resumes without the driver.
        for thread in self.threads:
            if thread.status == WAIT_JOIN and self.threads[thread.join_target].done:
                return True
        return False

    def next_event(self) -> Optional[Event]:
        """Advance until the next event.

        Returns None when execution finished *or* when every live
        thread is blocked on the driver (check ``finished`` to tell the
        two apart).  Raises InterpreterError on internal deadlock (all
        threads blocked on machine-internal conditions).
        """
        while not self.finished:
            threads = self.threads
            if len(threads) == 1 and not self._deferred_events:
                # Single-thread fast path: no joiners to wake, no
                # scheduling choice to make (and no RNG draw — the
                # general path only draws on ties between >= 2
                # candidates), so behaviour is identical.
                thread = threads[0]
                status = thread.status
                if status == RUNNABLE:
                    event = self._run_thread(thread)
                    if event is not None:
                        return event
                    continue
                if status == DONE:
                    self.finished = True
                    return None
                if status in (WAIT_SYSCALL, WAIT_BARRIER):
                    return None
                raise InterpreterError(f"{self.name}: thread deadlock")
            # One fused pass over the threads collects the runnable set
            # (and its least clock) and notices waiting joiners — the
            # same work _wake_joiners + runnable_threads + _pick_thread
            # did in three passes, with identical RNG draws.
            runnable = None
            least = 0.0
            have_joiner = False
            for t in threads:
                status = t.status
                if status == RUNNABLE:
                    clock = t.clock
                    if runnable is None:
                        runnable = [t]
                        least = clock
                    else:
                        runnable.append(t)
                        if clock < least:
                            least = clock
                elif status == WAIT_JOIN:
                    have_joiner = True
            if have_joiner:
                woke = self._wake_joiners()
                if self._deferred_events:
                    return self._deferred_events.pop(0)
                if woke:
                    # Woken joiners changed the runnable set; recompute.
                    continue
            if self._deferred_events:
                return self._deferred_events.pop(0)
            if runnable is None:
                if all(t.done for t in self.threads):
                    self.finished = True
                    return None
                blocked_externally = [
                    t
                    for t in self.threads
                    if t.status in (WAIT_SYSCALL, WAIT_BARRIER)
                ]
                if blocked_externally:
                    # The driver owes us a resolution; yield control.
                    return None
                raise InterpreterError(f"{self.name}: thread deadlock")
            if len(runnable) == 1:
                thread = runnable[0]
            else:
                # Discrete-event choice: least virtual time first; ties
                # broken by seeded jitter (the source of racy
                # interleavings).  Identical to _pick_thread: the RNG
                # draws only on ties between >= 2 candidates.
                bound = least + 1e-9
                candidates = [t for t in runnable if t.clock <= bound]
                if len(candidates) == 1:
                    thread = candidates[0]
                else:
                    thread = candidates[self._sched_rng.next_int(len(candidates))]
            event = self._run_thread(thread)
            if event is not None:
                return event
        return None

    def _pick_thread(self, runnable: List[ThreadState]) -> ThreadState:
        """Discrete-event choice: least virtual time first; ties broken
        by seeded jitter (the source of racy interleavings)."""
        least = min(t.clock for t in runnable)
        candidates = [t for t in runnable if t.clock <= least + 1e-9]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self._sched_rng.next_int(len(candidates))]

    def complete_syscall(self, event: SyscallEvent, value: object) -> None:
        """Deliver a syscall result and resume the thread.

        Runs once per syscall in every execution, coupled or not, so
        ``_write``/``_single_successor``/``_advance`` are inlined here
        (identical semantics; the edge-action path still routes through
        ``_apply_actions``).
        """
        thread = self.threads[event.thread_id]
        if thread.pending_event is not event:
            raise InterpreterError(f"{self.name}: stale syscall completion")
        frame = thread.frames[-1]
        function = frame.function
        index = frame.index
        name = function.instrs[index].dst
        locals_ = frame.locals
        if name in self.globals and name not in locals_:
            self.globals[name] = value
        else:
            locals_[name] = value
        thread.pending_event = None
        thread.status = RUNNABLE
        succs = function.successors(index)
        if len(succs) != 1:  # pragma: no cover - syscalls fall through
            raise InterpreterError("expected a unique successor")
        dst = succs[0]
        plan = frame.plan
        actions = plan.actions_for(index, dst) if plan is not None else None
        if actions:
            deferred = self._apply_actions(thread, frame, dst, list(actions))
            if deferred is not None:
                self._deferred_events.append(deferred)
        else:
            frame.index = dst

    def complete_barrier(self, event: BarrierEvent) -> None:
        """Release a thread blocked at a loop back-edge barrier."""
        thread = self.threads[event.thread_id]
        if thread.pending_event is not event:
            raise InterpreterError(f"{self.name}: stale barrier completion")
        thread.pending_event = None
        thread.status = RUNNABLE

    def terminate(self, code: int = 0) -> None:
        """End the whole process (exit syscall or fatal error)."""
        for thread in self.threads:
            thread.status = DONE
        self.exit_code = code
        self.finished = True

    def abandon_thread(self, tid: int) -> None:
        """Give up on one thread (the watchdog's last escalation rung):
        it terminates with a nil result, its held mutexes are released
        so peers can proceed, and joiners resume normally."""
        thread = self.threads[tid]
        thread.pending_event = None
        thread.pending_transition = None
        thread.waiting_mutex = None
        thread.status = DONE
        for mutex_id, owner in list(self._mutex_owner.items()):
            if owner == tid:
                self.mutex_unlock(thread, mutex_id)
        for queue in self._mutex_queue.values():
            if tid in queue:
                queue.remove(tid)

    def charge(self, thread_id: int, amount: float) -> None:
        """Add cost to a thread's clock (drivers charge syscall costs)."""
        self.threads[thread_id].clock += amount

    def syscall_cost(self) -> float:
        """One syscall's latency, with seeded jitter (+/-15%).

        Real syscall latencies vary; the jitter perturbs thread
        interleavings the same way OS scheduling noise does — the
        run-to-run nondeterminism Table 4 studies.
        """
        jitter = 0.85 + 0.3 * (self._sched_rng.next_int(1000) / 1000.0)
        return self.costs.syscall * jitter

    def jitter_units(self, scale: float = 6.0) -> float:
        """A small seeded latency perturbation (0..scale units)."""
        return scale * (self._sched_rng.next_int(1000) / 1000.0)

    def wait_until(self, thread_id: int, time: float) -> None:
        """Model a spin-wait: the thread's clock jumps to *time*."""
        thread = self.threads[thread_id]
        if time > thread.clock:
            thread.clock = time

    # -- fault-tolerant syscall execution ---------------------------------------

    def execute_syscall(self, event):
        """Run the event's syscall on this machine's kernel.

        With a fault plan attached, transient injected faults are
        retried with bounded exponential virtual-time backoff (each
        failed attempt costs a syscall entry plus the backoff wait,
        charged through the cost model so overhead accounting stays
        honest), and injected short reads are completed by continuation
        reads.  Faults outlasting the retry budget surface as the
        syscall's C-convention failure value — the program, and then
        the engine's taint/decoupling ladder, take it from there.
        Without a plan this is exactly ``kernel.execute``.
        """
        kernel = self.kernel
        plan = kernel.faults
        if plan is None:
            return kernel.execute(event.name, event.args)
        try:
            result = kernel.execute(event.name, event.args)
        except FaultInjected as failure:
            return self._retry_transient(event, failure.fault)
        fault = plan.last_injection
        if fault is not None and fault.kind == "short-read":
            return self._finish_short_read(event, result)
        return result

    def _retry_transient(self, event, fault):
        """Bounded retry-with-backoff for a transient fault burst."""
        plan = self.kernel.faults
        tid = event.thread_id
        budget = plan.config.max_retries
        attempts = min(fault.failures, budget)
        for attempt in range(attempts):
            # Unjittered syscall entry cost: drawing jitter here would
            # consume the scheduling RNG stream, desyncing every later
            # syscall's jitter from the fault-free run — fault overhead
            # must be strictly additive on top of identical baselines.
            self.charge(
                tid, self.costs.syscall + self.costs.retry_backoff * (2 ** attempt)
            )
        if fault.failures > budget:
            plan.note_exhausted(event.name)
            return fault.fallback
        plan.note_retries(attempts)
        return self.kernel.execute(event.name, event.args, inject=False)

    def _finish_short_read(self, event, first):
        """Continuation reads until the original request is satisfied
        (or true EOF) — the robust-read loop that makes an injected
        short read indistinguishable from an uninterrupted one."""
        requested = event.args[1] if len(event.args) > 1 else None
        if not isinstance(first, str) or not isinstance(requested, int):
            return first
        parts = [first]
        received = len(first)
        while received < requested:
            self.charge(event.thread_id, self.costs.retry_backoff)
            more = self.kernel.execute(
                event.name, (event.args[0], requested - received), inject=False
            )
            if not isinstance(more, str) or not more:
                break
            parts.append(more)
            received += len(more)
        return "".join(parts)

    # -- thread services (called by drivers to resolve thread syscalls) -------------

    def spawn_thread(self, func_ref, arg) -> int:
        """Create a new thread running func_ref(arg); returns its tid."""
        if not isinstance(func_ref, ins.FuncRef):
            raise InterpreterError("thread_spawn() needs a function reference")
        function = self.module.function(func_ref.name)
        if len(function.params) != 1:
            raise InterpreterError("thread entry function must take 1 parameter")
        thread = ThreadState(len(self.threads))
        frame = self._new_frame(function, None, False)
        frame.locals[function.params[0]] = arg
        thread.frames.append(frame)
        # The child starts at the spawner's current virtual time.
        spawner_clock = max((t.clock for t in self.threads), default=0.0)
        thread.clock = spawner_clock
        self.threads.append(thread)
        return thread.tid

    def join_thread(self, thread: ThreadState, target_tid) -> bool:
        """Try to join; True when completed immediately (result stored
        by the caller), False when the thread must wait."""
        if not isinstance(target_tid, int) or not (0 <= target_tid < len(self.threads)):
            raise InterpreterError(f"thread_join() of unknown tid {target_tid!r}")
        target = self.threads[target_tid]
        if target.done:
            return True
        thread.status = WAIT_JOIN
        thread.join_target = target_tid
        return False

    def mutex_create(self) -> int:
        mutex_id = self.kernel.new_mutex_id()
        self._mutex_owner[mutex_id] = None
        self._mutex_queue[mutex_id] = []
        return mutex_id

    def mutex_lock(self, thread: ThreadState, mutex_id) -> bool:
        """Try to acquire; True on success, False when queued."""
        if mutex_id not in self._mutex_owner:
            raise InterpreterError(f"mutex_lock() of unknown mutex {mutex_id!r}")
        plan = self.kernel.faults
        if plan is not None:
            fault = plan.decide("mutex_lock", (mutex_id,))
            if fault is not None:
                # Timed-out acquisition attempts: charge the backoff
                # waits, then take the lock path normally — ownership
                # stays with the scheduler, only timing is perturbed.
                for attempt in range(fault.failures):
                    thread.clock += (
                        self.costs.thread_op
                        + self.costs.retry_backoff * (2 ** attempt)
                    )
        if self._mutex_owner[mutex_id] is None:
            self._mutex_owner[mutex_id] = thread.tid
            if self.lock_hook is not None:
                self.lock_hook(mutex_id, thread.tid)
            return True
        thread.status = WAIT_MUTEX
        thread.waiting_mutex = mutex_id
        self._mutex_queue[mutex_id].append(thread.tid)
        return False

    def mutex_unlock(self, thread: ThreadState, mutex_id) -> bool:
        """Release; wakes the first waiter.  False on bogus unlock."""
        if self._mutex_owner.get(mutex_id) != thread.tid:
            return False
        queue = self._mutex_queue[mutex_id]
        if queue:
            next_tid = queue.pop(0)
            waiter = self.threads[next_tid]
            self._mutex_owner[mutex_id] = next_tid
            if self.lock_hook is not None:
                self.lock_hook(mutex_id, next_tid)
            waiter.status = WAIT_SYSCALL  # its lock syscall now completes
            self._finish_lock_acquisition(waiter)
        else:
            self._mutex_owner[mutex_id] = None
        return True

    def _finish_lock_acquisition(self, thread: ThreadState) -> None:
        """A queued mutex_lock finally succeeded — deliver its result."""
        event = thread.pending_event
        if isinstance(event, SyscallEvent) and event.name == "mutex_lock":
            thread.waiting_mutex = None
            self.complete_syscall(event, 0)

    def _wake_joiners(self) -> bool:
        woke = False
        for thread in self.threads:
            if thread.status == WAIT_JOIN:
                target = self.threads[thread.join_target]
                if target.done:
                    event = thread.pending_event
                    thread.join_target = None
                    self.complete_syscall(event, target.result)
                    woke = True
        return woke

    # -- interpretation ----------------------------------------------------------------

    def _budget_exceeded(self) -> None:
        raise BudgetExceededError(
            f"{self.name}: instruction budget exceeded "
            f"({self.max_instructions})"
        )

    @property
    def instr_hook(self) -> Optional[Callable[["ThreadState", "Frame", ins.Instr], None]]:
        return self._instr_hook

    @instr_hook.setter
    def instr_hook(
        self, hook: Optional[Callable[["ThreadState", "Frame", ins.Instr], None]]
    ) -> None:
        self._instr_hook = hook
        # Drop the memoized driver loop: a hook forces the switch
        # driver (and removing one re-enables the threaded driver).
        self.__dict__.pop("_run_thread", None)

    def _run_thread(self, thread: ThreadState) -> Optional[Event]:
        """Run one thread until it produces an event, blocks or ends.

        Dispatches to one of four driver loops: {switch, threaded} x
        {plain, profiled}.  Per-instruction hooks (the taint/DualEx
        baselines) need the original instruction objects, so a machine
        with ``instr_hook`` always takes the switch loop regardless of
        backend.  The choice is fixed for a given configuration, so
        the bound loop is memoized as an instance attribute — later
        ``self._run_thread(...)`` calls skip this dispatch entirely.
        """
        if self._code is not None and self._instr_hook is None:
            if self._profile:
                runner = self._run_thread_threaded_profiled
            else:
                runner = self._run_thread_threaded
        elif self._profile:
            runner = self._run_thread_switch_profiled
        else:
            runner = self._run_thread_switch
        self.__dict__["_run_thread"] = runner
        return runner(thread)

    def _run_thread_switch(self, thread: ThreadState) -> Optional[Event]:
        costs = self.costs
        while thread.status == RUNNABLE:
            if thread.pending_transition is not None:
                event = self._resume_transition(thread)
                if event is not None:
                    return event
                continue
            frame = thread.frames[-1]
            instr = frame.function.instrs[frame.index]
            self.stats.instructions += 1
            if self.stats.instructions > self.max_instructions:
                self._budget_exceeded()
            thread.clock += costs.instruction
            if self._instr_hook is not None:
                self._instr_hook(thread, frame, instr)
            event = self._execute(thread, frame, instr)
            if event is not None:
                return event
        return None

    def _run_thread_threaded(self, thread: ThreadState) -> Optional[Event]:
        """The threaded-code driver: the per-instruction prologue is
        hoisted here and everything else lives in the step closures."""
        stats = self.stats
        limit = self.max_instructions
        instruction_cost = self.costs.instruction
        frames = thread.frames
        while thread.status == RUNNABLE:
            if thread.pending_transition is not None:
                event = self._resume_transition(thread)
                if event is not None:
                    return event
                continue
            frame = frames[-1]
            stats.instructions += 1
            if stats.instructions > limit:
                self._budget_exceeded()
            thread.clock += instruction_cost
            event = frame.code[frame.index](self, thread, frame)
            if event is not None:
                return event
        return None

    def _run_thread_switch_profiled(self, thread: ThreadState) -> Optional[Event]:
        costs = self.costs
        counts = self.stats.opcode_counts
        times = self.stats.opcode_time
        elided = self.stats.opcode_elided
        elidable = self._elidable
        while thread.status == RUNNABLE:
            if thread.pending_transition is not None:
                event = self._resume_transition(thread)
                if event is not None:
                    return event
                continue
            frame = thread.frames[-1]
            index = frame.index
            instr = frame.function.instrs[index]
            opname = instr.opname
            before = thread.clock
            self.stats.instructions += 1
            if self.stats.instructions > self.max_instructions:
                self._budget_exceeded()
            thread.clock += costs.instruction
            if self._instr_hook is not None:
                self._instr_hook(thread, frame, instr)
            event = self._execute(thread, frame, instr)
            counts[opname] += 1
            times[opname] += thread.clock - before
            if elidable is not None:
                fn_elidable = elidable.get(frame.function.name)
                if fn_elidable is not None and index in fn_elidable:
                    elided[opname] += 1
            if event is not None:
                return event
        return None

    def _run_thread_threaded_profiled(self, thread: ThreadState) -> Optional[Event]:
        # Profiled machines compile with fuse=False, so one step is
        # exactly one instruction and attribution is exact.
        stats = self.stats
        counts = stats.opcode_counts
        times = stats.opcode_time
        elided = stats.opcode_elided
        elidable = self._elidable
        limit = self.max_instructions
        instruction_cost = self.costs.instruction
        frames = thread.frames
        while thread.status == RUNNABLE:
            if thread.pending_transition is not None:
                event = self._resume_transition(thread)
                if event is not None:
                    return event
                continue
            frame = frames[-1]
            index = frame.index
            opname = frame.function.instrs[index].opname
            before = thread.clock
            stats.instructions += 1
            if stats.instructions > limit:
                self._budget_exceeded()
            thread.clock += instruction_cost
            event = frame.code[index](self, thread, frame)
            counts[opname] += 1
            times[opname] += thread.clock - before
            if elidable is not None:
                fn_elidable = elidable.get(frame.function.name)
                if fn_elidable is not None and index in fn_elidable:
                    elided[opname] += 1
            if event is not None:
                return event
        return None

    def _execute(
        self, thread: ThreadState, frame: Frame, instr: ins.Instr
    ) -> Optional[Event]:
        kind = type(instr)
        if kind is ins.Const:
            self._write(thread, frame, instr.dst, instr.value)
        elif kind is ins.Move:
            self._write(thread, frame, instr.dst, self._read(thread, frame, instr.src))
        elif kind is ins.Binop:
            self._write(
                thread,
                frame,
                instr.dst,
                apply_binop(
                    instr.op,
                    self._read(thread, frame, instr.left),
                    self._read(thread, frame, instr.right),
                ),
            )
        elif kind is ins.Unop:
            self._write(
                thread,
                frame,
                instr.dst,
                apply_unop(instr.op, self._read(thread, frame, instr.operand)),
            )
        elif kind is ins.LoadIndex:
            self._write(
                thread,
                frame,
                instr.dst,
                self._load_index(thread, frame, instr),
            )
        elif kind is ins.StoreIndex:
            self._store_index(thread, frame, instr)
        elif kind is ins.NewList:
            self._write(
                thread,
                frame,
                instr.dst,
                [self._read(thread, frame, item) for item in instr.items],
            )
        elif kind is ins.CallBuiltin:
            args = [self._read(thread, frame, arg) for arg in instr.args]
            self._write(thread, frame, instr.dst, call_builtin(instr.name, args))
        elif kind is ins.CallDirect:
            return self._enter_call(
                thread, frame, instr, self.module.function(instr.func)
            )
        elif kind is ins.CallIndirect:
            target = self._read(thread, frame, instr.callee)
            if not isinstance(target, ins.FuncRef):
                raise InterpreterError(
                    f"indirect call through non-function {target!r}",
                    frame.function.name,
                    frame.index,
                )
            function = self.module.function(target.name)
            if len(function.params) != len(instr.args):
                raise InterpreterError(
                    f"{target.name}() expects {len(function.params)} args",
                    frame.function.name,
                    frame.index,
                )
            return self._enter_call(thread, frame, instr, function)
        elif kind is ins.Syscall:
            return self._raise_syscall(thread, frame, instr)
        elif kind is ins.Jump:
            return self._advance(thread, frame, frame.index, instr.target)
        elif kind is ins.CJump:
            taken = truthy(self._read(thread, frame, instr.cond))
            target = instr.true_target if taken else instr.false_target
            return self._advance(thread, frame, frame.index, target)
        elif kind is ins.Ret:
            return self._return(thread, frame, instr)
        elif kind is ins.Nop:
            pass
        else:  # pragma: no cover
            raise InterpreterError(f"unknown instruction {instr!r}")
        return self._advance(thread, frame, frame.index, frame.index + 1)

    # -- value access --------------------------------------------------------------------

    def _read(self, thread: ThreadState, frame: Frame, name: str):
        if name in frame.locals:
            return frame.locals[name]
        if name in self.globals:
            return self.globals[name]
        # Hoisted-but-unassigned locals read as nil (C-like semantics
        # with zero-initialized storage).
        return None

    def _write(self, thread: ThreadState, frame: Frame, name: str, value) -> None:
        if name in self.globals and name not in frame.locals:
            self.globals[name] = value
        else:
            frame.locals[name] = value

    def _load_index(self, thread: ThreadState, frame: Frame, instr: ins.LoadIndex):
        base = self._read(thread, frame, instr.base)
        index = self._read(thread, frame, instr.index)
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpreterError(
                "index must be an int", frame.function.name, frame.index
            )
        if isinstance(base, str):
            if 0 <= index < len(base):
                return base[index]
            raise InterpreterError(
                f"string index {index} out of range", frame.function.name, frame.index
            )
        if isinstance(base, list):
            if 0 <= index < len(base):
                return base[index]
            raise InterpreterError(
                f"list index {index} out of range", frame.function.name, frame.index
            )
        raise InterpreterError(
            "indexing a non-indexable value", frame.function.name, frame.index
        )

    def _store_index(self, thread: ThreadState, frame: Frame, instr: ins.StoreIndex) -> None:
        base = self._read(thread, frame, instr.base)
        index = self._read(thread, frame, instr.index)
        value = self._read(thread, frame, instr.src)
        if not isinstance(base, list):
            raise InterpreterError(
                "store into a non-list", frame.function.name, frame.index
            )
        if not isinstance(index, int) or not (0 <= index < len(base)):
            raise InterpreterError(
                f"list store index {index!r} out of range",
                frame.function.name,
                frame.index,
            )
        base[index] = value

    # -- control transfer -------------------------------------------------------------------

    def _single_successor(self, frame: Frame) -> int:
        succs = frame.function.successors(frame.index)
        if len(succs) != 1:  # pragma: no cover - callers guarantee this
            raise InterpreterError("expected a unique successor")
        return succs[0]

    def _advance(
        self, thread: ThreadState, frame: Frame, src: int, dst: int
    ) -> Optional[Event]:
        """Cross the edge src->dst, applying instrumentation actions."""
        actions = frame.plan.actions_for(src, dst) if frame.plan is not None else None
        if actions:
            return self._apply_actions(thread, frame, dst, list(actions))
        frame.index = dst
        return None

    def _apply_actions(
        self,
        thread: ThreadState,
        frame: Frame,
        dst: int,
        actions: List[object],
    ) -> Optional[Event]:
        costs = self.costs
        while actions:
            action = actions.pop(0)
            if isinstance(action, CounterAdd):
                thread.counter_stack[-1] += action.delta
                thread.clock += costs.edge_action
                self.stats.edge_actions += 1
            elif isinstance(action, ElidedAdd):
                # Pruned counter updates: accounting only.  The clock is
                # charged per original action (sequential float adds, so
                # pruned and unpruned plans stay bit-identical).
                edge_cost = costs.edge_action
                for _ in range(action.count):
                    thread.clock += edge_cost
                self.stats.edge_actions += action.count
            elif isinstance(action, LoopExit):
                self._pop_loop_record(thread, frame, action.head)
            elif isinstance(action, LoopSync):
                thread.clock += costs.barrier
                self.stats.barriers += 1
                iteration = self._bump_loop_record(thread, frame, action.head)
                event = BarrierEvent(
                    self,
                    thread.tid,
                    frame.function.name,
                    frame.index,
                    thread.counter,
                    action.head,
                    action.reset_to,
                    iteration,
                )
                thread.status = WAIT_BARRIER
                thread.pending_event = event
                thread.pending_transition = (dst, actions)
                return event
            else:  # pragma: no cover
                raise InterpreterError(f"unknown edge action {action!r}")
        frame.index = dst
        thread.pending_transition = None
        return None

    def _bump_loop_record(self, thread: ThreadState, frame: Frame, head: int) -> int:
        """Count a back-edge crossing; returns the 1-based iteration."""
        depth = len(thread.frames)
        if thread.loop_stack:
            record = thread.loop_stack[-1]
            if record[0] == depth and record[1] == frame.function.name and record[2] == head:
                record[3] += 1
                return record[3]
        thread.loop_stack.append([depth, frame.function.name, head, 1])
        return 1

    def _pop_loop_record(self, thread: ThreadState, frame: Frame, head: int) -> None:
        """Close a loop activation (and any nested ones above it)."""
        depth = len(thread.frames)
        for position in range(len(thread.loop_stack) - 1, -1, -1):
            record = thread.loop_stack[position]
            if record[0] == depth and record[1] == frame.function.name and record[2] == head:
                del thread.loop_stack[position:]
                return

    def _resume_transition(self, thread: ThreadState) -> Optional[Event]:
        dst, actions = thread.pending_transition
        thread.pending_transition = None
        frame = thread.frames[-1]
        return self._apply_actions(thread, frame, dst, actions)

    # -- calls and returns ----------------------------------------------------------------------

    def _enter_call(
        self,
        thread: ThreadState,
        frame: Frame,
        instr,
        function: IRFunction,
    ) -> Optional[Event]:
        scoped = False
        if frame.plan is not None and frame.index in frame.plan.scoped_calls:
            scoped = True
        args = [self._read(thread, frame, arg) for arg in instr.args]
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{function.name}() expects {len(function.params)} args",
                frame.function.name,
                frame.index,
            )
        callee = self._new_frame(function, instr.dst, scoped)
        for param, value in zip(function.params, args):
            callee.locals[param] = value
        if scoped:
            # Section 6: save the counter, start a fresh scope at 0.
            thread.counter_stack.append(0)
            self.stats.max_stack_depth = max(
                self.stats.max_stack_depth, len(thread.counter_stack)
            )
        thread.frames.append(callee)
        if self.call_hook is not None:
            self.call_hook(thread, frame, callee, instr)
        return None

    def _return(self, thread: ThreadState, frame: Frame, instr: ins.Ret) -> Optional[Event]:
        value = self._read(thread, frame, instr.src) if instr.src is not None else None
        # Apply the ret -> exit edge actions (loop-exit compensations).
        event = self._advance(thread, frame, frame.index, frame.function.exit)
        if event is not None:
            # A barrier can never sit on a ret edge (rets are loop exits,
            # not back edges) — guard anyway.
            raise InterpreterError("barrier on a return edge")
        if frame.scoped:
            thread.counter_stack.pop()
        # Drop loop records of the frame being popped (loops exited by
        # returning are already closed by their exit-edge LoopExit, but
        # guard against non-instrumented exits).
        depth = len(thread.frames)
        thread.loop_stack = [r for r in thread.loop_stack if r[0] < depth]
        thread.frames.pop()
        if not thread.frames:
            thread.result = value
            thread.status = DONE
            return None
        caller = thread.frames[-1]
        call_instr = caller.function.instrs[caller.index]
        self._write(thread, caller, call_instr.dst, value)
        if self.return_hook is not None:
            self.return_hook(thread, frame, caller, call_instr.dst, value)
        return self._advance(thread, caller, caller.index, caller.index + 1)

    # -- syscalls ------------------------------------------------------------------------------------

    def _raise_syscall(
        self, thread: ThreadState, frame: Frame, instr: ins.Syscall
    ) -> SyscallEvent:
        args = tuple(self._read(thread, frame, arg) for arg in instr.args)
        self.stats.syscalls += 1
        self.stats.counter_samples.append(thread.counter_stack[-1])
        self.stats.max_stack_depth = max(
            self.stats.max_stack_depth, len(thread.counter_stack)
        )
        event = SyscallEvent(
            self,
            thread.tid,
            frame.function.name,
            frame.index,
            thread.counter,
            instr.name,
            args,
        )
        thread.status = WAIT_SYSCALL
        thread.pending_event = event
        return event
