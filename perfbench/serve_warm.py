"""Workload ``serve-warm``: the causality daemon's real traffic.

An in-process :class:`LdxService` (one worker) with every factory built
during set-up.  One generator thread sends an open loop of seeded
Poisson arrivals at :data:`RATE` requests/s.  Requests come in rounds:
a round is a seeded permutation of all 41 registered (workload,
variant) pairs in which ten requests (about a quarter) carry fault
injection at the rates of :data:`FAULT_RATES` with seeded fault
seeds, so every run sends the same mix and only order, timing, the
pairing of rates to programs and fault draws vary with the seed.
The open loop's latency is timed from each request's due time: submit
delay + the service's own queue wait + service time, from the
response's ``timing`` section; it is printed with the generator's
lateness.  A closed loop with one client then measures capacity, one
round at a time, and gives the gated latencies: with the worker never
idle they follow the daemon's own cost, while the open loop's also
follow how fast the shared host wakes an idle worker, which made them
two to four times noisier run to run.  The closed loop repeats one
seeded round, so each of its 41 requests is answered many times with
identical work, and runs the host-speed probe (see :mod:`common`)
before each round.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Dict, List, Optional, Tuple

from perfbench import common

RATE = 70.0  # open-loop arrivals per second (capacity is ~4.5x this)
# Share of the run spent in the open loop; the rest goes to the closed
# loop, whose repeats the gated metrics are taken from.
OPEN_SHARE = 0.25
# One worker and one closed-loop client: under the interpreter lock a
# second thread of either kind adds no compute, only lock hand-offs
# that made the tail and the capacity figures two to three times noisier.
WORKERS = 1
# Fault rates of the faulted requests of each round: ten even steps
# from 0.02 to 0.3, so every round retries about as much.
FAULT_RATES = tuple(round(0.02 + step * 0.28 / 9, 4) for step in range(10))
# Percentile reported as latency_tail_ms: at 30 s the closed loop
# answers about 7000 requests, so about 700 lie beyond it.  NOTE_TAIL
# is printed for both loops; its run-to-run spread in the open loop
# (75-90%) exceeded any usable bound.
TAIL = 0.90
NOTE_TAIL = 0.99
WAIT_TIMEOUT = 120.0


class _Discard:
    """Log sink: the daemon formats every log record, nothing is kept."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def plan_round(rng: random.Random, label: str) -> List[dict]:
    """All 41 pairs in seeded order; the first len(FAULT_RATES) of them
    carry fault injection, one rate each, with seeded fault seeds."""
    pairs = common.registry_pairs()
    rng.shuffle(pairs)
    payloads = []
    for index, (name, variant) in enumerate(pairs):
        payload = {"id": f"{label}-{index}", "workload": name, "variant": variant}
        if index < len(FAULT_RATES):
            payload["fault_rate"] = FAULT_RATES[index]
            payload["fault_seed"] = rng.randrange(1 << 30)
        payloads.append(payload)
    rng.shuffle(payloads)
    return payloads


def open_rounds(seconds: float) -> int:
    """Whole rounds the open loop sends in *seconds* at RATE."""
    return max(1, int(RATE * seconds * OPEN_SHARE / len(common.registry_pairs())))


def plan_arrivals(seed: int, rounds: int) -> List[Tuple[float, dict]]:
    """(due offset in seconds, payload) of the seeded open loop."""
    rng = random.Random(f"serve-warm:{seed}")
    payloads = [p for r in range(rounds) for p in plan_round(rng, f"open-{r}")]
    arrivals: List[Tuple[float, dict]] = []
    due = 0.0
    for payload in payloads:
        due += rng.expovariate(RATE)
        arrivals.append((due, payload))
    return arrivals


def start_service(cache_dir: str):
    """The warm daemon: every pair answered once, so every factory exists."""
    from repro import cache
    from repro.serve import LdxService, ServeConfig

    cache.configure(cache_dir=cache_dir)
    service = LdxService(ServeConfig(workers=WORKERS, log_stream=_Discard())).start()
    for name, variant in common.registry_pairs():
        response = service.submit_and_wait(
            {"id": f"warm-{name}-{variant}", "workload": name, "variant": variant},
            timeout=WAIT_TIMEOUT,
        )
        if not response or response["status"] != "ok":
            raise RuntimeError(f"warm-up of {name}:{variant} failed: {response}")
    return service


class Answered:
    """One request's response and its timings (seconds)."""

    __slots__ = ("payload", "response", "latency", "late")

    def __init__(self, payload: dict, response: Optional[dict],
                 latency: float, late: float = 0.0) -> None:
        self.payload = payload
        self.response = response
        self.latency = latency
        self.late = late

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response["status"] == "ok"


def verify(outcome: common.Outcome, answered: List[Answered]) -> None:
    """Count every request that was not answered with the known verdict."""
    for item in answered:
        outcome.attempted += 1
        payload, response = item.payload, item.response
        if response is None:
            outcome.fail(f"{payload['id']} timed out")
        elif response["status"] != "ok":
            outcome.fail(f"{payload['id']} {response['status']}: {response.get('reason')}")
        else:
            expected = common.expected_causality(payload["workload"], payload["variant"])
            if response["verdict"]["causality"] != expected:
                outcome.fail(f"{payload['id']} {payload['workload']}:{payload['variant']} "
                             f"causality={response['verdict']['causality']}, expected {expected}")
                item.latency = float("inf")
        if not item.ok:
            item.latency = float("inf")


def open_loop(service, arrivals: List[Tuple[float, dict]]) -> List[Answered]:
    """Send on schedule regardless of completions; then collect."""
    sent = []
    origin = time.perf_counter()
    for offset, payload in arrivals:
        delay = origin + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        ticket = service.submit(payload)
        sent.append((payload, ticket, now - origin - offset,
                     time.perf_counter() - origin - offset))
    answered = []
    for payload, ticket, late, submitted in sent:
        response = ticket.wait(WAIT_TIMEOUT)
        latency = float("inf")
        if response is not None and response["status"] == "ok":
            timing = response["timing"]
            latency = submitted + timing["queue_wait_s"] + timing["service_s"]
        answered.append(Answered(payload, response, latency, late))
    return answered


def request_key(payload: dict) -> tuple:
    """What a request asks for, without its id."""
    return (payload["workload"], payload["variant"],
            payload.get("fault_rate"), payload.get("fault_seed"))


def closed_loop(service, seed: int, seconds: float, min_rounds: int = 1,
                probes: Optional[List[float]] = None,
                ) -> Tuple[List[Answered], List[float]]:
    """One client sending whole rounds, each request after the last
    answer, for *seconds* and at least *min_rounds* rounds; returns the
    answers and each round's wall time.  Every round sends the same
    seeded 41 requests (faults included) in a fresh seeded order, so
    each request is repeated with identical work.  With a *probes* list
    given, a host-speed probe runs before each round, while nothing is
    in flight, and its time is appended."""
    rng = random.Random(f"serve-warm-closed:{seed}")
    plan = plan_round(rng, "closed")
    answered: List[Answered] = []
    rounds: List[float] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if probes is not None:
            probes.append(common.probe())
        began = time.perf_counter()
        rng.shuffle(plan)
        for planned in plan:
            payload = dict(planned, id=f"{planned['id']}-{len(rounds)}")
            sent = time.perf_counter()
            response = service.submit_and_wait(payload, timeout=WAIT_TIMEOUT)
            answered.append(Answered(payload, response, time.perf_counter() - sent))
        rounds.append(time.perf_counter() - began)
    return answered, rounds


def _accounting(outcome: common.Outcome, service, submitted: int) -> None:
    stats = service.stats()
    if stats["served"] + stats["rejected"] != submitted:
        outcome.fail(f"served {stats['served']} + rejected {stats['rejected']} "
                     f"!= submitted {submitted}")


def _percentiles_ms(values: List[float]) -> str:
    parts = [f"p{round(q * 100)} {common.percentile(values, q) * 1000:.3f} ms"
             for q in (0.5, TAIL, NOTE_TAIL)]
    return (", ".join(parts)
            + f" ({common.beyond(len(values), NOTE_TAIL)} beyond p{round(NOTE_TAIL * 100)})")


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    workdir = common.make_workdir("serve-warm", seed)
    try:
        cache_dir = os.path.join(workdir, "cache")
        common.time_to_ready(["warm-cache", "--cache-dir", cache_dir])
        return _run(seed, seconds, trace, cache_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, cache_dir: str) -> common.Outcome:
    outcome = common.Outcome()
    setup, setups = common.median_setup(["serve-ready", "--cache-dir", cache_dir])
    service = start_service(cache_dir)
    submitted = len(common.registry_pairs())
    try:
        if not trace:
            arrivals = plan_arrivals(seed, open_rounds(seconds))
            answered = open_loop(service, arrivals)
            # The open loop is a fixed amount of work; the closed loop is not.
            rss_mb = common.peak_rss_mb()
            probes: List[float] = []
            closed, rounds = closed_loop(service, seed, seconds * (1 - OPEN_SHARE),
                                         probes=probes)
            submitted += len(answered) + len(closed)
            verify(outcome, answered)
            verify(outcome, closed)
            latencies = [item.latency for item in closed]
            per_request: Dict[tuple, List[float]] = {}
            for item in closed:
                per_request.setdefault(request_key(item.payload), []).append(item.latency)
            round_wall = common.sum_of_medians(per_request)
            factor = common.speed_factor(probes)
            p50 = common.percentile(latencies, 0.5)
            tail = common.percentile(latencies, TAIL)
            outcome.metric("setup_s", setup, "s")
            outcome.metric("peak_rss_mb", rss_mb, "MB")
            outcome.metric("latency_p50_ms", p50 * 1000 * factor, "ms")
            outcome.metric("latency_tail_ms", tail * 1000 * factor, "ms")
            outcome.metric("throughput_per_s",
                           len(per_request) / (round_wall * factor), "1/s")
            outcome.metric("wall_s", round_wall * factor, "s")
            outcome.notes.append(common.probe_note(probes))
            outcome.notes.append(
                f"open loop: {len(answered)} requests at {RATE:g}/s, latency from the "
                f"due time: {_percentiles_ms([item.latency for item in answered])}; "
                f"generator late: {_percentiles_ms([item.late for item in answered])}"
            )
            outcome.notes.append(
                f"closed loop (gated): 1 client, {len(rounds)} rounds of the same "
                f"{len(per_request)} requests; wall_s is one round summed from "
                f"per-request medians, unscaled {round_wall:.6g} s; unscaled latency: "
                f"{_percentiles_ms(latencies)}; round samples: " + common.summary(rounds)
            )
        else:
            submitted += _traced(outcome, service, seed, seconds)
    finally:
        if not service.drain(timeout=WAIT_TIMEOUT):
            outcome.fail("service did not drain")
    _accounting(outcome, service, submitted)
    outcome.notes.append("setup_s samples: " + common.summary(setups))
    return outcome


def _traced(outcome: common.Outcome, service, seed: int, seconds: float) -> int:
    """The same open loop and the same closed-loop rounds, untraced and
    then traced; both loops have a fixed size so the counts are exact."""
    from perfbench import tracer as tracing

    rounds = open_rounds(seconds / 2)
    arrivals = plan_arrivals(seed, rounds)
    plain = open_loop(service, arrivals)
    plain_closed, _ = closed_loop(service, seed, 0.0, rounds)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = open_loop(service, arrivals)
        traced_closed, _ = closed_loop(service, seed, 0.0, rounds)
    finally:
        patches.restore()
    tracer.write(common.trace_path("serve-warm", seed))
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        outcome.fail(f"wrappers left installed: {leftovers[:3]}")
    for answered in (plain, plain_closed, traced, traced_closed):
        verify(outcome, answered)
    for before, after in zip(plain + plain_closed, traced + traced_closed):
        if before.ok and after.ok and before.response["verdict"] != after.response["verdict"]:
            outcome.fail(f"traced verdict of {after.payload['id']} differs from untraced")

    for name, value in tracing.layer_metrics(tracer).items():
        outcome.metric(name, value, tracing.unit_of(name))
    ok = [item.response for item in traced if item.ok]
    for part in ("queue_wait", "service"):
        values = [response["timing"][f"{part}_s"] * 1000 for response in ok]
        outcome.metric(f"serve.{part}_p50_ms", common.percentile(values, 0.5), "ms")
        outcome.metric(f"serve.{part}_tail_ms", common.percentile(values, TAIL), "ms")
    hits = sum(1 for response in ok if response["cache"]["factory"] == "hit")
    outcome.metric("serve.factory_hit_ratio", hits / len(ok), "ratio")
    late = [item.late * 1000 for item in traced]
    outcome.metric("bench.generator_late_ms", common.percentile(late, TAIL), "ms")
    p50 = lambda items: common.percentile([item.latency for item in items], 0.5)
    outcome.metric("bench.tracing_overhead", p50(traced_closed) / p50(plain_closed), "ratio")
    busy = sum(item.response["timing"]["service_s"]
               for item in traced + traced_closed if item.ok)
    outcome.metric("bench.unattributed_share", 1.0 - tracer.self_seconds() / busy, "ratio")
    outcome.notes.append(
        f"per-layer values are totals over the traced open loop ({len(traced)} "
        f"requests at {RATE:g}/s) and {rounds} traced closed-loop rounds; "
        "serve.* and bench.generator_late_ms are from the open loop"
    )
    return len(plain) + len(plain_closed) + len(traced) + len(traced_closed)
