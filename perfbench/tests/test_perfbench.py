"""Tests of the benchmark itself (not part of the program's suite).

    python3 -m pytest -q perfbench/tests

Slow-ish (about a minute): the smoke runs spawn fresh interpreters the
way the real runs do, only with the shortest run length.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import check_cold, common, serve_warm, tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(ROOT, "perfbench", "baseline.json")) as _handle:
    BASELINE = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    result = _run("check-cold", 1)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["analysis.analyze_s"]["value"] > 0
    # Per-sweep counts are exact and the same for every seed.
    for name, count in BASELINE["check-cold"].items():
        assert result["metrics"][name]["value"] == count, name


def test_wrappers_are_all_restored():
    import repro.cfg.loops
    import repro.lang.parser
    from repro.core.engine import LdxEngine

    before = (repro.lang.parser.parse, repro.cfg.loops.compute_dominators,
              vars(LdxEngine)["run"])
    trace = tracer.Tracer()
    patches = tracer.install(trace)
    try:
        assert tracer.leftover_wrappers()
        assert repro.cfg.loops.compute_dominators is not before[1]
        check_cold.check_program("gzip", "leak", 1, "restore_test")
    finally:
        patches.restore()
    assert tracer.leftover_wrappers() == []
    after = (repro.lang.parser.parse, repro.cfg.loops.compute_dominators,
             vars(LdxEngine)["run"])
    assert all(a is b for a, b in zip(before, after))
    assert "compile" not in vars(sys.modules["repro.interp.compile"])
    assert trace.totals()["lang.parse"][0] >= 1


class _Report:
    def __init__(self, causality):
        self.causality_detected = causality
        self.soundness_violations = []


class _Result:
    def __init__(self, causality):
        self.report = _Report(causality)


def test_wrong_verdict_counts_as_failed():
    outcome = common.Outcome()
    outcome.attempted = 2
    assert check_cold.verify(outcome, "gzip", "leak", _Result(True))
    assert not check_cold.verify(outcome, "gzip", "leak", _Result(False))
    assert outcome.failed == 1 and outcome.failed_ratio == 0.5

    wrong = {"status": "ok", "verdict": {"causality": True}, "timing": {}}
    answered = [serve_warm.Answered(
        {"id": "x", "workload": "bzip2", "variant": "noleak"}, wrong, 0.001)]
    outcome = common.Outcome()
    serve_warm.verify(outcome, answered)
    assert outcome.failed == 1 and outcome.failed_ratio == 1.0
    assert answered[0].latency == float("inf")


def test_exact_counts_repeat_and_match_the_baseline():
    from repro import cache

    cache.configure()
    outcome = common.Outcome()
    first = check_cold.sweeps(outcome, 1, 0.0, "first")
    second = check_cold.sweeps(outcome, 1, 0.0, "second")
    assert outcome.failed == 0
    assert first[0]["counts"] == second[0]["counts"]
    recorded = BASELINE["check-cold"]
    for name in ("interp.instructions", "interp.edge_actions", "interp.syscalls"):
        assert first[0]["counts"][name] == recorded[name], name


def test_speed_factor_scales_to_the_reference_probe():
    slow = [2 * common.REFERENCE_PROBE_S] * 5
    assert common.speed_factor(slow) == 0.5
    assert common.speed_factor([common.REFERENCE_PROBE_S, 1.0, 0.0]) == 1.0
    assert common.probe() > 0


class _EchoService:
    def __init__(self):
        self.sent = []

    def submit_and_wait(self, payload, timeout):
        self.sent.append(payload)
        return {"status": "ok", "verdict": {"causality": False}, "timing": {}}


def test_closed_loop_repeats_one_round_of_distinct_requests():
    service = _EchoService()
    answered, rounds = serve_warm.closed_loop(service, 3, 0.0, min_rounds=3)
    assert len(rounds) == 3 and len(answered) == 3 * 41
    keys = [serve_warm.request_key(p) for p in service.sent]
    per_round = [keys[i * 41:(i + 1) * 41] for i in range(3)]
    assert len(set(per_round[0])) == 41
    assert all(sorted(r, key=repr) == sorted(per_round[0], key=repr) for r in per_round)
    assert sum(1 for key in per_round[0] if key[2] is not None) == len(serve_warm.FAULT_RATES)
    assert len({p["id"] for p in service.sent}) == 3 * 41
