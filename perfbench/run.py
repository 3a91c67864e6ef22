"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints one line per note and then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  ``failed_ratio`` is
``failed / attempted``; it is also printed on a note line.  Exits 2
without a result when the program under test is missing or broken.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-warm", "check-cold", "eval-tables")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _prepare() -> None:
    """Make the program importable, or exit 2 when it is not there."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro
        import repro.serve  # noqa: F401
        import repro.workloads  # noqa: F401
        if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
            raise ImportError(f"repro found outside this tree: {repro.__file__}")
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}",
              file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import check_cold, eval_tables, serve_warm

    runners = {"serve-warm": serve_warm.run, "check-cold": check_cold.run,
               "eval-tables": eval_tables.run}
    return runners[name](seed, seconds, trace)


def result_line(outcome, expected: list) -> str:
    """The final JSON line; every *expected* metric must be present
    (per-layer metrics of a layer the workload never calls read 0)."""
    metrics = {}
    for entry in expected:
        value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _spec()
    _prepare()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("perfbench: the run could not complete", file=sys.stderr)
        return 2
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    for note in outcome.notes:
        print(note)
    print(f"failed_ratio = {outcome.failed_ratio:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for entry in expected:
        value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        print(f"{entry['name']} = {value:.6g} {unit}")
    print(result_line(outcome, expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
