"""Table 5 — Static taint analysis vs dynamic LDX verdicts.

An extension beyond the paper's evaluation: for every workload we run
the static causality analyzer (``repro.analysis``) over the same IR the
engine executes, then dual-execute the leak and no-leak variants with
the analysis installed as the engine's *soundness oracle*.  The table
reports, per program:

* how many sink sites the static pass flags as may-depend (and whether
  a possible divergent abort forces it to flag everything);
* the dynamic LDX verdict on the leak-expected and no-leak variants;
* any soundness violations — dynamic detections outside the static
  may-depend set.  A sound over-approximation admits *every* dynamic
  behaviour, so this column must stay at zero; anything else is an
  engine (or analyzer) bug, which is exactly what ``--check-static``
  exists to catch.

The closing summary quantifies precision: on no-leak variants LDX is
exact (no detection) while the input-agnostic static pass may still
flag sinks — those are its false positives.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis import analyze_source
from repro.core.engine import run_dual
from repro.eval.reporting import format_table
from repro.workloads import get_workload

LEAK = "O"
CLEAN = "X"
IMPOSSIBLE = "-"


class Table5Row:
    """Static-vs-dynamic measurements for one program."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.static_flagged = 0
        self.static_total = 0
        self.elidable = 0
        self.instructions = 0
        self.pruned_updates = 0
        self.may_abort = False
        self.races = 0
        self.ldx_leak = ""
        self.leak_detections = 0
        self.ldx_noleak = ""
        self.violations: List[str] = []

    @property
    def static_verdict(self) -> str:
        return LEAK if (self.static_flagged or self.may_abort) else CLEAN

    @property
    def sound(self) -> bool:
        return not self.violations

    def static_cell(self) -> str:
        cell = f"{self.static_flagged}/{self.static_total}"
        if self.may_abort:
            cell += " (abort)"
        return cell

    def elision_cell(self) -> str:
        """Elision precision: the share of instructions the relevance
        pass proves outcome-irrelevant (Algorithm 2\'s win)."""
        if not self.instructions:
            return "-"
        pct = 100.0 * self.elidable / self.instructions
        return f"{self.elidable}/{self.instructions} ({pct:.1f}%)"

    def as_list(self) -> List[object]:
        return [
            self.name,
            self.static_cell(),
            self.elision_cell(),
            self.static_verdict,
            self.ldx_leak,
            self.ldx_noleak,
            self.races,
            "ok" if self.sound else f"{len(self.violations)} VIOLATION(S)",
        ]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "static_flagged": self.static_flagged,
            "static_total": self.static_total,
            "elidable": self.elidable,
            "instructions": self.instructions,
            "pruned_updates": self.pruned_updates,
            "may_abort": self.may_abort,
            "static_verdict": self.static_verdict,
            "races": self.races,
            "ldx_leak": self.ldx_leak,
            "leak_detections": self.leak_detections,
            "ldx_noleak": self.ldx_noleak,
            "violations": list(self.violations),
        }


HEADERS = [
    "Program",
    "Static sinks",
    "Elidable",
    "Static",
    "LDX leak",
    "LDX noleak",
    "Races",
    "Soundness",
]


def measure_workload(name: str) -> Table5Row:
    workload = get_workload(name)
    row = Table5Row(name)

    leak_config = workload.leak_variant()
    leak_analysis = analyze_source(workload.source, leak_config, f"{name}:leak")
    row.static_flagged = len(leak_analysis.flagged_sinks)
    row.static_total = len(leak_analysis.sink_sites)
    totals = leak_analysis.relevance_totals
    row.elidable = totals.get("elidable", 0)
    row.instructions = totals.get("instructions", 0)
    row.pruned_updates = totals.get("prunable_counter_updates", 0)
    row.may_abort = leak_analysis.may_abort
    row.races = len(leak_analysis.races)

    leak_result = run_dual(
        workload.instrumented,
        workload.build_world(1),
        leak_config,
        static_oracle=leak_analysis,
    )
    row.ldx_leak = LEAK if leak_result.report.causality_detected else CLEAN
    row.leak_detections = len(leak_result.report.detections)
    row.violations.extend(leak_result.report.soundness_violations)

    noleak_config = workload.noleak_variant()
    if noleak_config is None:
        row.ldx_noleak = IMPOSSIBLE
    else:
        noleak_analysis = analyze_source(
            workload.source, noleak_config, f"{name}:noleak"
        )
        noleak_result = run_dual(
            workload.instrumented,
            workload.build_world(1),
            noleak_config,
            static_oracle=noleak_analysis,
        )
        row.ldx_noleak = (
            LEAK if noleak_result.report.causality_detected else CLEAN
        )
        row.violations.extend(noleak_result.report.soundness_violations)
    return row


def soundness_ok(rows: List[Table5Row]) -> bool:
    """The hard invariant: no dynamic detection escaped the static
    may-depend set anywhere."""
    return all(row.sound for row in rows)


def _precision_summary(rows: List[Table5Row]) -> List[str]:
    lines: List[str] = []
    total_violations = sum(len(row.violations) for row in rows)
    lines.append(
        f"soundness: {total_violations} dynamic detection(s) outside the "
        f"static may-depend set across {len(rows)} program(s)"
    )
    for row in rows:
        for violation in row.violations:
            lines.append(f"  VIOLATION {row.name}: {violation}")

    agree_leak = sum(
        1 for row in rows if row.static_verdict == LEAK and row.ldx_leak == LEAK
    )
    leak_rows = sum(1 for row in rows if row.ldx_leak)
    selective = [row for row in rows if not row.may_abort]
    abort_rows = len(rows) - len(selective)
    lines.append(
        f"recall on leak variants: static flags {agree_leak}/{leak_rows} "
        f"programs where LDX detected causality"
    )
    lines.append(
        f"precision: {len(selective)} program(s) analyzed selectively, "
        f"{abort_rows} conservatively flag every sink (possible divergent abort)"
    )
    if selective:
        flagged = sum(row.static_flagged for row in selective)
        total = sum(row.static_total for row in selective)
        pct = 100.0 * flagged / total if total else 0.0
        lines.append(
            f"  selective programs flag {flagged}/{total} sink sites ({pct:.1f}%)"
        )
    elidable = sum(row.elidable for row in rows)
    instructions = sum(row.instructions for row in rows)
    if instructions:
        lines.append(
            f"elision precision: {elidable}/{instructions} instruction(s) "
            f"proven outcome-irrelevant "
            f"({100.0 * elidable / instructions:.1f}%)"
        )
    pruned = sum(row.pruned_updates for row in rows)
    lines.append(
        f"instrumentation pruning: {pruned} counter update(s) dropped from "
        f"plans on counter-elidable edges"
    )
    return lines


def render_table5(rows: List[Table5Row]) -> str:
    table = format_table(
        HEADERS,
        [row.as_list() for row in rows],
        title="Table 5: Static Causality Analysis vs LDX (extension)",
    )
    return table + "\n\n" + "\n".join(_precision_summary(rows))


def table5_json(rows: List[Table5Row]) -> str:
    """Machine-readable artifact for CI trend tracking."""
    payload = {
        "schema": "ldx-table5-v2",
        "soundness_ok": soundness_ok(rows),
        "rows": [row.as_dict() for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
