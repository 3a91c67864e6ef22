"""Mutation-strategy study (Section 8.3, "Input Mutation").

Runs each leak-expected workload under several mutation strategies and
counts detections.  The paper's conclusion: no strategy supersedes
off-by-one (which provably exposes all strong one-to-one causalities).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import LdxConfig
from repro.core.engine import run_dual
from repro.core.mutation import STRATEGIES, RandomMutation
from repro.eval.reporting import format_table
from repro.workloads import get_workload


# Workloads whose default configs use the generic mutation (custom
# per-resource mutators would mask the strategy under study).
STUDY_WORKLOADS = [
    "perlbench",
    "bzip2",
    "gcc",
    "mcf",
    "gobmk",
    "hmmer",
    "sjeng",
    "libquantum",
    "omnetpp",
    "lynx",
    "tnftp",
]


def strategies_under_study():
    named = dict(STRATEGIES)
    named["random"] = RandomMutation(seed=97)
    return named


def run_strategy(
    strategy_name: str, names: Optional[List[str]] = None
) -> Dict[str, bool]:
    """One strategy across the study workloads: {workload -> detected}.

    A strategy is the smallest independent unit: the stateful
    ``random`` mutator's RNG stream advances *across* workloads, so
    splitting a strategy between workers would change its outcomes.
    """
    names = names or list(STUDY_WORKLOADS)
    mutator = strategies_under_study()[strategy_name]
    per_workload: Dict[str, bool] = {}
    for name in names:
        workload = get_workload(name)
        base = workload.leak_variant()
        config = LdxConfig(sources=base.sources, sinks=base.sinks, mutation=mutator)
        # Strip custom mutators so the studied strategy applies.
        config.sources.mutators = {}
        result = run_dual(workload.instrumented, workload.build_world(1), config)
        per_workload[name] = result.report.causality_detected
    return per_workload


def render_mutation_study(outcomes: Dict[str, Dict[str, bool]]) -> str:
    strategies = sorted(outcomes)
    workload_names = sorted(next(iter(outcomes.values()))) if outcomes else []
    rows = []
    for name in workload_names:
        rows.append(
            [name] + ["O" if outcomes[s][name] else "X" for s in strategies]
        )
    totals = ["detected"] + [
        str(sum(outcomes[s][w] for w in workload_names)) for s in strategies
    ]
    rows.append(totals)
    return format_table(
        ["Program"] + strategies,
        rows,
        title="Mutation strategy study (Section 8.3)",
    )
