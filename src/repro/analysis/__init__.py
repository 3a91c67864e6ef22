"""Static analysis of MiniC programs — the never-runs-anything layer.

Everything else in this reproduction *executes* programs (natively,
instrumented, dual, fault-injected).  This package analyzes them
statically instead:

* :mod:`repro.analysis.dataflow` — a generic worklist dataflow
  framework (forward/backward, may/must) over the instruction-granular
  CFG, with reaching-definitions and live-variables instances;
* :mod:`repro.analysis.controldep` — control dependence via
  postdominators (Ferrante–Ottenstein–Warren);
* :mod:`repro.analysis.taint` — an interprocedural static
  taint/dependence pass computing a *sound over-approximation* of
  source→sink causality, the oracle LDX's dynamic verdicts are checked
  against;
* :mod:`repro.analysis.lockset` — lockset-based static race detection
  for the ``thread_spawn``/``mutex_*`` intrinsics;
* :mod:`repro.analysis.lint` — diagnostics (never-read variables,
  maybe-uninitialized uses, unreachable code, races);
* :mod:`repro.analysis.relevance` — the paper's Algorithm 2:
  sink-relevance classification of every instruction from the outcome
  sinks backwards, driving counter pruning and the threaded backend's
  fused regions;
* :mod:`repro.analysis.analyzer` — the cacheable per-program summary
  behind ``repro analyze`` and ``repro eval --check-static``.
"""

from repro.analysis.analyzer import (
    ProgramAnalysis,
    analyze_module,
    analyze_source,
    analyze_workload,
    render_analysis,
)
from repro.analysis.controldep import control_dependence
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    MAY,
    MUST,
    DataflowProblem,
    LiveVariables,
    ReachingDefinitions,
    solve,
)
from repro.analysis.lint import Diagnostic, lint_module
from repro.analysis.relevance import (
    FunctionRelevance,
    ModuleRelevance,
    RegionSummary,
    compute_relevance,
)
from repro.analysis.lockset import LocksetReport, analyze_locksets
from repro.analysis.taint import StaticCausality, StaticSeeds, static_causality

__all__ = [
    "BACKWARD",
    "FORWARD",
    "MAY",
    "MUST",
    "DataflowProblem",
    "Diagnostic",
    "FunctionRelevance",
    "ModuleRelevance",
    "RegionSummary",
    "LiveVariables",
    "LocksetReport",
    "ProgramAnalysis",
    "ReachingDefinitions",
    "StaticCausality",
    "StaticSeeds",
    "analyze_locksets",
    "analyze_module",
    "analyze_source",
    "analyze_workload",
    "compute_relevance",
    "control_dependence",
    "lint_module",
    "render_analysis",
    "solve",
    "static_causality",
]
