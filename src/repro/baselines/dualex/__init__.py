"""DualEx baseline: execution-indexing-aligned dual execution."""

from repro.baselines.dualex.engine import DualExResult, run_dualex
from repro.baselines.dualex.indexing import IndexTracker

__all__ = ["DualExResult", "run_dualex", "IndexTracker"]
