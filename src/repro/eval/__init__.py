"""Experiment drivers regenerating the paper's tables and figures."""

from repro.eval.figure6 import Figure6Row, render_figure6
from repro.eval.mutation_study import render_mutation_study
from repro.eval.reporting import arithmetic_mean, format_table, geometric_mean
from repro.eval.runner import run_all
from repro.eval.table1 import Table1Row, render_table1
from repro.eval.table2 import Table2Row, render_table2
from repro.eval.table3 import Table3Row, render_table3
from repro.eval.table4 import Table4Row, render_table4

__all__ = [
    "Figure6Row",
    "render_figure6",
    "render_mutation_study",
    "arithmetic_mean",
    "format_table",
    "geometric_mean",
    "run_all",
    "Table1Row",
    "render_table1",
    "Table2Row",
    "render_table2",
    "Table3Row",
    "render_table3",
    "Table4Row",
    "render_table4",
]
