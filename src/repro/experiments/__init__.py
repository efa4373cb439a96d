"""Experiment harness: one runner per table/figure of the paper.

See docs/ALGORITHMS.md, "Benchmark → figure/table map", for the
per-experiment index and ``python -m repro.experiments.run_all`` to
regenerate EXPERIMENTS.md.
"""

from .ablation_constraints import (
    AblationConstraintsConfig,
    run_ablation_constraints,
)
from .common import Record, Series, format_table, sparkline, timed
from .example22 import EXAMPLE22_EXPECTED, run_example22
from .fig3_violations import Fig3Config, run_fig3
from .fig4_twod import Fig4Config, run_fig4
from .fig56_md import Fig56Config, run_fig56
from .fig7_scalability import Fig7Config, run_fig7
from .fig89_samplesize import Fig89Config, run_fig89
from .fig1011_params import Fig1011Config, run_fig1011
from .runner import run_fair_solvers
from .run_all import run_all
from .shapes import ShapeCheck, check_all_shapes
from .table2 import TABLE2_PAPER, run_table2
from .workloads import (
    CORE_SOLVERS,
    FAIR_SOLVERS,
    UNFAIR_SOLVERS,
    anticor,
    paper_constraint,
    real_dataset,
)

__all__ = [
    "AblationConstraintsConfig",
    "CORE_SOLVERS",
    "EXAMPLE22_EXPECTED",
    "FAIR_SOLVERS",
    "Fig1011Config",
    "Fig3Config",
    "Fig4Config",
    "Fig56Config",
    "Fig7Config",
    "Fig89Config",
    "Record",
    "Series",
    "ShapeCheck",
    "TABLE2_PAPER",
    "UNFAIR_SOLVERS",
    "anticor",
    "check_all_shapes",
    "format_table",
    "paper_constraint",
    "real_dataset",
    "run_ablation_constraints",
    "run_all",
    "run_example22",
    "sparkline",
    "run_fair_solvers",
    "run_fig3",
    "run_fig4",
    "run_fig56",
    "run_fig7",
    "run_fig89",
    "run_fig1011",
    "run_table2",
    "timed",
]
