"""Reproduction of every table and figure in the paper's evaluation.

Each module computes the exact series of one figure:

================  ====================================================
module            paper content
================  ====================================================
``table1``        Table I cost constants via measurement + calibration
``fig4``          measured vs. model throughput on the (R, n) grid
``fig5``          mean service time vs. filters
``fig6``          server capacity vs. filters, equivalence claims
``fig8``          c_var[B] under scaled-Bernoulli replication
``fig9``          c_var[B] under binomial replication
``fig10``         normalized mean waiting time vs. utilization
``fig11``         waiting-time CCDF at rho = 0.9
``fig12``         99 % / 99.99 % waiting-time quantiles
``fig15``         PSR vs. SSR distributed capacity
``overload``      M/G/1/K loss + conditional wait beyond the paper
================  ====================================================
"""

from .fig4 import Fig4Point, figure4, measure_grid
from .fig5 import figure5, log_filter_grid
from .fig6 import equivalence_claims, figure6
from .fig8 import bernoulli_cvar_limit, figure8, max_bernoulli_cvar
from .fig9 import binomial_cvar, figure9, reference_plateau
from .fig10 import figure10, normalized_mean_wait, utilization_grid
from .fig11 import figure11, wait_ccdf_curve
from .fig12 import capacity_for_bound, figure12, normalized_quantile
from .fig15 import figure15, psr_example_per_server_capacity
from .overload import (
    format_validation,
    overload_figure,
    validate_overload,
)
from .report import ClaimCheck, format_report, reproduction_report
from .sensitivity import (
    ArrivalCase,
    SensitivityRow,
    arrival_sensitivity_study,
    balanced_h2,
)
from .series import FigureData, Series
from .study import max_cvar_for_filters, service_model_for_cvar
from .table1 import Table1Row, format_table1, reproduce_table1

__all__ = [
    "ArrivalCase",
    "ClaimCheck",
    "Fig4Point",
    "FigureData",
    "SensitivityRow",
    "Series",
    "Table1Row",
    "arrival_sensitivity_study",
    "balanced_h2",
    "bernoulli_cvar_limit",
    "binomial_cvar",
    "capacity_for_bound",
    "equivalence_claims",
    "figure10",
    "figure11",
    "figure12",
    "figure15",
    "figure4",
    "figure5",
    "figure6",
    "figure8",
    "figure9",
    "format_report",
    "format_table1",
    "format_validation",
    "log_filter_grid",
    "max_bernoulli_cvar",
    "max_cvar_for_filters",
    "measure_grid",
    "normalized_mean_wait",
    "normalized_quantile",
    "overload_figure",
    "psr_example_per_server_capacity",
    "reference_plateau",
    "reproduce_table1",
    "reproduction_report",
    "service_model_for_cvar",
    "utilization_grid",
    "validate_overload",
    "wait_ccdf_curve",
]
