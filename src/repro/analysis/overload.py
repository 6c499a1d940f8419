"""Overload analysis: M/G/1/K loss curves and simulation cross-validation.

The companion of Fig. 10 for the finite-buffer regime: instead of the
normalized mean wait diverging as ρ → 1 (Eqs. 4–5), the M/G/1/K model
trades latency for loss — the conditional wait of accepted messages
saturates near ``(K − 1)·E[B]`` while the loss probability absorbs the
excess load.  :func:`overload_figure` produces the model curves across
the three replication-grade families; :func:`validate_overload` runs the
discrete-event overload simulation at selected offered loads and reports
the relative error of the model's loss probability, conditional mean
wait and effective throughput (the numbers recorded in
``BENCH_overload.json``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.service_time import ReplicationFamily
from ..overload.experiment import (
    OverloadExperimentConfig,
    OverloadRunResult,
    run_overload_experiment,
)
from .series import FigureData

__all__ = [
    "DEFAULT_RHO_GRID",
    "format_validation",
    "overload_figure",
    "validate_overload",
]

#: The sweep of the overload study: well below saturation through 50 % over.
DEFAULT_RHO_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.1, 1.2, 1.3, 1.5)

_FAMILIES = (
    ReplicationFamily.DETERMINISTIC,
    ReplicationFamily.SCALED_BERNOULLI,
    ReplicationFamily.BINOMIAL,
)


def overload_figure(
    config: Optional[OverloadExperimentConfig] = None,
    rhos: Sequence[float] = DEFAULT_RHO_GRID,
    families: Sequence[ReplicationFamily] = _FAMILIES,
) -> FigureData:
    """Model-only loss and wait curves vs. offered load (no simulation)."""
    if config is None:
        config = OverloadExperimentConfig()
    data = FigureData(
        figure_id="overload",
        title=f"M/G/1/K loss and conditional wait (K={config.capacity})",
        x_label="offered load rho",
        y_label="loss probability / normalized accepted-message wait",
        )
    for family in families:
        base = config.with_(family=family)
        losses, waits = [], []
        for rho in rhos:
            model = base.with_(rho=rho).model
            losses.append(model.loss_probability)
            waits.append(model.normalized_mean_wait)
        data.add(f"loss[{family.value}]", rhos, losses)
        data.add(f"wait/E[B][{family.value}]", rhos, waits)
    data.note(
        "conditional wait of accepted messages saturates near (K-1)*E[B]; "
        "the loss probability absorbs the overload (compare Fig. 10, where "
        "the infinite-buffer wait diverges at rho=1)"
    )
    return data


def validate_overload(
    rhos: Sequence[float],
    config: Optional[OverloadExperimentConfig] = None,
    families: Sequence[ReplicationFamily] = _FAMILIES,
) -> List[OverloadRunResult]:
    """Cross-validate the M/G/1/K model against the overload simulation:
    one run per (family, ρ) cell, each carrying both sides, their
    relative errors and the server's closed ledger."""
    if config is None:
        config = OverloadExperimentConfig()
    return [
        run_overload_experiment(config.with_(family=family, rho=rho))
        for family in families
        for rho in rhos
    ]


def format_validation(rows: Sequence[OverloadRunResult]) -> str:
    """Fixed-width table of the cross-validation runs."""
    lines = [
        f"{'family':<17s} {'rho':>5s} {'loss sim':>9s} {'loss model':>10s} "
        f"{'err':>6s} {'wait sim':>10s} {'wait model':>10s} {'err':>6s} {'maxN':>4s}"
    ]
    for row in rows:
        lines.append(
            f"{row.config.family.value:<17s} {row.config.rho:>5.2f} {row.loss_sim:>9.4f} "
            f"{row.loss_model:>10.4f} {row.loss_rel_err:>6.1%} "
            f"{row.mean_wait_sim:>10.6f} {row.mean_wait_model:>10.6f} "
            f"{row.wait_rel_err:>6.1%} {row.max_system_size:>4d}"
        )
    return "\n".join(lines)
