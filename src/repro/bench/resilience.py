"""The resilience baseline (``BENCH_resilience.json``).

Two deterministic measurements:

* **Retry-amplification validation** — the fixed-point model's λ_eff
  (:mod:`repro.core.resilience`) against the DES retry cells
  (:mod:`repro.resilience.experiment`), budgeted and unbudgeted, at
  ρ in {0.9 .. 1.3}: every cell must agree to the 5% acceptance bar and
  every attempt ledger must balance.
* **Storm harness** — the metastable-retry-storm chaos run
  (:mod:`repro.resilience.harness`): after a 10x transient slowdown at
  ρ = 0.9 the unbudgeted control must stay stormed while the
  budgeted+deadline+hedged client recovers >= 95% of its pre-fault
  goodput; no deadline-expired message is delivered, hedging never
  double-delivers, and both server ledgers must balance.
"""

from __future__ import annotations

from typing import Any, Dict

MODEL_TOLERANCE = 0.05


def _cell_config(config: Any) -> Dict[str, Any]:
    return {
        "seed": config.seed,
        "messages": config.messages,
        "rho": config.rho,
        "capacity": config.capacity,
        "max_retries": config.max_retries,
        "budget_ratio": config.budget_ratio,
        "budget_min_rate": config.budget_min_rate,
    }


def record(fast: bool) -> Dict[str, Any]:
    from ..resilience.experiment import DEFAULT_CELLS, validate_amplification
    from ..resilience.harness import run_storm_harness

    cells = tuple(DEFAULT_CELLS)
    if fast:
        cells = tuple(cell.with_(messages=12000) for cell in cells[:3])
    results = validate_amplification(cells)
    worst_err = max(result.lambda_rel_err for result in results)
    conserved = all(result.conserved for result in results)
    storm = run_storm_harness()

    acceptance = {
        "model_within_tolerance": worst_err <= MODEL_TOLERANCE,
        "cell_ledgers_conserved": conserved,
        "control_stormed": storm.control_stormed,
        "protected_recovered": storm.protected_recovered,
        "exactly_once": storm.exactly_once,
        "no_dead_work_delivered": storm.no_dead_work_delivered,
        "server_ledgers_balanced": storm.ledgers_balanced,
    }
    acceptance["pass"] = all(acceptance.values())
    return {
        "description": (
            "Resilience baseline: retry-amplification fixed-point model "
            "vs the DES retry cells (budgeted and unbudgeted), plus the "
            "metastable-storm chaos harness (deadline propagation, retry "
            "budgets, hedging) at rho=0.9 under a 10x transient slowdown."
        ),
        "config": {
            "fast": fast,
            "model_tolerance": MODEL_TOLERANCE,
            "cells": len(results),
        },
        "cells": [
            {"config": _cell_config(result.config), **result.to_metrics()}
            for result in results
        ],
        "worst_model_rel_err": worst_err,
        "storm_harness": storm.to_metrics(),
        "acceptance": acceptance,
    }


def report(payload: Dict[str, Any]) -> str:
    lines = []
    for cell in payload["cells"]:
        config = cell["config"]
        lines.append(
            f"cell rho={config['rho']:.2f} K={config['capacity']} "
            f"r={config['max_retries']} "
            f"beta={config['budget_ratio'] or 0:g}: "
            f"model {cell['lambda_eff_model']:.2f} "
            f"sim {cell['lambda_eff_sim']:.2f} "
            f"({cell['lambda_rel_err']:.2%} err)"
        )
    lines.append(f"worst model error: {payload['worst_model_rel_err']:.2%}")
    harness = payload["storm_harness"]
    lines.append(
        f"storm harness: control recovery "
        f"{harness['control_recovery_ratio']:.2f}, protected recovery "
        f"{harness['protected_recovery_ratio']:.2f}"
    )
    return "\n".join(lines)
