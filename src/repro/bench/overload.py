"""The overload-control baseline (``BENCH_overload.json``).

Sweeps the bounded-buffer overload simulation across offered loads
ρ ∈ [0.5, 1.5] for all three replication-grade families and records the
measured loss probability, conditional mean wait of accepted messages
and effective throughput next to the M/G/1/K model's predictions.  At
the validation loads ρ ∈ {0.7, 0.9, 0.95} the runs use 80 000 offered
messages so the relative errors land well inside the 5 % acceptance
band; the remaining grid points use shorter runs and are recorded for
the shape of the curve, not the error bound.  A separate ρ = 1.3
``drop-new`` record demonstrates bounded degradation: occupancy capped
at K, finite accepted-message wait, loss absorbing the excess load.

Everything is seeded and in virtual time, so the recording is
reproducible to the byte.  The gate: every validation cell within 5 %,
occupancy bounded by K, and every run's ledger balanced.
"""

from __future__ import annotations

from typing import Any, Dict

#: Loads where the 5 % model-vs-simulation bound is asserted (long runs).
VALIDATION_RHOS = (0.7, 0.9, 0.95)
#: The rest of the recorded sweep (short runs, curve shape only).
SWEEP_RHOS = (0.5, 0.8, 1.0, 1.1, 1.3, 1.5)

SEED = 1
VALIDATION_MESSAGES = 80000
SWEEP_MESSAGES = 15000


def record(fast: bool) -> Dict[str, Any]:
    """One size only: ``fast`` records the same 28 runs."""
    from ..core.service_time import ReplicationFamily
    from ..overload.experiment import OverloadExperimentConfig, run_overload_experiment

    config = OverloadExperimentConfig(seed=SEED, capacity=5)
    sweep = {}
    validation = {}
    conserved = True
    for family in ReplicationFamily:
        rows = []
        for rho in sorted(VALIDATION_RHOS + SWEEP_RHOS):
            messages = (
                VALIDATION_MESSAGES if rho in VALIDATION_RHOS else SWEEP_MESSAGES
            )
            result = run_overload_experiment(
                config.with_(family=family, rho=rho, messages=messages)
            )
            conserved = conserved and result.conserved
            row = {"rho": rho, "messages": messages, **result.to_metrics()}
            row["loss_rel_err"] = result.loss_rel_err
            row["wait_rel_err"] = result.wait_rel_err
            row["throughput_rel_err"] = result.throughput_rel_err
            rows.append(row)
            if rho in VALIDATION_RHOS:
                validation[f"{family.value}@{rho:g}"] = {
                    "loss_rel_err": result.loss_rel_err,
                    "wait_rel_err": result.wait_rel_err,
                    "within_5pct": max(result.loss_rel_err, result.wait_rel_err) < 0.05,
                }
        sweep[family.value] = rows
    overload_run = run_overload_experiment(
        config.with_(family=ReplicationFamily.BINOMIAL, rho=1.3, messages=SWEEP_MESSAGES)
    )
    occupancy_bounded = overload_run.max_system_size <= overload_run.config.capacity
    acceptance = {
        "validation_within_5pct": all(cell["within_5pct"] for cell in validation.values()),
        "occupancy_bounded": occupancy_bounded,
        "ledgers_conserved": conserved and overload_run.conserved,
    }
    acceptance["pass"] = all(acceptance.values())
    return {
        "description": (
            "Overload-control baseline: bounded ingress (K=5, drop-new), "
            "open-loop Poisson offered load rho in [0.5, 1.5], replication "
            "grades sampled per message (n_fltr=8, E[R]=4), seed 1.  "
            "Simulated loss / conditional wait / throughput vs. the exact "
            "M/G/1/K model; 80k-message runs at the validation loads."
        ),
        "config": {
            "seed": SEED,
            "capacity": config.capacity,
            "policy": config.policy.value,
            "n_fltr": config.n_fltr,
            "mean_replication": config.mean_replication,
            "cpu_scale": config.cpu_scale,
            "validation_messages": VALIDATION_MESSAGES,
            "sweep_messages": SWEEP_MESSAGES,
        },
        "sweep": sweep,
        "validation": validation,
        "bounded_degradation": {
            "rho": 1.3,
            "policy": "drop-new",
            "max_system_size": overload_run.max_system_size,
            "capacity": overload_run.config.capacity,
            "occupancy_bounded": occupancy_bounded,
            "mean_wait_accepted": overload_run.mean_wait_sim,
            "loss_probability": overload_run.loss_sim,
            "health_at_end": overload_run.health_at_end,
            "conserved": overload_run.conserved,
        },
        "acceptance": acceptance,
    }


def report(payload: Dict[str, Any]) -> str:
    worst = max(
        max(cell["loss_rel_err"], cell["wait_rel_err"])
        for cell in payload["validation"].values()
    )
    degradation = payload["bounded_degradation"]
    return (
        f"validation: worst rel err {worst:.2%}\n"
        f"rho=1.3 drop-new: maxN={degradation['max_system_size']} "
        f"(K={degradation['capacity']}), loss={degradation['loss_probability']:.3f}, "
        f"wait={degradation['mean_wait_accepted'] * 1e3:.2f} ms, "
        f"health={degradation['health_at_end']}"
    )
