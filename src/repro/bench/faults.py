"""The fault-injection robustness baseline (``BENCH_faults.json``).

Runs the canonical outage schedule — one 5 s crash a third of the way
into a 60 s run at ρ = 0.7, seed 0 — plus the fault-free control, and
records throughput, waiting-time and ledger numbers.  The runs are fully
deterministic in virtual time, so a re-recording that differs from the
committed file by one byte is a robustness regression.  The gate is the
``invariants`` block: neither run may lose a persistent message.
"""

from __future__ import annotations

from typing import Any, Dict


def record(fast: bool) -> Dict[str, Any]:
    """One size only: ``fast`` records the same two 60 s runs."""
    from ..faults import FaultExperimentConfig, FaultSchedule, run_fault_experiment

    config = FaultExperimentConfig(seed=0, horizon=60.0, utilization=0.7)
    baseline = run_fault_experiment(FaultSchedule.none(), config)
    outage = run_fault_experiment(
        FaultSchedule.single_outage(at=20.0, duration=5.0), config
    )
    invariants = {
        "fault_free_conserved": baseline.no_persistent_loss,
        "single_outage_conserved": outage.no_persistent_loss,
    }
    return {
        "description": (
            "Canonical fault-injection baseline: 60s run at rho=0.7 (seed 0), "
            "one 5s server crash at t=20s, retrying persistent publishers, "
            "durable subscriptions, max_redeliveries=3."
        ),
        "config": {
            "seed": config.seed,
            "horizon": config.horizon,
            "utilization": config.utilization,
            "replication_grade": config.replication_grade,
            "n_additional": config.n_additional,
            "cpu_scale": config.cpu_scale,
            "max_redeliveries": config.max_redeliveries,
        },
        "fault_free": baseline.to_metrics(),
        "single_outage": outage.to_metrics(),
        "fluid_model": {
            "availability": outage.impact.availability,
            "base_mean_wait": outage.impact.base_mean_wait,
            "extra_mean_wait": outage.impact.extra_mean_wait,
            "predicted_mean_wait": outage.impact.mean_wait,
            "peak_backlog": outage.impact.peak_backlog,
        },
        "invariants": invariants,
        "acceptance": {"pass": all(invariants.values())},
    }


def report(payload: Dict[str, Any]) -> str:
    single = payload["single_outage"]
    return (
        f"single outage: wait {single['mean_wait'] * 1e3:.2f} ms (p99 "
        f"{single['wait_p99'] * 1e3:.2f} ms), rate {single['received_rate']:.1f}/s, "
        f"lost {single['lost']:.0f}"
    )
