#!/usr/bin/env python3
"""Waiting-time SLAs: quantiles, buffer sizing, and the 1-second rule.

Reproduces the engineering reasoning of Section IV-B.5: for a delay bound
to hold with probability 99.99%, the service time must satisfy
``Q_0.9999[W] ≈ 50·E[B] <= bound`` — and shows what that means for the
admissible load.  Every analytic number is cross-checked by discrete-event
simulation.

Run:  python examples/waiting_time_sla.py
"""

import numpy as np

from repro.analysis import service_model_for_cvar
from repro.core import CORRELATION_ID_COSTS, MG1Queue, ReplicationFamily
from repro.simulation import simulate_mg1
from repro.testbed import format_table


def quantile_table() -> None:
    print("=== Waiting-time quantiles across loads (c_var[B] = 0.2) ===")
    model = service_model_for_cvar(
        CORRELATION_ID_COSTS, 0.2, family=ReplicationFamily.BINOMIAL
    )
    rows = []
    for rho in (0.5, 0.7, 0.8, 0.9, 0.95):
        queue = MG1Queue.from_utilization(rho, model.moments)
        rows.append(
            [
                f"{rho:.2f}",
                f"{queue.normalized_mean_wait:.2f}",
                f"{queue.normalized_wait_quantile(0.99):.1f}",
                f"{queue.normalized_wait_quantile(0.9999):.1f}",
                f"{queue.buffer_for_quantile(0.9999):.0f}",
            ]
        )
    print(
        format_table(
            ["rho", "E[W]/E[B]", "Q99/E[B]", "Q99.99/E[B]", "buffer (msgs)"],
            rows,
        )
    )


def one_second_rule() -> None:
    print("\n=== The 1-second rule (Section IV-B.5) ===")
    quantile_factor = 50.0  # Q99.99 ~ 50 E[B] at rho = 0.9
    for bound in (1.0, 0.1, 0.01):
        max_service = bound / quantile_factor
        capacity = 0.9 / max_service
        print(
            f"  bound {bound * 1e3:6.0f} ms @99.99%: needs E[B] <= "
            f"{max_service * 1e3:6.2f} ms  =>  capacity only {capacity:8.0f} msgs/s"
        )
    print(
        "  conclusion: whenever the throughput is respectable, the waiting"
        " time is a non-issue — and vice versa."
    )


def simulation_cross_check() -> None:
    print("\n=== Simulation cross-check at rho = 0.9 ===")
    model = service_model_for_cvar(
        CORRELATION_ID_COSTS, 0.2, family=ReplicationFamily.BINOMIAL
    )
    queue = MG1Queue.from_utilization(0.9, model.moments)
    result = simulate_mg1(
        arrival_rate=0.9 / model.mean,
        service=model,
        rng=np.random.default_rng(2024),
        horizon=model.mean * 400_000,
    )
    rows = [
        ["mean wait / E[B]", f"{queue.normalized_mean_wait:.2f}",
         f"{result.mean_wait / model.mean:.2f}"],
        ["Q99 / E[B]", f"{queue.normalized_wait_quantile(0.99):.1f}",
         f"{result.wait_quantile_99 / model.mean:.1f}"],
        ["Q99.99 / E[B]", f"{queue.normalized_wait_quantile(0.9999):.1f}",
         f"{result.wait_quantile_9999 / model.mean:.1f}"],
        ["P(wait)", f"{queue.wait_probability:.3f}", f"{result.wait_probability:.3f}"],
    ]
    print(format_table(["quantity", "analytic", "simulated"], rows))
    print(f"  ({result.served} messages simulated)")


if __name__ == "__main__":
    quantile_table()
    one_second_rule()
    simulation_cross_check()
