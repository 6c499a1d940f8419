"""Figure 11 — complementary waiting-time distribution at rho = 0.9.

Prints P(W > t) on the normalized time axis for c_var[B] in {0, 0.2, 0.4},
computed for both replication families (their curves coincide — the
paper's two-moment argument), plus a discrete-event simulation
cross-check of the Gamma approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import figure11, service_model_for_cvar
from repro.core import CORRELATION_ID_COSTS, MG1Queue, ReplicationFamily
from repro.simulation import simulate_mg1

from conftest import banner, report


@pytest.fixture(scope="module")
def fig11():
    figure = figure11(normalized_times=np.arange(0.0, 61.0, 5.0))
    banner("Figure 11: P(W > t/E[B]) at rho=0.9")
    report(figure.format())
    return figure


@pytest.fixture(scope="module")
def simulation_check():
    """Simulate the c_var=0.4 scenario and compare quantiles."""
    model = service_model_for_cvar(
        CORRELATION_ID_COSTS, 0.4, family=ReplicationFamily.BINOMIAL
    )
    queue = MG1Queue.from_utilization(0.9, model.moments)
    result = simulate_mg1(
        arrival_rate=0.9 / model.mean,
        service=model,
        rng=np.random.default_rng(99),
        horizon=model.mean * 300_000,
    )
    report("\nGamma-approximation cross-check (c_var=0.4, rho=0.9):")
    report(
        f"  mean wait:   simulated {result.mean_wait / model.mean:8.2f} E[B]   "
        f"analytic {queue.normalized_mean_wait:8.2f} E[B]"
    )
    report(
        f"  99% quantile: simulated {result.wait_quantile_99 / model.mean:7.2f} E[B]   "
        f"analytic {queue.normalized_wait_quantile(0.99):7.2f} E[B]"
    )
    return result, queue, model


def test_fig11_curves_coincide_across_families(fig11):
    bern = next(s for s in fig11.series if "0.2 (Bernoulli)" in s.label)
    bino = next(s for s in fig11.series if "0.2 (binomial)" in s.label)
    assert np.allclose(bern.y, bino.y, atol=0.01)


def test_fig11_simulation_validates_gamma_fit(simulation_check):
    result, queue, model = simulation_check
    assert result.mean_wait == pytest.approx(queue.mean_wait, rel=0.10)
    assert result.wait_quantile_99 == pytest.approx(queue.wait_quantile(0.99), rel=0.10)


def test_bench_fig11(benchmark, fig11):
    benchmark(figure11, normalized_times=np.arange(0.0, 61.0, 5.0))
