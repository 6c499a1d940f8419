"""Tests for the arrival-sensitivity study and the reproduction report."""

import numpy as np
import pytest

from repro.analysis import (
    arrival_sensitivity_study,
    balanced_h2,
    format_report,
    reproduction_report,
)
from repro.core import MG1Queue, Moments
from repro.simulation import Erlang, Exponential, simulate_gg1


class TestBalancedH2:
    @pytest.mark.parametrize("scv", [1.5, 2.0, 4.0, 10.0])
    def test_mean_and_scv(self, scv):
        h2 = balanced_h2(rate=2.0, scv=scv)
        assert h2.mean == pytest.approx(0.5, rel=1e-9)
        assert h2.cvar**2 == pytest.approx(scv, rel=1e-9)

    def test_requires_scv_above_one(self):
        with pytest.raises(ValueError):
            balanced_h2(rate=1.0, scv=1.0)


class TestSimulateGG1:
    def test_poisson_interarrivals_reduce_to_mg1(self):
        """GI/G/1 with exponential interarrivals is the paper's M/G/1.

        One run's mean has a standard deviation of 4.6 %; the mean of 32
        independent runs (0.8 %) holds the 8 % tolerance to the model.
        """
        service = Exponential(rate=1.0)
        waits = [
            simulate_gg1(
                interarrival=Exponential(rate=0.7),
                service=service,
                rng=np.random.default_rng(child),
                horizon=50_000.0,
            ).mean_wait
            for child in np.random.SeedSequence(5).spawn(32)
        ]
        exact = MG1Queue(0.7, Moments(1.0, 2.0, 6.0)).mean_wait
        assert np.mean(waits) == pytest.approx(exact, rel=0.08)

    def test_smoother_arrivals_wait_less(self):
        service = Exponential(rate=1.0)
        poisson = simulate_gg1(
            Exponential(rate=0.8), service, np.random.default_rng(1), 30_000.0
        )
        erlang = simulate_gg1(
            Erlang(k=4, rate=3.2), service, np.random.default_rng(1), 30_000.0
        )
        assert erlang.mean_wait < poisson.mean_wait

    def test_burstier_arrivals_wait_more(self):
        service = Exponential(rate=1.0)
        poisson = simulate_gg1(
            Exponential(rate=0.8), service, np.random.default_rng(2), 30_000.0
        )
        bursty = simulate_gg1(
            balanced_h2(rate=0.8, scv=4.0), service, np.random.default_rng(2), 30_000.0
        )
        assert bursty.mean_wait > poisson.mean_wait

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_gg1(
                Exponential(1.0), Exponential(1.0), np.random.default_rng(0), 0.0
            )


class TestSensitivityStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return arrival_sensitivity_study(rho=0.8, cvar_b=0.2, horizon_services=60_000)

    def test_ordering_smooth_poisson_bursty(self, rows):
        waits = [r.simulated_normalized_wait for r in rows]
        assert waits[0] < waits[1] < waits[2]

    def test_poisson_case_matches_paper_model(self, rows):
        poisson = rows[1]
        assert poisson.simulated_normalized_wait == pytest.approx(
            poisson.poisson_normalized_wait, rel=0.10
        )
        assert poisson.vs_poisson == pytest.approx(1.0, abs=0.10)

    def test_kingman_tracks_simulation_directionally(self, rows):
        for row in rows:
            assert (row.kingman_normalized_wait > row.poisson_normalized_wait) == (
                row.arrival_scv > 1.0
            ) or row.arrival_scv == 1.0

    def test_bursty_arrivals_break_poisson_prediction(self, rows):
        """The study's point: burstiness multiplies the paper's waits."""
        assert rows[2].vs_poisson > 2.0


class TestReproductionReport:
    @pytest.fixture(scope="class")
    def checks(self):
        return reproduction_report(include_measurements=False)

    def test_all_analytic_claims_pass(self, checks):
        failed = [c.claim_id for c in checks if not c.passed]
        assert failed == []

    def test_covers_major_claims(self, checks):
        ids = {c.claim_id for c in checks}
        assert {"eq3-corr-1", "fig6-equiv-10", "fig8-max", "fig12-50eb",
                "fig15-psr-m1e4"} <= ids

    def test_format_report(self, checks):
        text = format_report(checks)
        assert "claims reproduced" in text
        assert "PASS" in text
