"""End-to-end overload experiments: conservation, determinism, validation."""

import pytest

from repro.broker.queues import DropPolicy
from repro.core.service_time import ReplicationFamily
from repro.overload.experiment import (
    OverloadExperimentConfig,
    run_overload_experiment,
    sweep_overload,
)

FAST = OverloadExperimentConfig(seed=1, messages=3000, rho=0.9, capacity=5)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"messages": 0},
            {"rho": 0.0},
            {"capacity": 1},
            {"policy": DropPolicy.BLOCK},
            {"ttl": 0.0},
            {"warmup_fraction": 1.0},
            {"mean_replication": 20.0},  # unreachable with n_fltr=8
            {"family": ReplicationFamily.DETERMINISTIC, "mean_replication": 3.5},
        ],
    )
    def test_invalid_rejected(self, changes):
        with pytest.raises(ValueError):
            config = FAST.with_(**changes)
            config.replication_model  # family errors surface lazily

    def test_arrival_rate_hits_offered_load(self):
        config = FAST.with_(rho=1.3)
        assert config.arrival_rate * config.service_model.mean == pytest.approx(1.3)


class TestLedger:
    @pytest.mark.parametrize(
        "policy", [DropPolicy.DROP_NEW, DropPolicy.DROP_OLDEST]
    )
    def test_conserved_across_policies(self, assert_conserved, policy):
        result = run_overload_experiment(FAST.with_(policy=policy, rho=1.1))
        assert_conserved(result)
        assert result.offered == FAST.messages
        assert result.backlog_at_end == 0  # the engine drains to exhaustion
        assert result.served == result.delivered + result.expired

    def test_deadline_shed_with_ttl_conserved(self, assert_conserved):
        # TTL of ~3 service times: a full K=5 backlog makes tail deadlines
        # unmeetable, so the deadline policy actually engages.
        result = run_overload_experiment(
            FAST.with_(policy=DropPolicy.DEADLINE_SHED, rho=1.3, ttl=0.1)
        )
        assert_conserved(result)
        assert result.deadline_shed > 0

    def test_admission_rejections_enter_the_ledger(self, assert_conserved):
        result = run_overload_experiment(
            FAST.with_(rho=1.4, admission_soft=0.8, admission_hard=1.1)
        )
        assert result.admission_rejected > 0
        assert_conserved(result)
        assert result.health_transitions > 0


class TestDeterminism:
    def test_identical_seed_bit_identical(self):
        first = run_overload_experiment(FAST)
        second = run_overload_experiment(FAST)
        assert first.to_metrics() == second.to_metrics()

    def test_different_seed_differs(self):
        first = run_overload_experiment(FAST)
        second = run_overload_experiment(FAST.with_(seed=2))
        assert first.to_metrics() != second.to_metrics()


class TestBoundedDegradation:
    def test_rho_13_drop_new_occupancy_bounded_and_wait_finite(self):
        """The headline robustness claim: 30% overload degrades gracefully."""
        config = FAST.with_(rho=1.3, messages=6000)
        result = run_overload_experiment(config)
        # Occupancy never exceeds K even though the offered load is 1.3.
        assert result.max_system_size == config.capacity
        # The accepted messages see a finite, buffer-bounded wait.
        assert 0.0 < result.mean_wait_sim
        assert result.mean_wait_sim <= (
            (config.capacity - 1) * config.service_model.mean * 1.1
        )
        # Loss absorbs the excess load, in model-predicted proportion.
        assert result.loss_sim == pytest.approx(result.loss_model, rel=0.10)
        assert result.conserved
        # Sustained overload drives the health FSM into shedding.
        assert result.health_at_end == "shedding"


class TestModelValidation:
    def test_binomial_rho09_within_5pct(self):
        """One live model-vs-simulation cell inside the acceptance band.

        The full three-family sweep at 80k messages lives in
        BENCH_overload.json (``repro bench overload``); this is the
        fast in-suite sentinel.
        """
        result = run_overload_experiment(FAST.with_(messages=20000))
        assert result.loss_rel_err < 0.05
        assert result.wait_rel_err < 0.05
        assert result.throughput_rel_err < 0.05

    def test_sweep_covers_requested_loads(self):
        results = sweep_overload((0.7, 1.1), FAST.with_(messages=1500))
        assert [r.config.rho for r in results] == [0.7, 1.1]
        assert all(r.conserved for r in results)
        # Loss grows with offered load.
        assert results[0].loss_sim < results[1].loss_sim
