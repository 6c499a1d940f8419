"""``to_metrics()`` is generated from the result dataclass fields; the key
sets recorded in ``BENCH_*.json`` are pinned here as literals, so adding a
field (or forgetting to exclude one) is a reviewed schema change."""

from dataclasses import dataclass, fields

import pytest

np = pytest.importorskip("numpy")

from repro.broker.ledger import Ledger
from repro.faults import FaultRunResult
from repro.overload.experiment import OverloadRunResult
from repro.resilience.experiment import ResilienceCellResult
from repro.resilience.harness import StormRunResult
from repro.simulation import RunMetrics

PINNED = {
    FaultRunResult: {
        "generated", "publisher_accepted", "retries", "timeouts", "abandoned",
        "rejected_submits", "accepted", "delivered", "expired", "redelivered", "lost",
        "dropped_by_fault", "corrupted", "dead_lettered", "backlog_at_end", "crashes",
        "mean_wait", "wait_p99", "mean_accept_latency", "mean_service_time",
        "server_utilization", "received_rate", "end_time",
    },
    OverloadRunResult: {
        "offered", "accepted", "admission_rejected", "dropped_new", "dropped_oldest",
        "deadline_shed", "served", "delivered", "expired", "backlog_at_end",
        "max_system_size", "mean_wait_sim", "loss_sim", "throughput_sim", "utilization_sim",
        "health_transitions", "end_time", "loss_model", "mean_wait_model",
        "throughput_model", "utilization_model",
    },
    ResilienceCellResult: {
        "generated", "attempts", "accepted", "rejected", "retries", "abandoned",
        "budget_denied", "served", "backlog_at_end", "lambda_fresh", "lambda_eff_sim",
        "loss_sim", "end_time", "lambda_eff_model", "loss_model", "amplification_model",
        "lambda_rel_err",
    },
    StormRunResult: {
        "pre_goodput", "during_goodput", "post_goodput", "pre_attempt_rate",
        "post_attempt_rate", "lambda_fresh", "recovery_ratio", "post_amplification",
        "generated", "attempts", "goodput_total", "late_retries", "loss_retries",
        "abandoned", "budget_denied", "hedges", "hedges_cancelled", "expired_in_flight",
        "hedge_duplicates_dropped", "expired_delivered", "double_deliveries",
        "ledger_balanced",
    },
}


@pytest.mark.parametrize("result_class", PINNED, ids=lambda cls: cls.__name__)
def test_metric_keys_are_the_recorded_schema(result_class):
    filled = result_class(**{f.name: 2 for f in fields(result_class)} | {"ledger": Ledger()})
    metrics = filled.to_metrics()
    assert set(metrics) == PINNED[result_class]
    assert all(type(value) is float for value in metrics.values())


def test_exclusion_is_declared_not_inferred_from_the_type():
    @dataclass(frozen=True)
    class Row(RunMetrics):
        NOT_METRICS = ("label", "protected")
        DERIVED_METRICS = ("double",)

        label: str
        protected: bool  # a bool that is left out
        balanced: bool  # a bool that is kept
        count: int

        @property
        def double(self) -> int:
            return 2 * self.count

    assert Row("x", True, True, 3).to_metrics() == {"balanced": 1.0, "count": 3.0, "double": 6.0}
