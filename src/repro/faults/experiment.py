"""End-to-end fault-injection experiments.

:func:`run_fault_experiment` wires the full resilient stack — durable
scenario, simulated server, retrying Poisson publisher, fault injector —
runs it for a horizon of virtual time, lets the retry loop drain, and
returns a :class:`FaultRunResult` carrying the server's closed ledger
(:data:`repro.testbed.simserver.INGRESS_FATES`), which must balance —
with ``lost == 0`` whenever every message is persistent (the delivery
guarantee the acceptance tests assert).  Alongside the measured metrics
the result carries the fault-free Pollaczek–Khinchine baseline and the
fluid-model outage prediction of :mod:`repro.faults.availability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.mg1 import MG1Queue
from ..core.params import FilterType, costs_for
from ..core.replication import DeterministicReplication
from ..core.service_time import ServiceTimeModel
from ..broker.message import DeliveryMode, Message
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow, RunMetrics
from ..testbed.scenario import build_filter_scenario
from ..testbed.simserver import IngressLedger, SimulatedJMSServer
from .availability import OutageImpact, outage_impact
from .clients import RetryingPoissonPublisher
from .injector import FaultInjector
from .retry import RetryPolicy
from .schedule import FaultSchedule

__all__ = ["FaultExperimentConfig", "FaultRunResult", "run_fault_experiment"]


@dataclass(frozen=True)
class FaultExperimentConfig:
    """One fault-injection run.

    The workload is the paper's filter scenario (``R`` matching plus ``n``
    non-matching subscribers, all durable) under open-loop Poisson load at
    a target fault-free utilization.  ``cpu_scale`` inflates the Table I
    costs so short virtual horizons still see thousands of messages served
    at realistic utilizations.
    """

    seed: int = 0
    horizon: float = 60.0
    utilization: float = 0.7
    filter_type: FilterType = FilterType.CORRELATION_ID
    replication_grade: int = 4
    n_additional: int = 16
    cpu_scale: float = 100.0
    buffer_capacity: int = 256
    max_redeliveries: int = 3
    persistent: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 < self.utilization < 1:
            raise ValueError(f"utilization must be in (0, 1), got {self.utilization}")
        if self.cpu_scale <= 0:
            raise ValueError(f"cpu_scale must be positive, got {self.cpu_scale}")

    @property
    def service_model(self) -> ServiceTimeModel:
        """The (deterministic-replication) service-time model of the run."""
        return ServiceTimeModel(
            costs_for(self.filter_type).scaled(self.cpu_scale),
            n_fltr=self.replication_grade + self.n_additional,
            replication=DeterministicReplication(self.replication_grade),
        )

    @property
    def arrival_rate(self) -> float:
        """λ hitting the target fault-free utilization (Eq. 6)."""
        return self.utilization / self.service_model.mean

    def with_(self, **changes) -> "FaultExperimentConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class FaultRunResult(RunMetrics):
    """Ledger, metrics and model predictions of one fault run."""

    NOT_METRICS = ("config", "ledger", "impact")

    config: FaultExperimentConfig
    #: The server's books, closed at the end of the run.
    ledger: IngressLedger
    # -- publisher-side ledger -----------------------------------------
    generated: int
    publisher_accepted: int
    retries: int
    timeouts: int
    abandoned: int
    rejected_submits: int
    # -- server-side ledger --------------------------------------------
    accepted: int
    delivered: int
    expired: int
    redelivered: int
    lost: int
    dropped_by_fault: int
    corrupted: int
    dead_lettered: int
    backlog_at_end: int
    crashes: int
    # -- measured metrics ----------------------------------------------
    mean_wait: float
    wait_p99: float
    mean_accept_latency: float
    mean_service_time: float
    server_utilization: float
    received_rate: float
    end_time: float
    # -- model predictions ---------------------------------------------
    impact: OutageImpact

    @property
    def mean_total_wait(self) -> float:
        """End-to-end mean wait: retry-loop latency plus queueing wait.

        This is the quantity the fluid model of
        :mod:`repro.faults.availability` predicts — during an outage the
        wait is spent in the client's backoff loop, which the server's
        ingress-queue clock cannot see.
        """
        return self.mean_accept_latency + self.mean_wait

    @property
    def conserved(self) -> bool:
        """Does the server-side ledger balance?"""
        return self.ledger.conserved

    @property
    def no_persistent_loss(self) -> bool:
        """The acceptance-test invariant: nothing lost, nothing left over."""
        return self.lost == 0 and self.backlog_at_end == 0 and self.conserved


def run_fault_experiment(
    schedule: FaultSchedule,
    config: Optional[FaultExperimentConfig] = None,
    drain: bool = True,
) -> FaultRunResult:
    """Run one fault-injection experiment.

    The publisher generates new messages until ``config.horizon``; with
    ``drain`` the engine then runs to event exhaustion so every retry loop
    either lands its message or abandons it.  The server's ledger
    balances either way: without ``drain`` the message on the CPU at the
    horizon is its ``in_service`` gauge.
    """
    if config is None:
        config = FaultExperimentConfig()
    engine = Engine()
    streams = RandomStreams(seed=config.seed)
    scenario = build_filter_scenario(
        filter_type=config.filter_type,
        replication_grade=config.replication_grade,
        n_additional=config.n_additional,
        durable=True,
    )
    cpu = CpuCostModel(costs=costs_for(config.filter_type).scaled(config.cpu_scale))
    window = MeasurementWindow(start=0.0, end=config.horizon)
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=window,
        buffer_capacity=config.buffer_capacity,
    )
    delivery_mode = (
        DeliveryMode.PERSISTENT if config.persistent else DeliveryMode.NON_PERSISTENT
    )

    def message_factory() -> Message:
        message = scenario.make_message()
        message.delivery_mode = delivery_mode
        return message

    publisher = RetryingPoissonPublisher(
        engine=engine,
        server=server,
        rate=config.arrival_rate,
        message_factory=message_factory,
        rng=streams.stream("arrivals"),
        retry_rng=streams.stream("retry-jitter"),
        policy=config.retry,
        stop_time=config.horizon,
    )
    injector = FaultInjector(engine=engine, server=server, schedule=schedule)
    injector.arm()
    publisher.start()
    engine.run(until=config.horizon)
    if drain:
        engine.run()
    if not server.up:  # drain disabled mid-outage: bring state up anyway
        server.restart()
    ledger = server.closed_ledger()
    impact = outage_impact(
        arrival_rate=config.arrival_rate,
        service=config.service_model.moments,
        schedule=schedule,
        horizon=config.horizon,
    )
    return FaultRunResult(
        config=config,
        ledger=ledger,
        generated=publisher.generated,
        publisher_accepted=publisher.accepted,
        retries=publisher.retries,
        timeouts=publisher.timeouts,
        abandoned=publisher.abandoned,
        rejected_submits=ledger.rejected_submits,
        accepted=ledger.accepted,
        delivered=ledger.delivered,
        expired=ledger.expired,
        redelivered=ledger.served_again,
        lost=ledger.lost_on_crash,
        dropped_by_fault=ledger.dropped_by_fault,
        corrupted=ledger.corrupted,
        dead_lettered=server.broker.stats.dead_lettered,
        backlog_at_end=ledger.backlog,
        crashes=ledger.crashes,
        mean_wait=server.waiting_times.mean(),
        wait_p99=server.waiting_times.quantile(0.99),
        mean_accept_latency=publisher.mean_accept_latency,
        mean_service_time=server.service_times.mean(),
        server_utilization=server.utilization(engine.now),
        received_rate=server.received.rate(),
        end_time=engine.now,
        impact=impact,
    )
