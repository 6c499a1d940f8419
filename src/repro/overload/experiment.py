"""Discrete-event overload experiments cross-validating the M/G/1/K model.

Each run drives the simulated JMS server with open-loop Poisson arrivals
at a target *offered* load ρ = λ·E[B] — including ρ ≥ 1, where the
M/G/1-∞ analysis of the paper diverges — against a bounded ingress
buffer with a drop policy.  The per-message replication grade is sampled
from one of the replication-grade distributions (Eqs. 11–18) through a
:class:`~repro.testbed.scenario.ReplicationScenario`, so the simulated
service times have exactly the discrete support the analytical
:class:`~repro.overload.mg1k.MG1KQueue` assumes.  The run result carries
both the measured and the predicted loss probability, conditional mean
wait of accepted messages and effective throughput, plus their relative
errors — the cross-validation numbers recorded in ``BENCH_overload.json``.

The server's closed ledger (:data:`repro.testbed.simserver.INGRESS_FATES`)
must balance in every run, and beside it the generator's own population:
every offered message was accepted or refused admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from ..broker.queues import DropPolicy
from ..core.params import FilterType, costs_for
from ..core.moments import relative_error
from ..core.replication import ReplicationModel
from ..core.service_time import ReplicationFamily, ServiceTimeModel
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow, RunMetrics
from ..testbed.scenario import build_replication_scenario, replication_service_model
from ..testbed.simserver import IngressLedger, SimulatedJMSServer
from .health import HealthThresholds
from .mg1k import MG1KQueue
from .policy import OverloadConfig

__all__ = [
    "OverloadExperimentConfig",
    "OverloadRunResult",
    "run_overload_experiment",
    "sweep_overload",
]


@dataclass(frozen=True)
class OverloadExperimentConfig:
    """One overload run.

    Parameters
    ----------
    rho:
        Target offered load λ·E[B]; unlike the fault experiments it may
        be ≥ 1 — that is the regime this package exists for.
    messages:
        Offered messages (count-based horizon; the engine then drains).
    capacity:
        ``K`` — system capacity (in service + waiting), the M/G/1/K ``K``.
    policy:
        Overflow policy of the bounded ingress buffer.  The analytical
        cross-validation holds for ``DROP_NEW`` (the M/G/1/K tail-drop
        discipline); the other policies share its loss *count* but
        redistribute which messages pay it.
    family:
        Replication-grade distribution family (Eqs. 11–18).
    n_fltr:
        The family's filter-count parameter ``n`` (ignored by the
        deterministic family).
    mean_replication:
        Target ``E[R]``; must be reachable by the family.
    ttl:
        Relative message time-to-live in virtual seconds (``None`` = no
        deadline); give ``DEADLINE_SHED`` runs a finite value.
    admission_soft / admission_hard:
        Watermarks of the admission controller; soft ``None`` disables
        rejection so the full offered load reaches the buffer (required
        for the model cross-validation).
    warmup_fraction:
        Fraction of the nominal horizon excluded from the waiting-time
        statistics (start-up transient of the loss queue).
    """

    seed: int = 0
    messages: int = 20000
    rho: float = 0.9
    capacity: int = 5
    policy: DropPolicy = DropPolicy.DROP_NEW
    family: ReplicationFamily = ReplicationFamily.BINOMIAL
    filter_type: FilterType = FilterType.CORRELATION_ID
    n_fltr: int = 8
    mean_replication: float = 4.0
    cpu_scale: float = 100.0
    ttl: Optional[float] = None
    admission_soft: Optional[float] = None
    admission_hard: float = 1.5
    health: HealthThresholds = field(default_factory=HealthThresholds)
    warmup_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if self.policy is DropPolicy.BLOCK:
            raise ValueError("overload experiments need a drop policy, not BLOCK")
        if self.cpu_scale <= 0:
            raise ValueError(f"cpu_scale must be positive, got {self.cpu_scale}")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")

    # ------------------------------------------------------------------
    @property
    def replication_model(self) -> ReplicationModel:
        return self.family.model(self.n_fltr, self.mean_replication)

    @property
    def service_model(self) -> ServiceTimeModel:
        return replication_service_model(
            self.replication_model, self.filter_type, self.cpu_scale
        )

    @property
    def arrival_rate(self) -> float:
        """λ hitting the target offered load (Eq. 6, allowed to exceed 1/E[B])."""
        return self.rho / self.service_model.mean

    @property
    def model(self) -> MG1KQueue:
        """The analytical M/G/1/K prediction for this configuration."""
        return MG1KQueue.from_service_model(
            self.arrival_rate, self.service_model, self.capacity
        )

    def overload_config(self) -> OverloadConfig:
        return OverloadConfig(
            capacity=self.capacity,
            policy=self.policy,
            admission_soft=self.admission_soft,
            admission_hard=self.admission_hard,
            health=self.health,
        )

    def with_(self, **changes) -> "OverloadExperimentConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class OverloadRunResult(RunMetrics):
    """Ledger, measurements and model comparison of one overload run."""

    NOT_METRICS = ("config", "ledger", "health_at_end")

    config: OverloadExperimentConfig
    #: The server's books, closed at the end of the run.
    ledger: IngressLedger
    # -- ledger ---------------------------------------------------------
    offered: int
    accepted: int
    admission_rejected: int
    dropped_new: int
    dropped_oldest: int
    deadline_shed: int
    served: int
    delivered: int
    expired: int
    backlog_at_end: int
    # -- measurements ---------------------------------------------------
    max_system_size: int
    mean_wait_sim: float
    loss_sim: float
    throughput_sim: float
    utilization_sim: float
    health_at_end: str
    health_transitions: int
    end_time: float
    # -- model ----------------------------------------------------------
    loss_model: float
    mean_wait_model: float
    throughput_model: float
    utilization_model: float

    @property
    def every_offer_answered(self) -> bool:
        """The *generator's* population, not the server's: each offered
        message was accepted or refused admission."""
        return self.offered == self.accepted + self.admission_rejected

    @property
    def conserved(self) -> bool:
        """Do the server's ledger and, beside it, the generator's balance?"""
        return self.ledger.conserved and self.every_offer_answered

    @property
    def loss_rel_err(self) -> float:
        """Relative error of the simulated vs. predicted loss probability."""
        return relative_error(self.loss_sim, self.loss_model)

    @property
    def wait_rel_err(self) -> float:
        """Relative error of the accepted-message mean wait."""
        return relative_error(self.mean_wait_sim, self.mean_wait_model)

    @property
    def throughput_rel_err(self) -> float:
        return relative_error(self.throughput_sim, self.throughput_model)


def run_overload_experiment(
    config: Optional[OverloadExperimentConfig] = None,
) -> OverloadRunResult:
    """Run one overload experiment and compare it with the M/G/1/K model."""
    if config is None:
        config = OverloadExperimentConfig()
    engine = Engine()
    streams = RandomStreams(seed=config.seed)
    replication = config.replication_model
    scenario = build_replication_scenario(replication, filter_type=config.filter_type)
    cpu = CpuCostModel(costs=costs_for(config.filter_type).scaled(config.cpu_scale))
    arrival_rate = config.arrival_rate
    horizon = config.messages / arrival_rate
    window = MeasurementWindow(start=config.warmup_fraction * horizon, end=10 * horizon)
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=window,
        overload=config.overload_config(),
    )
    arrivals = streams.stream("arrivals")
    grades = streams.stream("grades")
    state = {"generated": 0, "max_system": 0}

    def generate() -> None:
        state["generated"] += 1
        grade = int(replication.sample(grades))
        message = scenario.make_message(grade)
        if config.ttl is not None:
            message.expiration = engine.now + config.ttl
        server.submit(message)
        # System size peaks right after an arrival, so sampling here
        # captures the maximum occupancy exactly.
        state["max_system"] = max(state["max_system"], server.system_size)
        if state["generated"] < config.messages:
            engine.call_in(float(arrivals.exponential(1.0 / arrival_rate)), generate)

    engine.call_in(float(arrivals.exponential(1.0 / arrival_rate)), generate)
    engine.run()  # to event exhaustion: the backlog drains completely
    model = config.model
    ledger = server.closed_ledger()
    accepted = ledger.accepted
    shed = ledger.dropped_new + ledger.dropped_oldest + ledger.deadline_shed
    loss_sim = shed / accepted if accepted else 0.0
    # Effective throughput over the arrival horizon (drain time excluded:
    # the model's λ_eff is a steady-state rate under ongoing arrivals).
    throughput_sim = (accepted - shed) / horizon if horizon > 0 else 0.0
    return OverloadRunResult(
        config=config,
        ledger=ledger,
        offered=state["generated"],
        accepted=accepted,
        admission_rejected=ledger.admission_rejected,
        dropped_new=ledger.dropped_new,
        dropped_oldest=ledger.dropped_oldest,
        deadline_shed=ledger.deadline_shed,
        served=ledger.completed,
        delivered=ledger.delivered,
        expired=ledger.expired,
        backlog_at_end=ledger.backlog,
        max_system_size=state["max_system"],
        mean_wait_sim=server.waiting_times.mean(),
        loss_sim=loss_sim,
        throughput_sim=throughput_sim,
        utilization_sim=server.utilization(engine.now),
        health_at_end=server.health_state.value,
        health_transitions=server.health.transitions if server.health else 0,
        end_time=engine.now,
        loss_model=model.loss_probability,
        mean_wait_model=model.mean_wait,
        throughput_model=model.effective_throughput,
        utilization_model=model.utilization,
    )


def sweep_overload(
    rhos: Sequence[float],
    config: Optional[OverloadExperimentConfig] = None,
) -> List[OverloadRunResult]:
    """Run the experiment across offered loads (the ρ-sweep of the bench)."""
    if config is None:
        config = OverloadExperimentConfig()
    return [run_overload_experiment(config.with_(rho=rho)) for rho in rhos]
