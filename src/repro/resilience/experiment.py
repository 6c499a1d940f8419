"""DES validation of the retry-amplification fixed-point model.

Each cell drives the simulated JMS server with a
:class:`~repro.resilience.clients.DeadlineRetryPublisher` — open-loop
Poisson fresh arrivals at offered load ρ, every shed attempt retried up
to ``max_retries`` times, optionally through a
:class:`~repro.resilience.budget.RetryBudget` — and measures the
steady-state effective attempt rate λ_eff.  The analytical prediction is
the lowest stable fixed point of the retry map
(:meth:`repro.core.resilience.RetryAmplificationModel.solve`), built on
the same exact M/G/1/K loss model the overload package validated.  The
acceptance bar is a worst-cell relative error of ≤ 5 %.

The validation cells are *loss-driven* (retries triggered by tail
drops): the loss channel is exact M/G/1/K, so a disagreement means the
fixed-point machinery is wrong, not the occupancy model.  The cruder
late/timeout channel is exercised qualitatively by the storm harness
(:mod:`repro.resilience.harness`) instead, where only the *topology* of
the fixed points (storm point present/absent) matters.

Retries are jittered several service times out, matching the model's
assumption that every attempt sees the stationary loss probability
rather than the exact post-shed queue state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..broker.queues import DropPolicy
from ..core.params import FilterType, costs_for
from ..core.moments import relative_error
from ..core.replication import ReplicationModel
from ..core.resilience import RetryAmplificationModel
from ..core.service_time import ReplicationFamily, ServiceTimeModel
from ..overload import OverloadConfig
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow, RunMetrics
from ..testbed.scenario import build_replication_scenario, replication_service_model
from ..testbed.simserver import IngressLedger, SimulatedJMSServer
from .budget import RetryBudget
from .clients import DeadlineRetryPublisher

__all__ = [
    "ResilienceCellConfig",
    "ResilienceCellResult",
    "run_resilience_cell",
    "validate_amplification",
    "DEFAULT_CELLS",
]


@dataclass(frozen=True)
class ResilienceCellConfig:
    """One λ_eff validation cell.

    ``rho`` is the *fresh* offered load λ·E[B]; the retry loop then
    inflates the attempt stream toward the model's fixed point.  A
    ``budget_ratio`` arms a token-bucket retry budget with that β; the
    model is capped identically, so the cell validates the budgeted
    fixed point too.
    """

    seed: int = 0
    messages: int = 30000
    rho: float = 0.9
    capacity: int = 10
    max_retries: int = 3
    budget_ratio: Optional[float] = None
    budget_min_rate: float = 0.0
    family: ReplicationFamily = ReplicationFamily.DETERMINISTIC
    filter_type: FilterType = FilterType.CORRELATION_ID
    n_fltr: int = 8
    mean_replication: float = 4.0
    cpu_scale: float = 100.0
    #: Retry delay in mean service times (decorrelation, see module doc).
    retry_delay_services: float = 50.0
    warmup_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.cpu_scale <= 0:
            raise ValueError(f"cpu_scale must be positive, got {self.cpu_scale}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )

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
        """Fresh-message λ hitting the target offered load."""
        return self.rho / self.service_model.mean

    @property
    def model(self) -> RetryAmplificationModel:
        return RetryAmplificationModel.from_service_model(
            self.rho,
            self.service_model,
            self.capacity,
            max_retries=self.max_retries,
            budget_ratio=self.budget_ratio,
            budget_min_rate=self.budget_min_rate,
        )

    def with_(self, **changes) -> "ResilienceCellConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ResilienceCellResult(RunMetrics):
    """Ledger, measured λ_eff and model comparison of one cell."""

    NOT_METRICS = ("config", "ledger", "classification")
    DERIVED_METRICS = ("lambda_rel_err",)

    config: ResilienceCellConfig
    #: The server's books, closed at the end of the run.
    ledger: IngressLedger
    # -- ledger ---------------------------------------------------------
    generated: int
    attempts: int
    accepted: int
    rejected: int
    retries: int
    abandoned: int
    budget_denied: int
    served: int
    backlog_at_end: int
    # -- measurements ---------------------------------------------------
    lambda_fresh: float
    lambda_eff_sim: float
    loss_sim: float
    end_time: float
    # -- model ----------------------------------------------------------
    lambda_eff_model: float
    loss_model: float
    amplification_model: float
    classification: str

    @property
    def amplification_sim(self) -> float:
        return self.lambda_eff_sim / self.lambda_fresh if self.lambda_fresh else 0.0

    @property
    def lambda_rel_err(self) -> float:
        """Relative error of the simulated vs. predicted λ_eff."""
        return relative_error(self.lambda_eff_sim, self.lambda_eff_model)

    @property
    def every_attempt_resolved(self) -> bool:
        """The *client's* population, not the server's: each attempt was
        accepted or rejected."""
        return self.attempts == self.accepted + self.rejected

    @property
    def conserved(self) -> bool:
        """Do the server's ledger and, beside it, the client's balance?"""
        return self.ledger.conserved and self.every_attempt_resolved


def run_resilience_cell(
    config: Optional[ResilienceCellConfig] = None,
) -> ResilienceCellResult:
    """Run one validation cell and compare λ_eff with the fixed point."""
    if config is None:
        config = ResilienceCellConfig()
    engine = Engine()
    streams = RandomStreams(seed=config.seed)
    replication = config.replication_model
    scenario = build_replication_scenario(replication, filter_type=config.filter_type)
    cpu = CpuCostModel(costs=costs_for(config.filter_type).scaled(config.cpu_scale))
    service = config.service_model
    lambda_fresh = config.arrival_rate
    horizon = config.messages / lambda_fresh
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=MeasurementWindow(start=config.warmup_fraction * horizon, end=horizon),
        overload=OverloadConfig(
            capacity=config.capacity,
            policy=DropPolicy.DROP_NEW,
            admission_soft=None,
        ),
        report_drops=True,
    )
    budget = (
        RetryBudget(
            ratio=config.budget_ratio,
            min_rate=config.budget_min_rate,
        )
        if config.budget_ratio is not None
        else None
    )
    grades = streams.stream("grades")
    publisher = DeadlineRetryPublisher(
        engine=engine,
        server=server,
        rate=lambda_fresh,
        message_factory=lambda: scenario.make_message(int(replication.sample(grades))),
        rng=streams.stream("arrivals"),
        max_retries=config.max_retries,
        retry_delay=config.retry_delay_services * service.mean,
        retry_jitter=0.5,
        retry_rng=streams.stream("retries"),
        budget=budget,
        stop_time=horizon,
    )
    publisher.start()
    engine.run()  # to event exhaustion: the backlog drains completely
    model = config.model
    fixed_point = model.solve()
    warmup = config.warmup_fraction * horizon
    lambda_eff_sim = publisher.attempt_rate(warmup, horizon)
    ledger = server.closed_ledger()
    return ResilienceCellResult(
        config=config,
        ledger=ledger,
        generated=publisher.generated,
        attempts=publisher.attempts,
        accepted=publisher.accepted,
        rejected=publisher.rejected,
        retries=publisher.retries,
        abandoned=publisher.abandoned,
        budget_denied=publisher.budget_denied,
        served=ledger.completed,
        backlog_at_end=ledger.backlog,
        lambda_fresh=lambda_fresh,
        lambda_eff_sim=lambda_eff_sim,
        loss_sim=publisher.rejected / publisher.attempts if publisher.attempts else 0.0,
        end_time=engine.now,
        lambda_eff_model=fixed_point.rate,
        loss_model=fixed_point.loss,
        amplification_model=fixed_point.rate / model.base_rate,
        classification=model.classify(),
    )


#: The validation suite: light loss, heavy loss, budget-capped, deep
#: overload, and the storm-harness operating point at its stable branch.
DEFAULT_CELLS: Sequence[ResilienceCellConfig] = (
    ResilienceCellConfig(seed=11, rho=0.9, capacity=10, max_retries=3),
    ResilienceCellConfig(seed=12, rho=1.1, capacity=8, max_retries=3),
    ResilienceCellConfig(
        seed=13, rho=1.1, capacity=8, max_retries=3, budget_ratio=0.05
    ),
    ResilienceCellConfig(seed=14, rho=1.3, capacity=6, max_retries=2),
    ResilienceCellConfig(
        seed=15, rho=0.95, capacity=80, max_retries=6, budget_ratio=0.1
    ),
)


def validate_amplification(
    cells: Optional[Sequence[ResilienceCellConfig]] = None,
) -> List[ResilienceCellResult]:
    """Run every cell; callers assert on the worst ``lambda_rel_err``."""
    if cells is None:
        cells = DEFAULT_CELLS
    return [run_resilience_cell(cell) for cell in cells]
