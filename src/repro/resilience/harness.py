"""The retry-storm chaos harness: metastability demonstrated and defeated.

Two identical brokers take the same workload at the operating point the
fixed-point model (:mod:`repro.core.resilience`) classifies as
**metastable** — ρ = 0.9, K = 80, six timeout-triggered retries, client
timeout ≈ 40·E[B], squarely inside the band where a stable normal point
(λ_eff ≈ λ) and a stable storm point (λ_eff ≈ (1+r)·λ) coexist.  Both
are hit by the same transient fault: a 10× consumer slowdown injected
through the fault layer.  The fault saturates the bounded buffer, every
queued message goes late, and the timeout retries ignite the storm.

- The **control** client retries bare: no deadline on the wire, no retry
  budget.  When the fault clears, the backlog keeps every attempt past
  its timeout, timeouts keep the retries coming, and the system settles
  on the storm fixed point — degraded goodput that persists long after
  the trigger is gone.  That is the metastable failure.
- The **protected** client attaches its deadline to every message (so
  the broker sheds dead work pre-service at zero cost), routes retries
  through a token-bucket budget (β = 0.1), and hedges the p99 tail.
  The deadline makes the backlog self-limiting — queued-past-deadline
  messages vanish for free — and the budget caps λ_eff near λ, so
  goodput snaps back to the pre-fault level within the horizon.

Acceptance (asserted by the tier-1 test over this harness): the
protected run's post-fault goodput recovers to ≥ 95 % of pre-fault
while the control's stays collapsed; zero expired messages are ever
dispatched; hedging never double-delivers; both servers' ledgers balance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..broker.queues import DropPolicy
from ..core.mg1 import MG1Queue
from ..core.params import FilterType, costs_for
from ..core.replication import DeterministicReplication
from ..core.resilience import RetryAmplificationModel
from ..core.service_time import ServiceTimeModel
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultEvent, FaultKind, FaultSchedule
from ..overload import OverloadConfig
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow, RunMetrics
from ..testbed.scenario import build_replication_scenario, replication_service_model
from ..testbed.simserver import IngressLedger, SimulatedJMSServer
from .budget import RetryBudget
from .clients import DeadlineRetryPublisher, DeliveryLog
from .hedge import HedgePolicy

__all__ = [
    "StormHarnessConfig",
    "StormRunResult",
    "StormHarnessReport",
    "run_storm_harness",
]


@dataclass(frozen=True)
class StormHarnessConfig:
    """Operating point and fault script of the storm demonstration."""

    seed: int = 0
    rho: float = 0.9
    capacity: int = 80
    max_retries: int = 6
    #: Client timeout in mean service times — keep it inside the
    #: metastable band (≈ [32, 72]·E[B] at the default operating point).
    timeout_services: float = 40.0
    budget_ratio: float = 0.1
    budget_min_rate: float = 0.5
    hedge_quantile: float = 0.99
    replication_grade: int = 4
    filter_type: FilterType = FilterType.CORRELATION_ID
    cpu_scale: float = 100.0
    #: Retry re-injection delay in mean service times (jittered ±50 %).
    retry_delay_services: float = 5.0
    warmup: float = 10.0
    fault_start: float = 40.0
    fault_duration: float = 8.0
    slowdown: float = 10.0
    horizon: float = 140.0
    post_window: float = 30.0
    recovery_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if self.timeout_services <= 0:
            raise ValueError(
                f"timeout_services must be positive, got {self.timeout_services}"
            )
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")
        if not 0 < self.recovery_threshold <= 1:
            raise ValueError(
                f"recovery_threshold must be in (0, 1], got {self.recovery_threshold}"
            )
        if not self.warmup < self.fault_start:
            raise ValueError("warmup must end before the fault starts")
        if not self.fault_start + self.fault_duration < self.horizon - self.post_window:
            raise ValueError("the fault must clear before the post window opens")

    # ------------------------------------------------------------------
    @property
    def service_model(self) -> ServiceTimeModel:
        return replication_service_model(
            DeterministicReplication(self.replication_grade),
            self.filter_type,
            self.cpu_scale,
        )

    @property
    def arrival_rate(self) -> float:
        return self.rho / self.service_model.mean

    @property
    def timeout(self) -> float:
        """Client delivery deadline in virtual seconds."""
        return self.timeout_services * self.service_model.mean

    def model(self, budgeted: bool) -> RetryAmplificationModel:
        """The fixed-point model at this operating point."""
        return RetryAmplificationModel.from_service_model(
            self.rho,
            self.service_model,
            self.capacity,
            max_retries=self.max_retries,
            timeout=self.timeout,
            late_retry=True,
            budget_ratio=self.budget_ratio if budgeted else None,
            budget_min_rate=self.budget_min_rate if budgeted else 0.0,
        )

    def with_(self, **changes) -> "StormHarnessConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class StormRunResult(RunMetrics):
    """Windowed goodput, λ_eff and ledger of one harness variant."""

    NOT_METRICS = ("name", "protected", "ledger")
    DERIVED_METRICS = ("recovery_ratio", "post_amplification", "ledger_balanced")

    name: str
    protected: bool
    #: The server's books, closed after the drain.
    ledger: IngressLedger
    # -- windowed rates -------------------------------------------------
    pre_goodput: float
    during_goodput: float
    post_goodput: float
    pre_attempt_rate: float
    post_attempt_rate: float
    lambda_fresh: float
    # -- client counters ------------------------------------------------
    generated: int
    attempts: int
    goodput_total: int
    late_retries: int
    loss_retries: int
    abandoned: int
    budget_denied: int
    hedges: int
    hedges_cancelled: int
    # -- server / log witnesses -----------------------------------------
    expired_in_flight: int
    hedge_duplicates_dropped: int
    expired_delivered: int
    double_deliveries: int

    @property
    def ledger_balanced(self) -> bool:
        """Do the server's books balance?"""
        return self.ledger.conserved

    @property
    def recovery_ratio(self) -> float:
        """Post-fault goodput relative to pre-fault."""
        return self.post_goodput / self.pre_goodput if self.pre_goodput else 0.0

    @property
    def post_amplification(self) -> float:
        """Post-fault λ_eff over the fresh rate — ≈ 1 healthy, ≈ 1+r stormed."""
        return self.post_attempt_rate / self.lambda_fresh if self.lambda_fresh else 0.0


@dataclass(frozen=True)
class StormHarnessReport:
    """Control-versus-protected comparison plus the model's verdict."""

    config: StormHarnessConfig
    control: StormRunResult
    protected: StormRunResult
    unbudgeted_classification: str
    budgeted_classification: str

    @property
    def protected_recovered(self) -> bool:
        """Did the protected variant regain ≥ threshold of its goodput?"""
        return self.protected.recovery_ratio >= self.config.recovery_threshold

    @property
    def control_stormed(self) -> bool:
        """Is the control still amplifying and degraded after the fault?"""
        return (
            self.control.post_amplification >= 3.0
            and self.control.recovery_ratio < 0.5
        )

    @property
    def exactly_once(self) -> bool:
        return (
            self.control.double_deliveries == 0
            and self.protected.double_deliveries == 0
        )

    @property
    def no_dead_work_delivered(self) -> bool:
        return (
            self.control.expired_delivered == 0
            and self.protected.expired_delivered == 0
        )

    @property
    def ledgers_balanced(self) -> bool:
        return self.control.ledger_balanced and self.protected.ledger_balanced

    @property
    def passed(self) -> bool:
        return (
            self.protected_recovered
            and self.control_stormed
            and self.exactly_once
            and self.no_dead_work_delivered
            and self.ledgers_balanced
        )

    def to_metrics(self) -> Dict[str, float]:
        flat: Dict[str, float] = {
            "protected_recovered": float(self.protected_recovered),
            "control_stormed": float(self.control_stormed),
            "exactly_once": float(self.exactly_once),
            "no_dead_work_delivered": float(self.no_dead_work_delivered),
            "passed": float(self.passed),
        }
        for result in (self.control, self.protected):
            for key, value in result.to_metrics().items():
                flat[f"{result.name}_{key}"] = value
        return flat

    def describe(self) -> str:
        lines = [
            f"storm harness @ rho={self.config.rho:g}, K={self.config.capacity}, "
            f"r={self.config.max_retries}, timeout={self.config.timeout:.3f}s "
            f"({self.config.timeout_services:g}·E[B])",
            f"model: unbudgeted={self.unbudgeted_classification}, "
            f"budgeted(β={self.config.budget_ratio:g})={self.budgeted_classification}",
        ]
        for r in (self.control, self.protected):
            lines.append(
                f"  {r.name:>9}: goodput {r.pre_goodput:.1f}/s → {r.post_goodput:.1f}/s "
                f"(ratio {r.recovery_ratio:.2f}), post λ_eff/λ = {r.post_amplification:.2f}, "
                f"budget_denied={r.budget_denied}, hedges={r.hedges}"
            )
            if not r.ledger_balanced:
                lines.append(f"  {r.name:>9}: server ledger IMBALANCED: {r.ledger!r}")
        lines.append(f"passed={self.passed}")
        return "\n".join(lines)


def _run_variant(config: StormHarnessConfig, protected: bool) -> StormRunResult:
    engine = Engine()
    streams = RandomStreams(seed=config.seed)
    replication = DeterministicReplication(config.replication_grade)
    scenario = build_replication_scenario(
        replication, filter_type=config.filter_type, drain_inboxes=False
    )
    cpu = CpuCostModel(costs=costs_for(config.filter_type).scaled(config.cpu_scale))
    service = config.service_model
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=MeasurementWindow(start=config.warmup, end=config.horizon),
        overload=OverloadConfig(
            capacity=config.capacity,
            policy=DropPolicy.DROP_NEW,
            admission_soft=None,
        ),
        report_drops=True,
        shed_expired_before_service=True,
        hedge_dedup=True,
    )
    log = DeliveryLog(engine)
    log.install(scenario.broker)
    budget: Optional[RetryBudget] = None
    hedge: Optional[HedgePolicy] = None
    if protected:
        budget = RetryBudget(
            ratio=config.budget_ratio, min_rate=config.budget_min_rate
        )
        hedge = HedgePolicy.from_queue(
            MG1Queue.from_utilization(config.rho, service.moments),
            quantile=config.hedge_quantile,
        )
    publisher = DeadlineRetryPublisher(
        engine=engine,
        server=server,
        rate=config.arrival_rate,
        message_factory=lambda: scenario.make_message(config.replication_grade),
        rng=streams.stream("arrivals"),
        timeout=config.timeout,
        max_retries=config.max_retries,
        retry_delay=config.retry_delay_services * service.mean,
        retry_jitter=0.5,
        retry_rng=streams.stream("retries"),
        late_retry=True,
        attach_deadline=protected,
        budget=budget,
        hedge=hedge,
        log=log,
        stop_time=config.horizon,
        name="protected" if protected else "control",
    )
    schedule = FaultSchedule(
        [
            FaultEvent(
                time=config.fault_start,
                kind=FaultKind.SLOW_CONSUMER,
                duration=config.fault_duration,
                magnitude=config.slowdown,
            )
        ]
    )
    FaultInjector(engine=engine, server=server, schedule=schedule).arm()
    publisher.start()
    engine.run()  # past the horizon: open retries and the backlog drain
    fault_end = config.fault_start + config.fault_duration
    post_start = config.horizon - config.post_window
    ledger = server.closed_ledger()
    return StormRunResult(
        name=publisher.name,
        protected=protected,
        ledger=ledger,
        pre_goodput=publisher.goodput_rate(config.warmup, config.fault_start),
        during_goodput=publisher.goodput_rate(config.fault_start, fault_end),
        post_goodput=publisher.goodput_rate(post_start, config.horizon),
        pre_attempt_rate=publisher.attempt_rate(config.warmup, config.fault_start),
        post_attempt_rate=publisher.attempt_rate(post_start, config.horizon),
        lambda_fresh=config.arrival_rate,
        generated=publisher.generated,
        attempts=publisher.attempts,
        goodput_total=publisher.goodput,
        late_retries=publisher.late_retries,
        loss_retries=publisher.loss_retries,
        abandoned=publisher.abandoned,
        budget_denied=publisher.budget_denied,
        hedges=publisher.hedges,
        hedges_cancelled=publisher.hedges_cancelled,
        expired_in_flight=ledger.expired_in_flight,
        hedge_duplicates_dropped=ledger.hedge_duplicates,
        expired_delivered=log.expired_delivered,
        double_deliveries=log.double_deliveries,
    )


def run_storm_harness(
    config: Optional[StormHarnessConfig] = None,
) -> StormHarnessReport:
    """Run control and protected variants of the same storm scenario."""
    if config is None:
        config = StormHarnessConfig()
    return StormHarnessReport(
        config=config,
        control=_run_variant(config, protected=False),
        protected=_run_variant(config, protected=True),
        unbudgeted_classification=config.model(budgeted=False).classify(),
        budgeted_classification=config.model(budgeted=True).classify(),
    )
