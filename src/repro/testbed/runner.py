"""Run measurement experiments on the simulated testbed.

:func:`run_experiment` executes one saturated-publisher run exactly per the
paper's methodology: publishers flood the server, the run lasts
``run_length`` virtual seconds, the first and last ``trim`` seconds are
discarded, and received/dispatched throughput is counted inside the
window.  :func:`run_sweep` grids over ``(R, n)`` like Section III-B.2a.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..core.params import FilterType
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow
from .experiment import (
    PAPER_ADDITIONAL_SUBSCRIBERS,
    PAPER_REPLICATION_GRADES,
    ExperimentConfig,
    MeasurementResult,
)
from .publishers import SaturatedPublisher
from .scenario import build_filter_scenario
from .simserver import SimulatedJMSServer

__all__ = ["run_experiment", "run_sweep", "paper_sweep_configs"]


def run_experiment(config: ExperimentConfig) -> MeasurementResult:
    """Execute one saturated measurement run and summarise it."""
    engine = Engine()
    streams = RandomStreams(seed=config.seed)
    scenario = build_filter_scenario(
        filter_type=config.filter_type,
        replication_grade=config.replication_grade,
        n_additional=config.n_additional,
        identical_non_matching=config.identical_non_matching,
        equivalent_variants=config.equivalent_variants,
    )
    if config.use_filter_index:
        scenario.broker.install_filter_index(canonicalize=config.canonicalize_filters)
    cpu = CpuCostModel(
        costs=config.effective_costs,
        jitter_cvar=config.jitter_cvar,
        rng=streams.stream("cpu-jitter") if config.jitter_cvar > 0 else None,
        per_byte_cost=config.per_byte_cost * config.cpu_scale,
    )
    window = MeasurementWindow.trimmed(config.run_length, config.trim)
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=window,
        buffer_capacity=config.buffer_capacity,
    )
    message_factory = (
        scenario.make_message
        if config.body_size == 0
        else (lambda: scenario.make_message(body_size=config.body_size))
    )
    publishers = [
        SaturatedPublisher(
            server,
            message_factory,
            name=f"pub-{i}",
            engine=engine,
            min_gap=config.publisher_min_gap * config.cpu_scale,
        )
        for i in range(config.publishers)
    ]
    for publisher in publishers:
        publisher.start()
    engine.run(until=config.run_length)
    return MeasurementResult(
        config=config,
        received_rate=server.received.rate(),
        dispatched_rate=server.dispatched.rate(),
        utilization=server.utilization(config.run_length),
        messages_received=server.received.in_window,
        copies_dispatched=server.dispatched.in_window,
        mean_service_time=server.service_times.mean(),
        mean_waiting_time=server.waiting_times.mean(),
        push_back_blocks=server.flow.blocked_count,
        queue_depth_at_end=server.queue_depth,
    )


def run_sweep(configs: Iterable[ExperimentConfig]) -> List[MeasurementResult]:
    """Run a batch of experiments (sequentially, deterministic order)."""
    return [run_experiment(config) for config in configs]


def paper_sweep_configs(
    filter_type: FilterType = FilterType.CORRELATION_ID,
    replication_grades: Sequence[int] = PAPER_REPLICATION_GRADES,
    additional_subscribers: Sequence[int] = PAPER_ADDITIONAL_SUBSCRIBERS,
    base: ExperimentConfig | None = None,
) -> List[ExperimentConfig]:
    """The paper's full (R, n) grid for one filter type.

    ``base`` supplies run length / scaling / seed; each grid cell only
    changes ``replication_grade`` and ``n_additional``.
    """
    if base is None:
        base = ExperimentConfig(filter_type=filter_type)
    return [
        base.with_(
            filter_type=filter_type,
            replication_grade=r,
            n_additional=n,
        )
        for r in replication_grades
        for n in additional_subscribers
    ]
