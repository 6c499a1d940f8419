"""Whole-deployment simulation: every server of PSR/SSR in one engine.

The per-server simulations in :mod:`repro.architectures.simulate` check
one constituent queue.  This module builds the *entire* distributed
system in a single virtual-time engine — all n publisher-side servers (or
all m subscriber-side servers), each with its own broker, CPU and flow
control — and measures aggregate throughput, per-server utilization and
interconnect traffic.  It validates the system-level claims of Eqs. 21–22
end to end rather than by per-server reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.params import CostParameters
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow
from ..testbed.publishers import PoissonPublisher
from ..testbed.scenario import build_filter_scenario
from ..testbed.simserver import SimulatedJMSServer
from .base import SystemParameters
from .psr import PublisherSideReplication
from .ssr import SubscriberSideReplication

__all__ = ["DeploymentResult", "simulate_psr_deployment", "simulate_ssr_deployment"]


@dataclass(frozen=True)
class DeploymentResult:
    """Aggregate measurement of one simulated distributed deployment."""

    architecture: str
    servers: int
    system_received_rate: float
    system_dispatched_rate: float
    per_server_utilization: tuple[float, ...]
    interconnect_rate: float

    @property
    def max_utilization(self) -> float:
        return max(self.per_server_utilization)

    @property
    def min_utilization(self) -> float:
        return min(self.per_server_utilization)

    @property
    def utilization_spread(self) -> float:
        return self.max_utilization - self.min_utilization


def _build_server(
    engine: Engine,
    costs: CostParameters,
    n_fltr: int,
    replication_grade: int,
    window: MeasurementWindow,
    cpu_scale: float,
) -> SimulatedJMSServer:
    scenario = build_filter_scenario(
        filter_type=costs.filter_type,
        replication_grade=replication_grade,
        n_additional=n_fltr - replication_grade,
    )
    effective = costs.scaled(cpu_scale) if cpu_scale != 1.0 else costs
    return SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=CpuCostModel(costs=effective),
        window=window,
        buffer_capacity=10**9,
    )


def _run_deployment(
    params: SystemParameters,
    servers: int,
    n_fltr_per_server: int,
    per_server_rate: float,
    architecture: str,
    interconnect_per_message: float,
    horizon: float,
    seed: int,
    cpu_scale: float,
) -> DeploymentResult:
    replication = int(params.effective_mean_replication)
    if replication != params.effective_mean_replication:
        raise ValueError("deployment simulation needs an integral E[R]")
    engine = Engine()
    streams = RandomStreams(seed=seed)
    window = MeasurementWindow.trimmed(horizon, horizon * 0.1)
    stations: List[SimulatedJMSServer] = []
    for index in range(servers):
        server = _build_server(
            engine, params.costs, n_fltr_per_server, replication, window, cpu_scale
        )
        stations.append(server)
        publisher = PoissonPublisher(
            engine=engine,
            server=server,
            rate=per_server_rate,
            message_factory=lambda srv=server: _message_for(srv),
            rng=streams.stream(f"arrivals-{index}"),
            name=f"feed-{index}",
        )
        publisher.start()
    engine.run(until=horizon)
    received = sum(s.received.rate() for s in stations)
    dispatched = sum(s.dispatched.rate() for s in stations)
    if architecture == "psr":
        system_rate = received  # each message enters the system once
    else:
        system_rate = received / servers  # every server sees every message
    return DeploymentResult(
        architecture=architecture,
        servers=servers,
        system_received_rate=system_rate,
        system_dispatched_rate=dispatched,
        per_server_utilization=tuple(s.utilization(horizon) for s in stations),
        interconnect_rate=system_rate * interconnect_per_message,
    )


def _message_for(server: SimulatedJMSServer):
    from ..testbed.scenario import make_test_message

    return make_test_message(server.cpu.costs.filter_type)


def simulate_psr_deployment(
    params: SystemParameters,
    utilization: float = 0.8,
    horizon: float = 1000.0,
    seed: int = 3,
    cpu_scale: float = 1000.0,
) -> DeploymentResult:
    """Simulate all ``n`` publisher-side servers under open load.

    Each server carries the full subscriber filter population
    (``m · n_fltr`` filters) and receives its own publisher's stream at
    the rate that loads it to ``utilization``.
    """
    psr = PublisherSideReplication(params)
    per_server_rate = utilization / (psr.per_server_service_time() * cpu_scale)
    return _run_deployment(
        params=params,
        servers=params.publishers,
        n_fltr_per_server=params.subscribers * params.filters_per_subscriber,
        per_server_rate=per_server_rate,
        architecture="psr",
        interconnect_per_message=params.effective_mean_replication,
        horizon=horizon,
        seed=seed,
        cpu_scale=cpu_scale,
    )


def simulate_ssr_deployment(
    params: SystemParameters,
    utilization: float = 0.8,
    horizon: float = 1000.0,
    seed: int = 3,
    cpu_scale: float = 1000.0,
) -> DeploymentResult:
    """Simulate all ``m`` subscriber-side servers under open load.

    Every server receives the *full* publish stream (multicast), each
    carrying only its own subscriber's filters.
    """
    ssr = SubscriberSideReplication(params)
    per_server_rate = utilization / (ssr.per_server_service_time() * cpu_scale)
    return _run_deployment(
        params=params,
        servers=params.subscribers,
        n_fltr_per_server=params.filters_per_subscriber,
        per_server_rate=per_server_rate,
        architecture="ssr",
        interconnect_per_message=float(params.subscribers),
        horizon=horizon,
        seed=seed,
        cpu_scale=cpu_scale,
    )
