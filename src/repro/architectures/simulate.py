"""Simulated validation of the distributed-architecture formulas.

Eqs. 21–22 reduce each constituent server of PSR/SSR to "a JMS server with
``n_fltr`` installed filters, replication grade ``E[R]`` and arrival rate
λ".  :func:`simulate_server_under_load` runs exactly that server on the
virtual testbed under open (Poisson) load, so the per-server utilization
and waiting time predicted by the architecture objects can be checked
against a simulation.  :func:`simulate_psr_server` /
:func:`simulate_ssr_server` derive the per-server parameters from
:class:`~repro.architectures.base.SystemParameters`.

Note on SSR: Eq. 22 charges every subscriber-side server ``E[R] · t_tx``
per message, i.e. it treats the local filters as matching with the same
replication grade as the system-wide profile.  The simulation mirrors
that reading (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.params import CostParameters
from ..rng import RandomStreams
from ..simulation import CpuCostModel, Engine, MeasurementWindow
from ..testbed.publishers import PoissonPublisher
from ..testbed.scenario import build_filter_scenario
from ..testbed.simserver import SimulatedJMSServer
from .base import SystemParameters
from .psr import PublisherSideReplication
from .ssr import SubscriberSideReplication

__all__ = [
    "ServerLoadResult",
    "simulate_server_under_load",
    "simulate_psr_server",
    "simulate_ssr_server",
]


@dataclass(frozen=True)
class ServerLoadResult:
    """Measured behaviour of one server under open Poisson load."""

    arrival_rate: float
    received_rate: float
    dispatched_rate: float
    utilization: float
    mean_waiting_time: float
    wait_quantile_99: float
    messages_received: int
    max_queue_depth_hint: int


def simulate_server_under_load(
    costs: CostParameters,
    n_fltr: int,
    replication_grade: int,
    arrival_rate: float,
    horizon: float,
    seed: int = 1,
    cpu_scale: float = 1.0,
    trim_fraction: float = 0.1,
) -> ServerLoadResult:
    """Simulate one JMS server with Poisson arrivals.

    Parameters
    ----------
    costs:
        Cost constants (unscaled; ``cpu_scale`` is applied internally and
        the arrival rate is interpreted in *scaled* time units, so pass the
        rate you want the scaled server to see).
    n_fltr:
        Installed filters on the server (``replication_grade`` of them
        match every message, the rest never match).
    replication_grade:
        Deterministic per-message replication grade ``R``.
    arrival_rate:
        Poisson arrival rate in msgs per virtual second.
    horizon:
        Run length in virtual seconds.
    """
    if replication_grade > n_fltr:
        raise ValueError(
            f"replication grade {replication_grade} exceeds installed filters {n_fltr}"
        )
    engine = Engine()
    streams = RandomStreams(seed=seed)
    scenario = build_filter_scenario(
        filter_type=costs.filter_type,
        replication_grade=replication_grade,
        n_additional=n_fltr - replication_grade,
    )
    effective = costs.scaled(cpu_scale) if cpu_scale != 1.0 else costs
    cpu = CpuCostModel(costs=effective)
    trim = horizon * trim_fraction
    window = MeasurementWindow.trimmed(horizon, trim)
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=cpu,
        window=window,
        buffer_capacity=10**9,  # M/G/1-∞: the buffer never pushes back
    )
    publisher = PoissonPublisher(
        engine=engine,
        server=server,
        rate=arrival_rate,
        message_factory=scenario.make_message,
        rng=streams.stream("arrivals"),
        name="open-load",
    )
    publisher.start()
    engine.run(until=horizon)
    waits = server.waiting_times
    return ServerLoadResult(
        arrival_rate=arrival_rate,
        received_rate=server.received.rate(),
        dispatched_rate=server.dispatched.rate(),
        utilization=server.utilization(horizon),
        mean_waiting_time=waits.mean(),
        wait_quantile_99=waits.quantile(0.99),
        messages_received=server.received.in_window,
        max_queue_depth_hint=server.queue_depth,
    )


def _integral_replication(params: SystemParameters) -> int:
    mean = params.effective_mean_replication
    if not float(mean).is_integer():
        raise ValueError(
            f"the simulated deployment needs an integral E[R], got {mean}"
        )
    return int(mean)


def simulate_psr_server(
    params: SystemParameters,
    utilization: float,
    horizon: float,
    seed: int = 1,
    cpu_scale: float = 1.0,
) -> ServerLoadResult:
    """Simulate one PSR publisher-side server at a target utilization.

    The server carries all ``m · n_fltr`` subscriber filters and receives
    ``1/n`` of the system load; ``utilization`` sets that per-server load
    directly (``λ_server = utilization / E[B_server]``).
    """
    if not 0 < utilization < 1:
        raise ValueError(f"utilization must be in (0, 1), got {utilization}")
    psr = PublisherSideReplication(params)
    per_server_rate = utilization / (psr.per_server_service_time() * cpu_scale)
    return simulate_server_under_load(
        costs=params.costs,
        n_fltr=params.subscribers * params.filters_per_subscriber,
        replication_grade=_integral_replication(params),
        arrival_rate=per_server_rate,
        horizon=horizon,
        seed=seed,
        cpu_scale=cpu_scale,
    )


def simulate_ssr_server(
    params: SystemParameters,
    utilization: float,
    horizon: float,
    seed: int = 1,
    cpu_scale: float = 1.0,
) -> ServerLoadResult:
    """Simulate one SSR subscriber-side server at a target utilization.

    The server carries a single subscriber's ``n_fltr`` filters and
    receives the *full* system publish stream.
    """
    if not 0 < utilization < 1:
        raise ValueError(f"utilization must be in (0, 1), got {utilization}")
    ssr = SubscriberSideReplication(params)
    per_server_rate = utilization / (ssr.per_server_service_time() * cpu_scale)
    return simulate_server_under_load(
        costs=params.costs,
        n_fltr=params.filters_per_subscriber,
        replication_grade=_integral_replication(params),
        arrival_rate=per_server_rate,
        horizon=horizon,
        seed=seed,
        cpu_scale=cpu_scale,
    )
