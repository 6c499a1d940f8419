"""Aggregate mesh capacity: superposed per-shard M/G/1 queues + skew.

Section IV-C compares two-server replication policies (Fig. 15: PSR
Eq. 21 vs SSR Eq. 22).  A sharded mesh generalizes both to arbitrary
shard counts: each shard is one M/G/1 server (Eq. 1/2 of the paper) fed
a *share* of the publish stream and hosting a *share* of the installed
filters, and the aggregate capacity is governed by the most-loaded
shard:

    ``λ_max = min_i  ρ / (a_i · E[B_i])``

where shard ``i`` receives arrival fraction ``a_i`` of the stream and
``E[B_i] = t_rcv + F_i·t_fltr + R_i·t_tx`` from its installed filter
count ``F_i`` and replication grade ``R_i``.  Three placement modes pin
down ``(a_i, F_i, R_i)`` from the ring weight ``w_i``:

``partitioned``
    Topic partitioning (what :class:`~repro.mesh.sharded.ShardedBroker`
    actually does): shard ``i`` owns ``w_i`` of the topics, so it sees
    ``a_i = w_i`` of the stream and hosts the ``F_i = w_i · m · n_fltr``
    filters subscribed to those topics; replication per message is
    unchanged.
``psr``
    Publisher-side placement: the stream splits (``a_i = w_i``) but
    every shard keeps the full filter population ``m · n_fltr``.  With
    ``N`` uniform shards this *is* Eq. 21 with ``n = N`` — at ``N = 2``
    the Fig. 15 PSR curve.
``ssr``
    Subscriber-side placement: every shard sees the full stream
    (``a_i = 1``) and hosts its subscribers' share of filters *and*
    replication (``F_i = w_i·m·n_fltr``, ``R_i = w_i·m·E[R]``).  With
    ``N = m`` uniform shards this is Eq. 22 — the Fig. 15 SSR point.

The **skew term** is the capacity penalty of imperfect consistent-hash
balance: ``skew = λ_max(weights) / λ_max(uniform)`` ≤ 1, with equality
for a perfectly balanced ring.

:func:`validate_mesh_capacity` cross-checks the closed form against the
discrete-event testbed (:mod:`repro.architectures.simulate`): each shard
is simulated as one server at its share of an offered load and the
measured utilization is compared with ``a_i · λ · E[B_i]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..architectures.base import SystemParameters
from ..architectures.failover import worst_survivor_absorption
from ..core.mg1 import MG1Queue
from ..core.moments import Moments, relative_error, shifted_scaled_moments
from .ring import HashRing

__all__ = [
    "MeshCapacityReport",
    "MeshCapacityValidation",
    "ShardLoad",
    "mesh_capacity",
    "mesh_capacity_curve",
    "validate_mesh_capacity",
]

_PLACEMENTS = ("partitioned", "psr", "ssr")


@dataclass(frozen=True)
class ShardLoad:
    """The Eq. 1/2 view of one shard under a placement mode."""

    shard_id: str
    #: Ring weight (fraction of the key space this shard owns).
    weight: float
    #: Fraction of the publish stream arriving at this shard.
    arrival_share: float
    #: Installed filters on this shard.
    filters: float
    #: Per-message replication grade at this shard.
    replication: float
    #: Mean service time ``E[B_i]``.
    mean_service: float
    #: Publish-rate ceiling this shard imposes on the whole mesh.
    capacity: float


@dataclass(frozen=True)
class MeshCapacityReport:
    """Aggregate capacity of an N-shard mesh under one placement mode."""

    placement: str
    shards: Tuple[ShardLoad, ...]
    #: System capacity — the most-loaded shard's ceiling.
    capacity: float
    #: Capacity of the same mesh with perfectly uniform weights.
    balanced_capacity: float
    #: Offered system rate the waits were evaluated at (None: capacity only).
    system_rate: Optional[float]
    #: Per-shard M/G/1 mean waits at ``system_rate`` (None when absent
    #: or a shard is unstable at that rate).
    mean_waits: Optional[Tuple[Optional[float], ...]]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def skew(self) -> float:
        """Capacity retained vs a perfectly balanced ring (≤ 1)."""
        return self.capacity / self.balanced_capacity

    @property
    def bottleneck(self) -> ShardLoad:
        return min(self.shards, key=lambda s: (s.capacity, s.shard_id))

    def utilization(self, system_rate: float) -> Dict[str, float]:
        """Per-shard utilization ``a_i · λ · E[B_i]`` at ``system_rate``."""
        return {
            s.shard_id: s.arrival_share * system_rate * s.mean_service
            for s in self.shards
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "placement": self.placement,
            "shard_count": self.shard_count,
            "capacity": self.capacity,
            "balanced_capacity": self.balanced_capacity,
            "skew": self.skew,
            "bottleneck": self.bottleneck.shard_id,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "weight": s.weight,
                    "arrival_share": s.arrival_share,
                    "filters": s.filters,
                    "replication": s.replication,
                    "mean_service": s.mean_service,
                    "capacity": s.capacity,
                }
                for s in self.shards
            ],
        }


def _shard_view(
    placement: str, weight: float, params: SystemParameters
) -> Tuple[float, float, float]:
    """``(arrival_share, filters, replication)`` of one shard."""
    total_filters = params.subscribers * params.filters_per_subscriber
    mean_replication = params.effective_mean_replication
    if placement == "partitioned":
        return weight, weight * total_filters, mean_replication
    if placement == "psr":
        return weight, float(total_filters), mean_replication
    if placement == "ssr":
        return 1.0, weight * total_filters, weight * params.subscribers * mean_replication
    raise ValueError(f"unknown placement {placement!r} (want one of {_PLACEMENTS})")


def _shard_loads(
    weights: Mapping[str, float], placement: str, params: SystemParameters
) -> Tuple[ShardLoad, ...]:
    loads: List[ShardLoad] = []
    for shard_id in sorted(weights):
        weight = weights[shard_id]
        share, filters, replication = _shard_view(placement, weight, params)
        mean_service = (
            params.costs.t_rcv
            + filters * params.costs.t_fltr
            + replication * params.costs.t_tx
        )
        capacity = params.rho / (share * mean_service) if share > 0 else float("inf")
        loads.append(
            ShardLoad(
                shard_id=shard_id,
                weight=weight,
                arrival_share=share,
                filters=filters,
                replication=replication,
                mean_service=mean_service,
                capacity=capacity,
            )
        )
    return tuple(loads)


def _shard_wait(
    load: ShardLoad, system_rate: float, params: SystemParameters
) -> Optional[float]:
    arrival = load.arrival_share * system_rate
    if arrival * load.mean_service >= 1.0:
        return None
    # Deterministic replication moments at the shard's grade, shifted by
    # its receive+filter time — the same Eq. 1 decomposition the
    # architectures layer uses.
    d = params.costs.t_rcv + load.filters * params.costs.t_fltr
    r = load.replication
    service = shifted_scaled_moments(d, params.costs.t_tx, Moments(r, r**2, r**3))
    return MG1Queue(arrival_rate=arrival, service=service).mean_wait


def mesh_capacity(
    params: SystemParameters,
    weights: Mapping[str, float] | Sequence[str] | HashRing,
    placement: str = "partitioned",
    system_rate: Optional[float] = None,
) -> MeshCapacityReport:
    """Aggregate capacity of a shard mesh as superposed M/G/1 queues.

    ``weights`` is a ``shard -> key-space fraction`` mapping, a
    :class:`~repro.mesh.ring.HashRing` (its arc weights are used — the
    *skew* of real consistent hashing), or a plain shard-id sequence
    (uniform weights).
    """
    if isinstance(weights, HashRing):
        weight_map: Dict[str, float] = weights.weights()
    elif isinstance(weights, Mapping):
        weight_map = dict(weights)
    else:
        shard_ids = list(weights)
        if not shard_ids:
            raise ValueError("mesh needs at least one shard")
        weight_map = {shard_id: 1.0 / len(shard_ids) for shard_id in shard_ids}
    if not weight_map:
        raise ValueError("mesh needs at least one shard")
    total = sum(weight_map.values())
    if total <= 0:
        raise ValueError(f"ring weights must sum to a positive value, got {total}")
    weight_map = {shard: weight / total for shard, weight in weight_map.items()}

    loads = _shard_loads(weight_map, placement, params)
    capacity = min(load.capacity for load in loads)
    uniform = {shard: 1.0 / len(weight_map) for shard in weight_map}
    balanced = min(load.capacity for load in _shard_loads(uniform, placement, params))
    waits: Optional[Tuple[Optional[float], ...]] = None
    if system_rate is not None:
        waits = tuple(_shard_wait(load, system_rate, params) for load in loads)
    return MeshCapacityReport(
        placement=placement,
        shards=loads,
        capacity=capacity,
        balanced_capacity=balanced,
        system_rate=system_rate,
        mean_waits=waits,
    )


def mesh_capacity_curve(
    params: SystemParameters,
    shard_counts: Sequence[int],
    placement: str = "partitioned",
) -> Dict[int, MeshCapacityReport]:
    """Fig. 15 generalized: capacity vs shard count under one placement.

    Uniform weights — the pure scaling law.  At ``placement='psr'`` and
    ``shard_counts=[2]`` this recovers the Fig. 15 PSR curve (Eq. 21
    with ``n = 2``); ``'ssr'`` at ``N = m`` recovers Eq. 22.
    """
    out: Dict[int, MeshCapacityReport] = {}
    for count in shard_counts:
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        shard_ids = [f"s{i}" for i in range(count)]
        out[count] = mesh_capacity(params, shard_ids, placement=placement)
    return out


@dataclass(frozen=True)
class ValidationRow:
    """Closed form vs DES for one shard count."""

    shard_count: int
    load_fraction: float
    predicted_utilization: float
    simulated_utilization: float

    @property
    def rel_err(self) -> float:
        return relative_error(self.simulated_utilization, self.predicted_utilization)


@dataclass
class MeshCapacityValidation:
    """DES cross-check of :func:`mesh_capacity` over shard counts."""

    placement: str
    tolerance: float
    rows: List[ValidationRow] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((row.rel_err for row in self.rows), default=0.0)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and self.max_rel_err <= self.tolerance

    def to_dict(self) -> Dict[str, object]:
        return {
            "placement": self.placement,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "max_rel_err": self.max_rel_err,
            "rows": [
                {
                    "shard_count": row.shard_count,
                    "load_fraction": row.load_fraction,
                    "predicted_utilization": row.predicted_utilization,
                    "simulated_utilization": row.simulated_utilization,
                    "rel_err": row.rel_err,
                }
                for row in self.rows
            ],
        }


def validate_mesh_capacity(
    params: SystemParameters,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    placement: str = "partitioned",
    load_fraction: float = 0.8,
    horizon: float = 200.0,
    seed: int = 3,
    cpu_scale: float = 100.0,
    tolerance: float = 0.05,
) -> MeshCapacityValidation:
    """Simulate the bottleneck shard at each count; compare utilization.

    One shard of an N-shard uniform mesh is one Eq. 1 server with the
    per-shard filter population and arrival share, so the existing
    :func:`~repro.architectures.simulate.simulate_server_under_load`
    testbed is reused unchanged.  Per-shard filter counts are made
    integral with :func:`~repro.architectures.failover.worst_survivor_absorption`
    (a shard hosts a whole number of subscribers' filter sets), so pick
    ``subscribers`` divisible by ``max(shard_counts)`` for an exact
    comparison; utilization — not the noisier mean wait — is compared,
    to the 5% acceptance bar.
    """
    from ..architectures.simulate import simulate_server_under_load

    report = MeshCapacityValidation(placement=placement, tolerance=tolerance)
    for count in shard_counts:
        mesh = mesh_capacity(params, [f"s{i}" for i in range(count)], placement)
        system_rate = load_fraction * mesh.capacity
        bottleneck = mesh.bottleneck
        # Integral per-shard view: the bottleneck shard hosts
        # ceil(m / N) subscribers' filters (exact when N divides m).
        hosted = worst_survivor_absorption(params.subscribers, count)
        if placement == "psr":
            n_fltr = params.subscribers * params.filters_per_subscriber
        else:
            n_fltr = hosted * params.filters_per_subscriber
        if placement == "ssr":
            replication = hosted * params.effective_mean_replication
        else:
            replication = params.effective_mean_replication
        if not float(replication).is_integer():
            raise ValueError(
                f"validation needs an integral per-shard E[R], got {replication}"
            )
        predicted = bottleneck.arrival_share * system_rate * bottleneck.mean_service
        sim = simulate_server_under_load(
            costs=params.costs,
            n_fltr=int(n_fltr),
            replication_grade=int(replication),
            arrival_rate=bottleneck.arrival_share * system_rate / cpu_scale,
            horizon=horizon,
            seed=seed,
            cpu_scale=cpu_scale,
        )
        report.rows.append(
            ValidationRow(
                shard_count=count,
                load_fraction=load_fraction,
                predicted_utilization=predicted,
                simulated_utilization=sim.utilization,
            )
        )
    return report
