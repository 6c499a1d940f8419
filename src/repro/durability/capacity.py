"""Durability-vs-capacity: what persistence costs in Eq. 1 and Eq. 2.

The paper's service-time model (Eq. 1) charges CPU work only —
``B = t_rcv + n_fltr·t_fltr + R·t_tx`` — yet its measurements run in
*persistent* mode, where every accepted message must also reach stable
storage.  With a sync policy that fsyncs every ``b`` messages (group
commit), the per-message storage cost is the amortized

    ``t_sync / b``

added to the deterministic part of ``B``, so capacity (Eq. 2) becomes

    ``λ_max(b) = ρ / (E[B] + t_sync/b)``.

``b = 1`` is ``sync=always`` (full fsync price), ``b → ∞`` is
``sync=never`` (the paper's original CPU-only model, recovered exactly).
:func:`durability_capacity_sweep` tabulates this trade-off — the
durability knob is a *capacity* knob, which is the quantitative reason
brokers ship group commit.

``b`` counts the records of one *commit*, and the product's unit of
commit is what the model's is: a lone ``send`` / ``publish`` commits one
record at a time, so ``b`` is the policy's (1 under ``always``,
``batch`` under ``group_commit``); a stage of ``send_batch`` /
``publish_batch`` over ``X`` messages is one commit
(:meth:`~repro.durability.journal.Journal.commit`), fsynced at most once,
so for a batch ``b = X`` under ``always`` and ``max(X, batch)`` under
``group_commit`` — the storage side of treating a batch as one unit of
work, as the M^X/G/1 model of :mod:`repro.core.batch` does on the CPU
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..core.capacity import mean_service_time, server_capacity
from ..core.params import CostParameters
from .journal import SyncPolicy

__all__ = [
    "amortized_sync_overhead",
    "DurabilityCapacityPoint",
    "durability_capacity_sweep",
]


def amortized_sync_overhead(t_sync: float, policy: SyncPolicy) -> float:
    """Per-message sync cost ``t_sync / b`` under ``policy``.

    ``never`` amortizes over an unbounded batch (cost 0); ``always`` pays
    the full ``t_sync`` on every message.
    """
    if t_sync < 0 or not math.isfinite(t_sync):
        raise ValueError(f"t_sync must be finite and non-negative, got {t_sync}")
    batch = policy.amortized_batch
    if math.isinf(batch):
        return 0.0
    return t_sync / batch


@dataclass(frozen=True)
class DurabilityCapacityPoint:
    """One row of the durability-vs-capacity sweep."""

    policy: str
    batch: float
    sync_overhead: float
    mean_service_time: float
    lambda_max: float
    #: Capacity retained relative to the non-durable (``sync=never``) model.
    capacity_fraction: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "batch": None if math.isinf(self.batch) else self.batch,
            "sync_overhead": self.sync_overhead,
            "mean_service_time": self.mean_service_time,
            "lambda_max": self.lambda_max,
            "capacity_fraction": self.capacity_fraction,
        }


def durability_capacity_sweep(
    costs: CostParameters,
    n_fltr: int,
    mean_replication: float,
    t_sync: float,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    rho: float = 0.9,
) -> List[DurabilityCapacityPoint]:
    """Capacity λ_max versus group-commit batch size.

    Rows cover ``sync=always`` (batch 1 when in ``batches``), every group
    commit batch requested, and ``sync=never`` last — whose ``lambda_max``
    equals the pre-durability :func:`repro.core.capacity.server_capacity`
    *exactly*, the backward-compatibility anchor the acceptance criteria
    pin to 1%.
    """
    if t_sync < 0 or not math.isfinite(t_sync):
        raise ValueError(f"t_sync must be finite and non-negative, got {t_sync}")
    if not batches:
        raise ValueError("batches must be non-empty")
    base_mean = mean_service_time(costs, n_fltr, mean_replication)
    base_capacity = server_capacity(costs, n_fltr, mean_replication, rho=rho)
    points: List[DurabilityCapacityPoint] = []
    policies: List[SyncPolicy] = []
    for batch in batches:
        if batch < 1 or int(batch) != batch:
            raise ValueError(f"batch sizes must be positive integers, got {batch}")
        policies.append(
            SyncPolicy.always() if batch == 1 else SyncPolicy.group_commit(int(batch))
        )
    policies.append(SyncPolicy.never())
    for policy in policies:
        overhead = amortized_sync_overhead(t_sync, policy)
        mean = base_mean + overhead
        lam = rho / mean
        points.append(
            DurabilityCapacityPoint(
                policy=policy.describe(),
                batch=policy.amortized_batch,
                sync_overhead=overhead,
                mean_service_time=mean,
                lambda_max=lam,
                capacity_fraction=lam / base_capacity,
            )
        )
    return points
