"""Replication: high availability for the durable broker.

The paper measures one JMS server; a production deployment runs a
replicated pair so a server loss does not lose acked messages.  This
package builds that pair on top of :mod:`repro.durability`'s journal:

- :mod:`~repro.replication.link` — CRC-framed journal shipping over a
  fault-injectable simulated link (drop/corrupt/reorder/delay);
- :mod:`~repro.replication.standby` — a warm standby that folds shipped
  records continuously and promotes through the scan→fold→apply
  recovery path;
- :mod:`~repro.replication.lease` — lease-based leader election with
  monotonic fencing epochs (the split-brain defence);
- :mod:`~repro.replication.pair` — the orchestrated primary/standby
  pair: batched shipping, go-back-N retransmission, sync/async ack
  modes, crash/pause/promote operations;
- :mod:`~repro.replication.model` — first-moment RPO/RTO models and the
  ``t_ship/b`` ack cost folded into the paper's Eq. 1/Eq. 2;
- :mod:`~repro.replication.experiment` — the DES failover sweep that
  checks the model.

The no-lost-ack chaos matrix lives in the laboratory,
:mod:`repro.chaos.failover`.
"""

from .experiment import FailoverSweepPoint, failover_sweep
from .lease import FencingError, Lease, LeaseCoordinator
from .link import ShipFrame, SimulatedLink, decode_frame, encode_frame
from .model import (
    ReplicationCapacityPoint,
    ReplicationLagModel,
    amortized_ship_overhead,
    replication_capacity_sweep,
)
from .pair import ReplicatedPair, ReplicationConfig
from .standby import PromotionReport, StandbyReplica

__all__ = [
    "FencingError",
    "Lease",
    "LeaseCoordinator",
    "ShipFrame",
    "SimulatedLink",
    "encode_frame",
    "decode_frame",
    "PromotionReport",
    "StandbyReplica",
    "ReplicationConfig",
    "ReplicatedPair",
    "ReplicationLagModel",
    "amortized_ship_overhead",
    "ReplicationCapacityPoint",
    "replication_capacity_sweep",
    "FailoverSweepPoint",
    "failover_sweep",
]
