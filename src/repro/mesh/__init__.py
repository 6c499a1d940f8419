"""Sharded broker mesh: consistent-hash placement and rebalancing.

PR 7 made one broker highly available (a replicated pair); this package
scales the broker *out*: N full broker stacks behind one routing
surface, with the control plane deciding which shard owns which
destination and a fault-tolerant rebalancer moving partitions when the
membership changes:

- :mod:`~repro.mesh.ring` — consistent-hash ring with virtual nodes over
  the journal's ``durable_key`` namespace, plus deterministic placement
  proofs (rebuild-and-compare, minimal-disruption);
- :mod:`~repro.mesh.membership` — shard lifecycle, the authoritative
  partition table (ownership commits by flipping an entry), and the
  transfer log that makes handoff applies idempotent;
- :mod:`~repro.mesh.sharded` — the :class:`ShardedBroker` facade:
  per-shard journals, cross-shard wildcard dispatch through each shard's
  ``FilterIndex``, degraded-mode routing (a shedding shard sheds only
  its partitions), and roll-forward recovery;
- :mod:`~repro.mesh.rebalance` — journal-backed transfer batches over
  the PR 7 shipping stack (frames, go-back-N, fencing epochs), driven
  fence→ship→apply→flip→retire with crash-retry;
- :mod:`~repro.mesh.capacity` — aggregate capacity as superposed
  per-shard M/G/1 queues with a skew term, generalizing Fig. 15 to
  arbitrary shard counts (**numpy-backed** — import it explicitly; this
  package root stays dependency-free like the broker itself).

The cross-shard no-lost-message chaos matrix lives in the laboratory,
:mod:`repro.chaos.rebalance`.
"""

from .membership import (
    MembershipEvent,
    MeshMembership,
    PartitionMove,
    PartitionTable,
    ShardState,
    TransferLog,
)
from .rebalance import HandoffReport, HandoffSession, RebalanceEngine, RebalanceReport
from .ring import (
    HashRing,
    PlacementProof,
    placement_key,
    prove_minimal_disruption,
    prove_placement,
    ring_point,
)
from .sharded import (
    MeshRecoveryReport,
    Shard,
    ShardRecovery,
    ShardedBroker,
    WildcardSubscription,
)

__all__ = [
    "HashRing",
    "PlacementProof",
    "placement_key",
    "prove_placement",
    "prove_minimal_disruption",
    "ring_point",
    "MembershipEvent",
    "MeshMembership",
    "PartitionMove",
    "PartitionTable",
    "ShardState",
    "TransferLog",
    "MeshRecoveryReport",
    "Shard",
    "ShardRecovery",
    "ShardedBroker",
    "WildcardSubscription",
    "HandoffReport",
    "HandoffSession",
    "RebalanceEngine",
    "RebalanceReport",
]
