"""Chaos matrices for the durable, replicated and sharded broker.

A laboratory package: it crashes and faults the product from outside and
checks what survives.  Nothing in the product imports it.

- :mod:`~repro.chaos.kernel` — the shared :class:`ChaosPoint`,
  :class:`ChaosReport` and survivor oracle;
- :mod:`~repro.chaos.crash` — an ALICE-style crash-consistency matrix:
  recover the journal at every record boundary, sampled intra-record
  offsets and every segment-header offset;
- :mod:`~repro.chaos.failover` — crash the replicated primary after every
  workload step under link faults, promote the standby, lose no
  sync-acknowledged message; plus the lease-pause split-brain check;
- :mod:`~repro.chaos.rebalance` — every fault kind at every protocol step
  of every mesh membership event: no lost, resurrected or doubly owned
  message.

``repro bench durability|replication|mesh`` runs each matrix at its
recorded size.
"""

from .kernel import ChaosPoint, ChaosReport, survivor_violations

__all__ = ["ChaosPoint", "ChaosReport", "survivor_violations"]
