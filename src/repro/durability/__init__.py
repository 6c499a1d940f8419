"""Durability: a real storage layer for the persistent delivery mode.

The paper benchmarks FioranoMQ in *persistent* mode; this package
supplies the mechanism that mode implies and the tools to trust it:

- :mod:`~repro.durability.disk` — a deterministic simulated disk with
  torn-write, bit-corruption and write-failure injection;
- :mod:`~repro.durability.journal` — a segmented, CRC-checksummed
  write-ahead log with ``always``/``group_commit``/``never`` sync
  policies, checkpointing and compaction;
- :mod:`~repro.durability.recovery` — crash recovery that scans,
  repairs (torn-tail truncation, mid-log quarantine) and replays the log
  into a :class:`~repro.broker.Broker`;
- :mod:`~repro.durability.capacity` — the ``t_sync/b`` durability cost
  folded into the paper's Eq. 1/Eq. 2 capacity model.

The crash-consistency matrix that proves recovery correct lives in the
laboratory, :mod:`repro.chaos.crash`.
"""

from .capacity import (
    DurabilityCapacityPoint,
    amortized_sync_overhead,
    durability_capacity_sweep,
)
from .disk import DiskCrashReport, DiskError, DiskWriteError, SimulatedDisk
from .journal import (
    Journal,
    JournalError,
    JournalRecord,
    JournalWriteError,
    RecordKind,
    RecordLocation,
    SyncPolicy,
)
from .recovery import (
    IncrementalFold,
    LiveEntry,
    QuarantinedRange,
    RecoveryReport,
    ScanResult,
    TornTail,
    collect_live_entries,
    fold_records,
    recover_broker,
    scan_disk,
)
from .tail import JournalTailer, TailedRecord

__all__ = [
    "SimulatedDisk",
    "DiskError",
    "DiskWriteError",
    "DiskCrashReport",
    "Journal",
    "JournalError",
    "JournalWriteError",
    "JournalRecord",
    "RecordKind",
    "RecordLocation",
    "SyncPolicy",
    "RecoveryReport",
    "ScanResult",
    "TornTail",
    "QuarantinedRange",
    "LiveEntry",
    "IncrementalFold",
    "JournalTailer",
    "TailedRecord",
    "scan_disk",
    "fold_records",
    "collect_live_entries",
    "recover_broker",
    "amortized_sync_overhead",
    "DurabilityCapacityPoint",
    "durability_capacity_sweep",
]
