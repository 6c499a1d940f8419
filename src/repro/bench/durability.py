"""The durability baseline (``BENCH_durability.json``).

Three measurements:

* **Recovery time vs journal size** — journals of 500/2000/8000 publish
  records are scanned, folded and replayed into a fresh broker; the
  wall-clock recovery time and throughput (records/s) are recorded so
  future PRs can spot recovery-path slowdowns (absolute times are
  machine-dependent; the records/s ratio across sizes should stay ~flat
  because recovery is linear in journal size).
* **Group-commit batch vs capacity** — the analytic λ_max(b) sweep from
  ``t_sync / b`` added to E[B].  The acceptance block asserts that the
  ``sync=never`` capacity matches the pre-durability
  :func:`repro.core.capacity.server_capacity` within 0.1% (the journal
  must cost nothing when disabled).
* **Crash-consistency harness summary** — boundary + torn-write points
  checked and the violation count (must be 0).

The recovery rows are wall-clock, so this recording is not reproducible
to the byte; everything the acceptance block reads is deterministic.
"""

from __future__ import annotations

import time
from typing import Any, Dict

QUEUE = "orders"
JOURNAL_SIZES = (500, 2000, 8000)
T_SYNC = 2e-4
N_FLTR = 500
MEAN_REPLICATION = 3.0
RHO = 0.9


def _build_journal(records: int) -> Any:
    """A journal image with ``records`` committed queue publishes."""
    from ..broker.message import Message
    from ..durability import Journal, SimulatedDisk, SyncPolicy
    from ..simulation import RandomStreams

    disk = SimulatedDisk(RandomStreams(0))
    journal = Journal(disk, sync=SyncPolicy.never(), segment_bytes=64 * 1024)
    for i in range(records):
        message = Message(
            topic=QUEUE,
            properties={"seq": i},
            body=b"x" * 64,
            timestamp=i * 1e-3,
        )
        journal.log_publish("queue", QUEUE, message, now=i * 1e-3)
    journal.sync()
    journal.close()
    return disk


def _time_recovery(records: int, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` wall-clock recovery of a ``records``-entry journal."""
    from ..broker import Broker
    from ..durability import Journal, SimulatedDisk, SyncPolicy
    from ..replication import ReplicationLagModel

    snapshot = _build_journal(records).snapshot()
    best = float("inf")
    report = None
    for _ in range(repeats):
        disk = SimulatedDisk.from_snapshot(snapshot)
        journal = Journal(disk, sync=SyncPolicy.never(), segment_bytes=64 * 1024)
        broker = Broker(journal=journal)
        # Wall-clock timing is the point of this row; it never feeds
        # simulation state, so determinism (SIM001) does not apply.
        start = time.perf_counter()  # repro: ignore[SIM001]
        broker.recover(reconnect_subscribers=False, now=records * 1e-3)
        elapsed = time.perf_counter() - start  # repro: ignore[SIM001]
        best = min(best, elapsed)
        report = broker.last_recovery
        journal.close()
    assert report is not None
    # Single-node recovery replays a journal that was synced before the
    # crash, so the recovery point objective is zero by construction: no
    # acked record can be missing.  rto_model folds the measured replay
    # rate into the HA failover model (sync mode, standby holding this
    # journal) so BENCH_replication.json and these rows share one formula.
    replay_rate = records / best if best > 0 else float("inf")
    lag = ReplicationLagModel(
        mode="sync",
        ship_interval=0.05,
        batch_size=16,
        rate=200.0,
        link_delay=0.002,
        lease_duration=0.25,
        renew_interval=0.05,
        replay_rate=replay_rate,
        standby_records=records,
    )
    return {
        "records": records,
        "journal_bytes": sum(len(data) for data in snapshot.values()),
        "segments": len(snapshot),
        "recovery_seconds": best,
        "records_per_second": replay_rate,
        "requeued": report.requeued,
        "clean": report.clean,
        "rpo_records": 0,
        "rto_model": lag.rto_seconds,
    }


def record(fast: bool) -> Dict[str, Any]:
    """One size only: ``fast`` records the same three journals."""
    from ..core import CORRELATION_ID_COSTS, relative_error, server_capacity
    from ..chaos.crash import run_crash_consistency_harness
    from ..durability import durability_capacity_sweep

    recovery_rows = [_time_recovery(n) for n in JOURNAL_SIZES]

    sweep = durability_capacity_sweep(
        CORRELATION_ID_COSTS, N_FLTR, MEAN_REPLICATION, t_sync=T_SYNC, rho=RHO
    )
    baseline_capacity = server_capacity(
        CORRELATION_ID_COSTS, N_FLTR, MEAN_REPLICATION, rho=RHO
    )
    never_row = next(p for p in sweep if p.policy == "never")
    never_rel_err = relative_error(never_row.lambda_max, baseline_capacity)

    harness = run_crash_consistency_harness(seed=0, messages=60, intra_samples=200)

    recovery_ok = all(row["clean"] and row["requeued"] == row["records"] for row in recovery_rows)
    rpo_rto_ok = all(
        row["rpo_records"] == 0 and 0.0 < row["rto_model"] < float("inf")
        for row in recovery_rows
    )
    acceptance = {
        "harness_ok": harness.ok,
        "never_matches_baseline_within_1pct": never_rel_err < 0.01,
        "recovery_replays_every_record": recovery_ok,
        "sync_rpo_zero_and_rto_finite": rpo_rto_ok,
        "pass": harness.ok and never_rel_err < 0.01 and recovery_ok and rpo_rto_ok,
    }
    return {
        "description": (
            "Durability baseline: recovery wall-clock vs journal size, the "
            "analytic group-commit capacity sweep (t_sync/b added to E[B]), "
            "and the crash-consistency harness summary."
        ),
        "config": {
            "t_sync": T_SYNC,
            "n_fltr": N_FLTR,
            "mean_replication": MEAN_REPLICATION,
            "rho": RHO,
            "journal_sizes": list(JOURNAL_SIZES),
        },
        "recovery_time": recovery_rows,
        "capacity_sweep": [p.to_dict() for p in sweep],
        "baseline_capacity": baseline_capacity,
        "never_capacity_rel_err": never_rel_err,
        "harness": harness.to_dict(),
        "acceptance": acceptance,
    }


def report(payload: Dict[str, Any]) -> str:
    lines = [
        f"recovery: {row['records']:5d} records "
        f"({row['journal_bytes'] / 1024:.0f} KiB) in {row['recovery_seconds'] * 1e3:.1f} ms "
        f"= {row['records_per_second']:.0f} rec/s"
        for row in payload["recovery_time"]
    ]
    lines.append(
        f"capacity: never {payload['capacity_sweep'][-1]['lambda_max']:.1f}/s vs "
        f"baseline {payload['baseline_capacity']:.1f}/s "
        f"(rel err {payload['never_capacity_rel_err']:.2%})"
    )
    harness = payload["harness"]
    lines.append(
        f"harness: {harness['points']} crash points, "
        f"{len(harness['violations'])} violation(s)"
    )
    return "\n".join(lines)
