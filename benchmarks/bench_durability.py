"""Durability — recovery cost vs journal size and the capacity price of sync.

Beyond the paper: the WAL makes persistent messages survive crashes, but
every synchronous flush adds ``t_sync`` to the service time, so capacity
drops from λ_max = ρ/E[B] to ρ/(E[B] + t_sync/b) under group commit with
batch ``b``.  This bench prints the trade-off curve, times recovery as a
function of journal size (it must stay linear — records/s roughly flat),
and runs the crash-consistency harness end to end.
"""

from __future__ import annotations

import time

import pytest

from repro.broker import Broker
from repro.broker.message import Message
from repro.chaos.crash import run_crash_consistency_harness
from repro.core import CORRELATION_ID_COSTS, server_capacity
from repro.durability import Journal, SimulatedDisk, SyncPolicy, durability_capacity_sweep
from repro.simulation import RandomStreams

from conftest import FULL, banner, report

JOURNAL_SIZES = (500, 2000, 8000) if FULL else (250, 1000)
HARNESS_MESSAGES = 60 if FULL else 30
HARNESS_INTRA = 200 if FULL else 60
T_SYNC = 2e-4
N_FLTR = 500
MEAN_REPLICATION = 3.0


def _journal_image(records: int) -> dict:
    disk = SimulatedDisk(RandomStreams(0))
    journal = Journal(disk, sync=SyncPolicy.never(), segment_bytes=64 * 1024)
    for i in range(records):
        journal.log_publish(
            "queue",
            "orders",
            Message(topic="orders", properties={"seq": i}, body=b"x" * 64),
            now=i * 1e-3,
        )
    journal.sync()
    journal.close()
    return disk.snapshot()


def _recover(snapshot: dict, records: int) -> tuple:
    disk = SimulatedDisk.from_snapshot(snapshot)
    journal = Journal(disk, sync=SyncPolicy.never(), segment_bytes=64 * 1024)
    broker = Broker(journal=journal)
    start = time.perf_counter()
    broker.recover(reconnect_subscribers=False, now=records * 1e-3)
    elapsed = time.perf_counter() - start
    journal.close()
    return broker.last_recovery, elapsed


@pytest.fixture(scope="module")
def recovery_sweep():
    rows = {}
    lines = []
    for records in JOURNAL_SIZES:
        snapshot = _journal_image(records)
        best = float("inf")
        last = None
        for _ in range(3):
            last, elapsed = _recover(snapshot, records)
            best = min(best, elapsed)
        rows[records] = (last, best)
        lines.append(
            f"  {records:5d} records  {best * 1e3:7.2f} ms  "
            f"{records / best:9.0f} rec/s  requeued {last.requeued}"
        )
    banner("Durability: recovery wall-clock vs journal size")
    for line in lines:
        report(line)
    return rows


@pytest.fixture(scope="module")
def capacity_rows():
    return durability_capacity_sweep(
        CORRELATION_ID_COSTS, N_FLTR, MEAN_REPLICATION, t_sync=T_SYNC
    )


def test_recovery_replays_every_record(recovery_sweep):
    for records, (result, _elapsed) in recovery_sweep.items():
        assert result.clean
        assert result.requeued == records


def test_recovery_scales_linearly(recovery_sweep):
    # records/s should not collapse as the journal grows (no quadratic scan)
    rates = [n / elapsed for n, (_r, elapsed) in recovery_sweep.items()]
    assert min(rates) > 0.3 * max(rates)


def test_capacity_monotone_in_batch(capacity_rows):
    lambdas = [p.lambda_max for p in capacity_rows]
    assert all(a <= b + 1e-9 for a, b in zip(lambdas, lambdas[1:]))
    banner("Durability: capacity lambda_max vs sync policy (t_sync/b model)")
    for p in capacity_rows:
        report(
            f"  {p.policy:>24}  E[B] {p.mean_service_time * 1e3:7.4f} ms  "
            f"lambda_max {p.lambda_max:7.1f}/s  {p.capacity_fraction:6.1%}"
        )


def test_sync_never_is_free(capacity_rows):
    baseline = server_capacity(CORRELATION_ID_COSTS, N_FLTR, MEAN_REPLICATION, rho=0.9)
    never = next(p for p in capacity_rows if p.policy == "never")
    assert abs(never.lambda_max - baseline) / baseline < 0.01


def test_crash_consistency_harness():
    result = run_crash_consistency_harness(
        seed=0, messages=HARNESS_MESSAGES, intra_samples=HARNESS_INTRA
    )
    banner("Durability: crash-consistency harness")
    summary = result.to_dict()
    report(
        f"  {summary['records']} records, {summary['boundary_points']} boundary + "
        f"{summary['intra_points']} torn-write + "
        f"{summary['header_points']} segment-header crash points, "
        f"{len(result.violations)} violation(s)"
    )
    assert result.ok, result.violations[:5]
