"""Tests for the cross-shard no-lost-message chaos harness."""

import functools
import operator

import pytest

from repro.broker.ledger import FATE_TABLE, Ledger
from repro.mesh import ShardedBroker
from repro.mesh.harness import (
    EVENT_KINDS,
    FAULT_KINDS,
    MeshChaosReport,
    MeshPointResult,
    run_mesh_chaos_harness,
)


class TestSmokeMatrix:
    def test_single_fault_single_event_subset(self):
        report = run_mesh_chaos_harness(
            seed=0, ops=18, queues=8, fault_kinds=("link-drop",), event_kinds=("join",)
        )
        assert report.ok, [p.to_dict() for p in report.failures]
        # one clean point plus one faulted point per protocol step
        assert len(report.points) > 2
        assert report.points[0].fault == "none"

    def test_crash_faults_subset(self):
        report = run_mesh_chaos_harness(
            seed=1,
            ops=18,
            queues=8,
            fault_kinds=("crash-source", "crash-dest"),
            event_kinds=("leave",),
        )
        assert report.ok, [p.to_dict() for p in report.failures]
        # destination crashes force retries somewhere in the matrix
        assert any(p.attempts > 1 for p in report.points)

    def test_crash_event_with_link_faults(self):
        report = run_mesh_chaos_harness(
            seed=0,
            ops=18,
            queues=8,
            fault_kinds=("link-delay",),
            event_kinds=("crash",),
        )
        assert report.ok, [p.to_dict() for p in report.failures]


class TestFullMatrixScale:
    def test_default_matrix_exceeds_two_hundred_points(self, monkeypatch):
        """The ISSUE acceptance bar: >= 200 points, zero violations —
        and at every point the mesh ledger the harness checks is the
        by-hand fold of each queue's counters and gauges."""
        product_ledger = ShardedBroker.mesh_ledger
        folded = []

        def cross_checked(mesh):
            ledger = product_ledger(mesh)
            queues = [q for shard in mesh.shards() for q in shard.broker.queues]
            for fate in FATE_TABLE:
                assert getattr(ledger, fate.name) == sum(
                    getattr(q, fate.name) for q in queues
                ), fate.name
            assert ledger.depth == sum(q.depth for q in queues)
            assert ledger.in_flight == sum(
                len(c.inbox) + len(c.unacked) for q in queues for c in q.consumers
            )
            assert ledger == functools.reduce(
                operator.add, (q.closed_ledger() for q in queues), Ledger()
            )
            folded.append(ledger)
            return ledger

        monkeypatch.setattr(ShardedBroker, "mesh_ledger", cross_checked)
        report = run_mesh_chaos_harness(seed=0)
        assert len(folded) == len(report.points)
        assert any(ledger.transferred_out for ledger in folded)
        assert report.ok, [p.to_dict() for p in report.failures]
        assert len(report.points) >= 200
        assert {p.event for p in report.points} == set(EVENT_KINDS)
        assert {p.fault for p in report.points} == set(FAULT_KINDS) | {"none"}
        # availability probes actually ran and never bounced
        probed = [p for p in report.points if p.probe_accepted is not None]
        assert probed
        assert all(p.probe_accepted for p in probed)


class TestReportShapes:
    def test_point_result_shape(self):
        point = MeshPointResult(event="join", fault="link-drop", step=3)
        assert point.ok
        payload = point.to_dict()
        assert payload["event"] == "join"
        assert payload["ok"] is True
        point.violations.append("boom")
        assert not point.ok

    def test_chaos_report_shape(self):
        report = MeshChaosReport(seed=0, ops=10, queues=4)
        assert not report.ok  # no points yet is not a pass
        report.points.append(MeshPointResult(event="join", fault="none", step=0))
        assert report.ok
        payload = report.to_dict()
        assert payload["points"] == 1 and payload["failures"] == []

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            run_mesh_chaos_harness(
                seed=0, ops=6, queues=4, fault_kinds=("nope",), event_kinds=("join",)
            )
        with pytest.raises((ValueError, RuntimeError)):
            run_mesh_chaos_harness(
                seed=0, ops=6, queues=4, event_kinds=("nope",)
            )
