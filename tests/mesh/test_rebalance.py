"""Tests for the rebalance engine and the handoff protocol.

Includes the compaction-during-handoff case: a source-journal checkpoint
that deletes the segment the transfer's ``JournalTailer`` is positioned
in must reposition the tailer onto the snapshot without losing a single
moved message.
"""

import pytest

from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.durability import SimulatedDisk, scan_disk
from repro.durability.recovery import collect_live_entries
from repro.mesh.membership import ShardState
from repro.mesh.rebalance import HandoffSession, RebalanceEngine
from repro.mesh.sharded import ShardedBroker


def build_mesh(n_queues=16, ops=32, consumers_on=0):
    """3-shard mesh with a deterministic backlog (and optional consumers)."""
    mesh = ShardedBroker(["s0", "s1", "s2"], lease_duration=0.5)
    names = [f"q-{i}" for i in range(n_queues)]
    for name in names:
        mesh.create_queue(name)
    for name in names[:consumers_on]:
        mesh.attach_consumer(name, QueueConsumer(f"c-{name}"))
    sent = set()
    now = 0.0
    for i in range(ops):
        message = Message(topic="mesh", body=f"op-{i}".encode())
        mesh.send(names[i % n_queues], message, now=now)
        sent.add(message.message_id)
        now += 0.001
    return mesh, names, sent, now


def live_ids(mesh):
    """Every message id held anywhere on non-crashed shards (with repeats)."""
    found = []
    for shard in mesh.shards():
        if shard.crashed:
            continue
        for queue in shard.broker.queues:
            found.extend(m.message_id for m, _ in queue._backlog)
            for consumer in queue.consumers:
                found.extend(d.message.message_id for d in consumer.inbox)
                found.extend(consumer.unacked)
    return found


class TestCleanRebalance:
    def test_join_moves_keys_and_messages(self, assert_conserved):
        mesh, _names, sent, now = build_mesh(consumers_on=4)
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        assert event.moves
        engine = RebalanceEngine(mesh)
        engine.now = now
        report = engine.rebalance(event)
        assert report.completed, report.errors
        assert mesh.membership.state("s3") is ShardState.ACTIVE
        for move in event.moves:
            assert mesh.membership.table.owner(move.key) == "s3"
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert not mesh.membership.table.migrating_keys
        assert_conserved(mesh.mesh_ledger())

    def test_leave_retires_shard(self, assert_conserved):
        mesh, _names, sent, now = build_mesh()
        event = mesh.membership.leave("s2")
        engine = RebalanceEngine(mesh)
        engine.now = now
        report = engine.rebalance(event)
        assert report.completed, report.errors
        assert mesh.membership.state("s2") is ShardState.DEAD
        assert mesh.membership.table.owned_by("s2") == ()
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())

    def test_crash_event_ships_from_surviving_disk(self, assert_conserved):
        mesh, _names, sent, now = build_mesh()
        mesh.crash_shard("s2", now=now)
        event = mesh.membership.crash("s2")
        engine = RebalanceEngine(mesh)
        engine.now = now
        report = engine.rebalance(event)
        assert report.completed, report.errors
        # the dead process never came back, yet nothing was lost: the
        # tailer shipped its partitions out of the surviving journal
        assert mesh.shard("s2").crashed
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())


class TestFaultedRebalance:
    def test_source_crash_mid_handoff_still_commits(self, assert_conserved):
        mesh, _names, sent, now = build_mesh()
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        engine = RebalanceEngine(mesh)
        engine.now = now
        fired = []

        def hook(eng, session, step_index):
            if not fired and step_index == 2:
                fired.append(session.source)
                mesh.crash_shard(session.source, now=eng.now)

        report = engine.rebalance(event, hook=hook)
        assert fired and report.completed, report.errors
        recovery = mesh.recover(engine.now)
        assert recovery.ok
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())

    def test_dest_crash_retries_with_fresh_epoch(self, assert_conserved):
        mesh, _names, sent, now = build_mesh()
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        engine = RebalanceEngine(mesh)
        engine.now = now
        fired = []

        def hook(eng, session, step_index):
            if not fired and step_index == 3:
                fired.append((session.source, session.dest))
                mesh.crash_shard(session.dest, now=eng.now)

        report = engine.rebalance(event, hook=hook)
        assert fired and report.completed, report.errors
        source, dest = fired[0]
        retried = [
            h for h in report.handoffs if (h.source, h.dest) == (source, dest)
        ]
        assert len(retried) >= 2
        epochs = [h.epoch for h in retried]
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
        assert retried[-1].committed
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())

    def test_link_drop_forces_go_back_n(self, assert_conserved):
        mesh, _names, sent, now = build_mesh()
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        engine = RebalanceEngine(mesh)
        engine.now = now
        fired = []

        def hook(eng, session, step_index):
            if not fired and step_index == 1:
                fired.append(True)
                session.link.drop_next(2)

        report = engine.rebalance(event, hook=hook)
        assert fired and report.completed, report.errors
        assert sum(h.retransmissions for h in report.handoffs) > 0
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())

    def test_dest_disk_write_fault_is_resent_not_skipped(self, assert_conserved):
        # The receiver is a StandbyReplica: a frame it could not write is
        # not acknowledged, the ``applied_sequence`` gate keeps the session
        # in "ship", and go-back-N lands every record exactly once.
        mesh, _names, sent, now = build_mesh()
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        engine = RebalanceEngine(mesh)
        engine.now = now
        receivers = []

        def hook(eng, session, step_index):
            if session.receiver is not None and session.receiver not in receivers:
                receivers.append(session.receiver)
                mesh.shard(session.dest).disk.fail_writes(1)

        report = engine.rebalance(event, hook=hook)
        assert report.completed, report.errors
        assert receivers and all(r.journal_write_failures == 1 for r in receivers)
        assert sum(h.retransmissions for h in report.handoffs) >= len(receivers)
        assert all(
            r.records_applied == h.records_shipped
            for r, h in zip(receivers, report.handoffs)
        )
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())

    def test_step_budget_exhaustion_reported(self):
        mesh, _names, _sent, now = build_mesh()
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
        engine = RebalanceEngine(mesh, max_steps=2)
        engine.now = now
        report = engine.rebalance(event)
        assert not report.completed
        assert any("budget" in error for error in report.errors)
        # the finally-block cleared the migration flags even on abort
        assert not mesh.membership.table.migrating_keys


class TestCompactionDuringHandoff:
    def test_checkpoint_mid_transfer_repositions_tailer(self, assert_conserved):
        # Small segments so the pre-handoff history spans many segments.
        mesh = ShardedBroker(["s0", "s1"], segment_bytes=512)
        mesh.create_queue("jobs")
        sent = set()
        for i in range(24):
            message = Message(topic="jobs", body=f"op-{i:03}".encode())
            mesh.send("jobs", message, now=i * 1e-3)
            sent.add(message.message_id)
        source = mesh.owner_id("queue", "jobs")
        dest = next(s for s in mesh.shard_ids if s != source)
        journal = mesh.shard(source).journal
        assert len(journal.segments) > 2

        session = HandoffSession(mesh, source, dest, ["queue|jobs"])
        now = 1.0
        assert session.step(now) == "fence"
        for _ in range(2):
            now += 0.01
            session.step(now)
        held, _ = session.tailer.position
        # Compaction lands while the transfer is mid-ship and deletes the
        # very segment the tailer holds.
        journal.checkpoint(
            collect_live_entries(mesh.shard(source).broker), now=now
        )
        assert held not in journal.segments
        for _ in range(200):
            if session.done:
                break
            now += 0.01
            session.step(now)
        assert session.done and session.report.committed
        assert session.tailer.repositions >= 1
        # zero loss: the snapshot subsumed everything the tailer skipped
        assert mesh.shard(dest).broker.queues.get("jobs").depth == len(sent)
        assert mesh.membership.table.owner("queue|jobs") == dest
        assert sorted(live_ids(mesh)) == sorted(sent)
        assert_conserved(mesh.mesh_ledger())


    def test_the_receiver_compacts_only_its_own_journal_on_the_shared_disk(self):
        mesh = ShardedBroker(["s0", "s1"], segment_bytes=512)
        mesh.create_queue("jobs")
        for i in range(24):
            mesh.send("jobs", Message(topic="jobs", body=f"op-{i:03}".encode()), now=i * 1e-3)
        source = mesh.owner_id("queue", "jobs")
        dest = next(s for s in mesh.shard_ids if s != source)
        journal = mesh.shard(source).journal
        session = HandoffSession(mesh, source, dest, ["queue|jobs"])
        now = 1.0
        for _ in range(3):
            session.step(now)
            now += 0.01
        dest_disk = mesh.shard(dest).disk
        own = {n: d for n, d in dest_disk.snapshot().items() if n.startswith("journal.")}
        assert own and session.receiver.journal.records_appended > 0
        journal.checkpoint(collect_live_entries(mesh.shard(source).broker), now=now)
        while session.state == "ship":
            now += 0.01
            session.step(now)
        receiver = session.receiver
        assert receiver.journal.checkpoints == 1
        # The staging journal is the snapshot and what followed it ...
        image = SimulatedDisk.from_snapshot(dest_disk.snapshot())
        kinds = [r.kind.name for r in scan_disk(image, receiver.name).records]
        assert kinds[0] == "CHECKPOINT" and kinds.count("CHECKPOINT") == 1
        assert len(receiver.journal.record_locations) == len(kinds)
        assert len(receiver.fold.result.live) == 24
        # ... and the destination shard's own journal was not touched.
        assert {
            n: d for n, d in dest_disk.snapshot().items() if n.startswith("journal.")
        } == own


class TestValidation:
    def test_session_parameter_validation(self):
        mesh = ShardedBroker(["s0", "s1"])
        with pytest.raises(ValueError):
            HandoffSession(mesh, "s0", "s1", ["queue|a"], batch_records=0)
        with pytest.raises(ValueError):
            HandoffSession(mesh, "s0", "s1", ["queue|a"], stall_limit=0)

    def test_engine_parameter_validation(self):
        mesh = ShardedBroker(["s0", "s1"])
        with pytest.raises(ValueError):
            RebalanceEngine(mesh, dt=0.0)
        with pytest.raises(ValueError):
            RebalanceEngine(mesh, max_attempts=0)
