"""Tests for the ShardedBroker facade: routing, wildcards, recovery."""

import pytest

from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.mesh.sharded import ShardedBroker
from repro.overload.health import HealthState


def msg(body=b"x", topic="mesh"):
    return Message(topic=topic, body=body)


class TestRouting:
    def test_queue_routes_to_ring_owner(self):
        mesh = ShardedBroker(["s0", "s1", "s2"])
        for i in range(12):
            mesh.create_queue(f"q-{i}")
        for i in range(12):
            owner = mesh.owner_id("queue", f"q-{i}")
            assert f"q-{i}" in mesh.shard(owner).broker.queues
            # the other shards never materialized the queue
            for other in mesh.shard_ids:
                if other != owner:
                    assert f"q-{i}" not in mesh.shard(other).broker.queues

    def test_send_lands_on_owner_only(self):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("jobs")
        mesh.send("jobs", msg(), now=0.0)
        owner = mesh.owner_id("queue", "jobs")
        assert mesh.shard(owner).broker.queues.get("jobs").enqueued == 1
        assert mesh.routed_sends == 1

    def test_consumer_attach_and_ack(self, assert_conserved):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("jobs")
        consumer = QueueConsumer("c0")
        mesh.attach_consumer("jobs", consumer)
        mesh.send("jobs", msg(), now=0.0)
        delivery = consumer.receive()
        assert delivery is not None
        consumer.ack(delivery)
        assert_conserved(mesh.mesh_ledger())


class TestWildcardDispatch:
    def test_concrete_subscription_installs_immediately(self):
        mesh = ShardedBroker(["s0", "s1"], topics=["news.sport"])
        sub = mesh.subscribe("alice", "news.sport")
        assert sub.installed_topics == ["news.sport"]
        result = mesh.publish(msg(topic="news.sport"), now=0.0)
        assert result is not None
        assert len(sub.received) == 1

    def test_wildcard_fans_out_across_owner_shards(self):
        mesh = ShardedBroker(["s0", "s1", "s2"])
        sub = mesh.subscribe("bob", "news.*")
        topics = [f"news.t{i}" for i in range(8)]
        for name in topics:
            mesh.publish(msg(topic=name), now=0.0)
        assert sorted(sub.installed_topics) == sorted(topics)
        assert len(sub.received) == len(topics)
        # the topics live on more than one shard: real cross-shard fan-in
        owners = {mesh.owner_id("topic", name) for name in topics}
        assert len(owners) > 1
        assert mesh.wildcard_deliveries == len(topics)

    def test_received_holds_the_delivered_copies(self):
        mesh = ShardedBroker(["s0", "s1"], topics=["news.sport"])
        sub = mesh.subscribe("dave", "news.sport")
        published = msg(topic="news.sport")
        mesh.publish(published, now=0.0)
        assert sub.received[0].message is published
        assert sub.received[0].subscriber_id == "dave"

    def test_a_shard_fault_other_than_an_unknown_subscriber_propagates(self, monkeypatch):
        """Only "not on this shard yet" adds the subscriber; any other error
        from the shard is the caller's to see."""
        mesh = ShardedBroker(["s0", "s1"], topics=["news.sport"])
        owner = mesh.shard(mesh.owner_id("topic", "news.sport")).broker

        def broken(subscriber_id):
            raise RuntimeError("shard fault")

        monkeypatch.setattr(owner, "get_subscriber", broken)
        with pytest.raises(RuntimeError, match="shard fault"):
            mesh.subscribe("erin", "news.sport")
        assert owner.subscriber_ids() == []

    def test_non_matching_topic_not_installed(self):
        mesh = ShardedBroker(["s0", "s1"])
        sub = mesh.subscribe("carol", "news.*")
        mesh.publish(msg(topic="sports.football"), now=0.0)
        assert sub.installed_topics == []
        assert sub.received == []


class TestDegradedRouting:
    def test_shedding_shard_sheds_only_its_partitions(self):
        mesh = ShardedBroker(["s0", "s1", "s2"])
        names = [f"q-{i}" for i in range(12)]
        for name in names:
            mesh.create_queue(name)
        shed = mesh.owner_id("queue", names[0])
        mesh.set_health(shed, HealthState.SHEDDING)
        landed = refused = 0
        for name in names:
            before = mesh.shed_unavailable
            mesh.send(name, msg(), now=0.0)
            if mesh.shed_unavailable == before:
                landed += 1
            else:
                refused += 1
                assert mesh.owner_id("queue", name) == shed
        assert refused > 0 and landed > 0
        mesh.set_health(shed, HealthState.HEALTHY)
        before = mesh.shed_unavailable
        mesh.send(names[0], msg(), now=1.0)
        assert mesh.shed_unavailable == before

    def test_survivor_trajectory_scales_rho_by_ring_weight(self):
        mesh = ShardedBroker(["s0", "s1", "s2"])
        weight = mesh.membership.ring.weights()["s1"]
        trajectory = mesh.survivor_trajectory(
            "s1", rho_before=0.5, failover_at=1.0, horizon=4.0
        )
        assert trajectory.rho_after == pytest.approx(0.5 / (1 - weight))

    def test_unknown_failed_shard_rejected(self):
        mesh = ShardedBroker(["s0", "s1"])
        with pytest.raises(ValueError):
            mesh.survivor_trajectory("nope", 0.5, 1.0, 4.0)


class TestCrashRecovery:
    def test_recover_restores_journalled_messages(self, assert_conserved):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("jobs")
        for i in range(5):
            mesh.send("jobs", msg(body=f"{i}".encode()), now=0.0)
        owner = mesh.owner_id("queue", "jobs")
        mesh.crash_shard(owner, now=1.0)
        report = mesh.recover(now=2.0)
        assert report.ok
        queue = mesh.shard(owner).broker.queues.get("jobs")
        assert queue.depth == 5
        assert_conserved(mesh.mesh_ledger())

    def test_recover_is_a_noop_without_crashes(self):
        mesh = ShardedBroker(["s0", "s1"])
        report = mesh.recover(now=0.0)
        assert report.ok and report.shards == []

    def test_roll_forward_discards_keys_owned_elsewhere(self, assert_conserved):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("jobs")
        for i in range(3):
            mesh.send("jobs", msg(body=f"{i}".encode()), now=0.0)
        owner = mesh.owner_id("queue", "jobs")
        other = next(s for s in mesh.shard_ids if s != owner)
        mesh.crash_shard(owner, now=1.0)
        # the partition table reassigned the key while the shard was down
        mesh.membership.table.flip("queue|jobs", other)
        report = mesh.recover(now=2.0)
        assert report.ok and report.rolled_forward == 3
        assert mesh.shard(owner).broker.queues.get("jobs").depth == 0
        assert_conserved(mesh.mesh_ledger())

    def test_ledger_shape_matches_conftest_fixture(self, assert_conserved):
        mesh = ShardedBroker(["s0", "s1", "s2"])
        for i in range(8):
            mesh.create_queue(f"q-{i}")
            mesh.send(f"q-{i}", msg(), now=0.0)
        assert_conserved(mesh.mesh_ledger(), context="mesh ledger")


class TestMigrationGuard:
    def test_sends_to_migrating_keys_deferred(self):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("jobs")
        mesh.membership.table.begin_migration(["queue|jobs"])
        assert mesh.send("jobs", msg(), now=0.0) is False
        assert mesh.deferred_migrating == 1
        mesh.membership.table.end_migration(["queue|jobs"])
        mesh.send("jobs", msg(), now=0.0)
        assert mesh.deferred_migrating == 1
