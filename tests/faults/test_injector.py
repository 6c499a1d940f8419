"""Tests for the fault injector (schedule replay on a live server)."""

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RetryPolicy,
    RetryingPoissonPublisher,
)
from repro.rng import RandomStreams


def arm(rig, schedule):
    injector = FaultInjector(engine=rig.engine, server=rig.server, schedule=schedule)
    injector.arm()
    return injector


def load(rig, rate=20.0, stop_time=4.0, seed=5):
    streams = RandomStreams(seed=seed)
    publisher = RetryingPoissonPublisher(
        engine=rig.engine,
        server=rig.server,
        rate=rate,
        message_factory=rig.make_message,
        rng=streams.stream("arrivals"),
        retry_rng=streams.stream("retry"),
        policy=RetryPolicy(),
        stop_time=stop_time,
    )
    publisher.start()
    return publisher


class TestCrashWindows:
    def test_crash_and_restart_at_scheduled_times(self, rig):
        injector = arm(rig, FaultSchedule.single_outage(at=1.0, duration=0.5))
        load(rig)
        rig.engine.run()
        assert rig.server.up
        assert rig.server.ledger.crashes == 1
        (record,) = injector.log
        assert record.applied_at == pytest.approx(1.0)
        assert record.recovered_at == pytest.approx(1.5)

    def test_multiple_outages(self, rig):
        schedule = FaultSchedule.periodic_outages(first=0.5, period=1.0, duration=0.2, count=3)
        arm(rig, schedule)
        load(rig)
        rig.engine.run()
        assert rig.server.ledger.crashes == 3
        assert rig.server.up


class TestSubscriberDisconnect:
    def test_disconnect_window_retains_durably(self, rig):
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=0.5,
                    kind=FaultKind.SUBSCRIBER_DISCONNECT,
                    duration=1.0,
                    target="match-0",
                )
            ]
        )
        injector = arm(rig, schedule)
        load(rig)
        rig.engine.run()
        (record,) = injector.log
        assert record.recovered_at == pytest.approx(1.5)
        assert "replayed" in record.detail
        subscriber = rig.broker.get_subscriber("match-0")
        assert subscriber.connected
        # Everything dispatched eventually reaches the durable subscriber.
        assert len(subscriber.inbox) == rig.server.ledger.delivered


class TestDegradations:
    def test_slow_consumer_window_inflates_service(self, rig):
        schedule = FaultSchedule(
            [FaultEvent(time=0.0, kind=FaultKind.SLOW_CONSUMER, duration=2.0, magnitude=8.0)]
        )
        arm(rig, schedule)
        rig.engine.run(until=0.01)  # apply the degradation event at t=0
        assert rig.server.slowdown == 8.0
        rig.server.submit(rig.make_message())
        rig.engine.run(until=1.0)
        degraded_mean = rig.server.service_times.mean()
        rig.engine.run()  # window ends, speed restored
        assert rig.server.slowdown == 1.0
        rig.server.submit(rig.make_message())
        rig.engine.run()
        # The healthy second sample pulls the running mean down.
        assert rig.server.service_times.mean() < degraded_mean

    def test_drop_and_corrupt_counts(self, rig):
        schedule = FaultSchedule(
            [
                FaultEvent(time=0.0, kind=FaultKind.MESSAGE_DROP, magnitude=2.0),
                FaultEvent(time=0.0, kind=FaultKind.MESSAGE_CORRUPT, magnitude=1.0),
            ]
        )
        arm(rig, schedule)
        rig.engine.run()
        for _ in range(6):
            rig.server.submit(rig.make_message())
        rig.engine.run()
        assert rig.server.ledger.dropped_by_fault == 2
        assert len(rig.server.dead_letters) == 1
        assert rig.server.ledger.completed == 3
        assert rig.broker.stats.dropped_by_fault == 2
        assert rig.broker.stats.dead_lettered == 1


class TestDiskFaults:
    def make_disk(self):
        from repro.durability import SimulatedDisk

        disk = SimulatedDisk(RandomStreams(0))
        disk.create("journal.00000000.seg")
        disk.append("journal.00000000.seg", b"synced bytes")
        disk.sync("journal.00000000.seg")
        disk.append("journal.00000000.seg", b"unsynced tail bytes")
        return disk

    def test_arm_requires_a_disk_for_disk_kinds(self, rig):
        schedule = FaultSchedule([FaultEvent(time=1.0, kind=FaultKind.TORN_WRITE)])
        injector = FaultInjector(engine=rig.engine, server=rig.server, schedule=schedule)
        with pytest.raises(ValueError, match="no SimulatedDisk is armed"):
            injector.arm()

    def test_torn_write_tears_the_unsynced_tail(self, rig):
        disk = self.make_disk()
        schedule = FaultSchedule([FaultEvent(time=1.0, kind=FaultKind.TORN_WRITE)])
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, disk=disk
        )
        injector.arm()
        rig.engine.run()
        assert disk.read("journal.00000000.seg")[:12] == b"synced bytes"
        assert injector.log[0].detail.startswith("tore ")

    def test_disk_fault_fails_the_next_appends(self, rig):
        from repro.durability import DiskWriteError

        disk = self.make_disk()
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.DISK_FAULT, magnitude=2.0)]
        )
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, disk=disk
        )
        injector.arm()
        rig.engine.run()
        for _ in range(2):
            with pytest.raises(DiskWriteError):
                disk.append("journal.00000000.seg", b"doomed")
        disk.append("journal.00000000.seg", b"fine again")

    def test_torn_write_on_empty_disk_is_a_noop(self, rig):
        from repro.durability import SimulatedDisk

        disk = SimulatedDisk(RandomStreams(0))
        schedule = FaultSchedule([FaultEvent(time=1.0, kind=FaultKind.TORN_WRITE)])
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, disk=disk
        )
        injector.arm()
        rig.engine.run()
        assert injector.log[0].detail == "no files on disk to tear"


class TestReplicationFaults:
    def test_arm_requires_a_link_for_link_kinds(self, rig):
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.LINK_DROP, magnitude=1.0)]
        )
        injector = FaultInjector(engine=rig.engine, server=rig.server, schedule=schedule)
        with pytest.raises(ValueError, match="no SimulatedLink is armed"):
            injector.arm()

    def test_arm_requires_a_pair_for_lease_pauses(self, rig):
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.LEASE_PAUSE, duration=0.5)]
        )
        injector = FaultInjector(engine=rig.engine, server=rig.server, schedule=schedule)
        with pytest.raises(ValueError, match="no ReplicatedPair is armed"):
            injector.arm()

    def test_link_drop_eats_the_next_frames(self, rig):
        from repro.replication import SimulatedLink

        link = SimulatedLink(RandomStreams(0), delay=0.0)
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.LINK_DROP, magnitude=2.0)]
        )
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, link=link
        )
        injector.arm()
        rig.engine.run()
        assert not link.send(b"a", now=2.0)
        assert not link.send(b"b", now=2.0)
        assert link.send(b"c", now=2.0)
        assert injector.log[0].detail == "drop next 2 ship frame(s)"

    def test_link_delay_windows_the_extra_latency(self, rig):
        from repro.replication import SimulatedLink

        link = SimulatedLink(RandomStreams(0), delay=0.01)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.LINK_DELAY, duration=2.0, magnitude=0.5
                )
            ]
        )
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, link=link
        )
        injector.arm()
        rig.engine.run()
        link.send(b"slow", now=2.0)  # inside [1, 3): pays +0.5s
        assert link.deliver_due(2.1) == []
        assert link.deliver_due(2.51) == [b"slow"]
        link.send(b"fast", now=3.5)  # window over
        assert link.deliver_due(3.51) == [b"fast"]
        (record,) = injector.log
        assert record.recovered_at == pytest.approx(3.0)

    def test_lease_pause_pauses_then_revives_the_primary(self, rig):
        from repro.replication import ReplicatedPair, ReplicationConfig

        pair = ReplicatedPair(
            ReplicationConfig(lease_duration=10.0, renew_interval=1.0), seed=0
        )
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.LEASE_PAUSE, duration=0.5)]
        )
        injector = FaultInjector(
            engine=rig.engine, server=rig.server, schedule=schedule, pair=pair
        )
        injector.arm()
        rig.engine.call_at(1.2, lambda: pause_flags.append(pair.primary_paused))
        pause_flags = []
        rig.engine.run()
        assert pause_flags == [True]
        assert not pair.primary_paused
        (record,) = injector.log
        assert record.recovered_at == pytest.approx(1.5)
        assert "paused" in record.detail
