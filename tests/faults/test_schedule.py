"""Tests for fault schedules (validation, builders, seeded randomness)."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.rng import RandomStreams


def crash(at, duration):
    return FaultEvent(time=at, kind=FaultKind.SERVER_CRASH, duration=duration)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.MESSAGE_DROP)

    def test_window_faults_need_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind=FaultKind.SERVER_CRASH)

    def test_disconnect_needs_target(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind=FaultKind.SUBSCRIBER_DISCONNECT, duration=2.0)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(
                time=1.0, kind=FaultKind.SLOW_CONSUMER, duration=2.0, magnitude=0.5
            )

    def test_drop_magnitude_must_be_integral(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind=FaultKind.MESSAGE_DROP, magnitude=1.5)

    def test_end_property(self):
        assert crash(3.0, 2.0).end == 5.0

    def test_nan_time_rejected(self):
        # NaN slips through `< 0` (every NaN comparison is False); the
        # validator must use isfinite, not just the sign check.
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(time=float("nan"), kind=FaultKind.MESSAGE_DROP)

    def test_nan_and_infinite_duration_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FaultEvent(time=1.0, kind=FaultKind.SERVER_CRASH, duration=bad)

    def test_nan_magnitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(
                time=1.0,
                kind=FaultKind.SLOW_CONSUMER,
                duration=1.0,
                magnitude=float("nan"),
            )

    def test_disk_fault_magnitude_is_a_count(self):
        with pytest.raises(ValueError, match="positive integer count"):
            FaultEvent(time=1.0, kind=FaultKind.DISK_FAULT, magnitude=0.5)
        FaultEvent(time=1.0, kind=FaultKind.DISK_FAULT, magnitude=3.0)

    def test_torn_write_is_a_point_fault(self):
        event = FaultEvent(time=2.0, kind=FaultKind.TORN_WRITE)
        assert event.end == 2.0


class TestScheduleValidation:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([crash(10.0, 1.0), crash(2.0, 1.0)])
        assert [e.time for e in schedule] == [2.0, 10.0]

    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="overlapping crash windows"):
            FaultSchedule([crash(0.0, 5.0), crash(3.0, 1.0)])

    def test_back_to_back_crashes_allowed(self):
        schedule = FaultSchedule([crash(0.0, 5.0), crash(5.0, 1.0)])
        assert len(schedule) == 2

    def test_non_crash_faults_may_overlap_crashes(self):
        FaultSchedule(
            [
                crash(0.0, 5.0),
                FaultEvent(
                    time=2.0, kind=FaultKind.SLOW_CONSUMER, duration=10.0, magnitude=2.0
                ),
            ]
        )

    def test_overlap_error_names_both_events(self):
        with pytest.raises(ValueError, match=r"event #0 .* event #1"):
            FaultSchedule([crash(1.0, 5.0), crash(3.0, 1.0)])

    def test_unknown_target_rejected_with_catalog(self):
        disconnect = FaultEvent(
            time=2.5, kind=FaultKind.SUBSCRIBER_DISCONNECT, duration=1.0, target="bob"
        )
        with pytest.raises(ValueError, match=r"unknown target 'bob'; known: alice, carol"):
            FaultSchedule([disconnect], known_targets=["alice", "carol"])

    def test_known_target_accepted(self):
        disconnect = FaultEvent(
            time=2.5, kind=FaultKind.SUBSCRIBER_DISCONNECT, duration=1.0, target="alice"
        )
        schedule = FaultSchedule([disconnect], known_targets=["alice"])
        assert len(schedule) == 1

    def test_targets_unchecked_without_catalog(self):
        disconnect = FaultEvent(
            time=2.5, kind=FaultKind.SUBSCRIBER_DISCONNECT, duration=1.0, target="bob"
        )
        assert len(FaultSchedule([disconnect])) == 1


class TestAccounting:
    def test_downtime_and_availability(self):
        schedule = FaultSchedule([crash(10.0, 5.0), crash(50.0, 5.0)])
        assert schedule.downtime(100.0) == pytest.approx(10.0)
        assert schedule.availability(100.0) == pytest.approx(0.9)

    def test_downtime_clips_at_horizon(self):
        schedule = FaultSchedule([crash(90.0, 20.0), crash(200.0, 5.0)])
        assert schedule.downtime(100.0) == pytest.approx(10.0)

    def test_outages_lists_crash_windows_only(self):
        schedule = FaultSchedule(
            [crash(1.0, 2.0), FaultEvent(time=0.5, kind=FaultKind.MESSAGE_DROP)]
        )
        assert schedule.outages == [(1.0, 2.0)]

    def test_describe_mentions_every_event(self):
        schedule = FaultSchedule.periodic_outages(first=1.0, period=10.0, duration=2.0, count=3)
        text = schedule.describe()
        assert "3 fault event(s)" in text
        assert text.count("server_crash") == 3


class TestBuilders:
    def test_none_is_empty(self):
        assert len(FaultSchedule.none()) == 0
        assert FaultSchedule.none().availability(10.0) == 1.0

    def test_single_outage(self):
        schedule = FaultSchedule.single_outage(at=5.0, duration=2.0)
        assert schedule.outages == [(5.0, 2.0)]

    def test_periodic_outages_must_fit_period(self):
        with pytest.raises(ValueError):
            FaultSchedule.periodic_outages(first=0.0, period=2.0, duration=3.0, count=2)

    def test_random_same_seed_identical(self):
        kwargs = dict(
            horizon=200.0,
            crash_rate=0.02,
            mean_outage=5.0,
            subscribers=("a", "b"),
            disconnect_rate=0.05,
            slow_rate=0.01,
            drop_rate=0.1,
            corrupt_rate=0.05,
        )
        one = FaultSchedule.random(RandomStreams(seed=42), **kwargs)
        two = FaultSchedule.random(RandomStreams(seed=42), **kwargs)
        assert one.events == two.events
        assert len(one) > 0

    def test_random_different_seed_differs(self):
        one = FaultSchedule.random(RandomStreams(seed=1), horizon=500.0, crash_rate=0.02)
        two = FaultSchedule.random(RandomStreams(seed=2), horizon=500.0, crash_rate=0.02)
        assert one.events != two.events

    def test_random_crashes_never_overlap(self):
        schedule = FaultSchedule.random(
            RandomStreams(seed=3), horizon=1000.0, crash_rate=0.1, mean_outage=10.0
        )
        outages = schedule.outages
        assert len(outages) > 5
        for (s1, d1), (s2, _) in zip(outages, outages[1:]):
            assert s1 + d1 <= s2

    def test_random_isolated_streams(self):
        # Enabling another fault kind must not perturb the crash stream.
        crashes_only = FaultSchedule.random(
            RandomStreams(seed=9), horizon=300.0, crash_rate=0.02
        )
        with_drops = FaultSchedule.random(
            RandomStreams(seed=9), horizon=300.0, crash_rate=0.02, drop_rate=0.2
        )
        assert crashes_only.outages == with_drops.outages


class TestLinkAndLeaseKinds:
    def test_link_drop_magnitude_is_a_count(self):
        with pytest.raises(ValueError, match="positive integer count"):
            FaultEvent(time=1.0, kind=FaultKind.LINK_DROP, magnitude=1.5)

    def test_link_delay_needs_a_window_and_positive_extra(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(time=1.0, kind=FaultKind.LINK_DELAY, magnitude=0.01)
        with pytest.raises(ValueError, match="extra seconds"):
            FaultEvent(
                time=1.0, kind=FaultKind.LINK_DELAY, duration=2.0, magnitude=0.0
            )

    def test_lease_pause_needs_a_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(time=1.0, kind=FaultKind.LEASE_PAUSE)

    def test_nan_link_delay_magnitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(
                time=1.0,
                kind=FaultKind.LINK_DELAY,
                duration=1.0,
                magnitude=float("nan"),
            )

    def test_overlapping_lease_pauses_rejected(self):
        pauses = [
            FaultEvent(time=1.0, kind=FaultKind.LEASE_PAUSE, duration=2.0),
            FaultEvent(time=2.0, kind=FaultKind.LEASE_PAUSE, duration=1.0),
        ]
        with pytest.raises(ValueError, match="lease_pause windows"):
            FaultSchedule(pauses)

    def test_lease_pause_may_overlap_other_window_kinds(self):
        # Only same-kind exclusive windows are disjoint; a pause during a
        # link-delay window is a legitimate compound failure.
        FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.LINK_DELAY, duration=5.0, magnitude=0.01
                ),
                FaultEvent(time=2.0, kind=FaultKind.LEASE_PAUSE, duration=1.0),
            ]
        )

    def test_random_generates_link_and_lease_faults(self):
        schedule = FaultSchedule.random(
            RandomStreams(seed=4),
            horizon=500.0,
            link_drop_rate=0.05,
            link_delay_rate=0.02,
            lease_pause_rate=0.02,
        )
        assert schedule.of_kind(FaultKind.LINK_DROP)
        assert schedule.of_kind(FaultKind.LINK_DELAY)
        pauses = schedule.of_kind(FaultKind.LEASE_PAUSE)
        assert pauses
        for earlier, later in zip(pauses, pauses[1:]):
            assert earlier.end <= later.time  # sequential: never overlap


class TestSerialization:
    def _sample_schedule(self):
        return FaultSchedule(
            [
                FaultEvent(time=1.0, kind=FaultKind.SERVER_CRASH, duration=0.5),
                FaultEvent(
                    time=2.0,
                    kind=FaultKind.SUBSCRIBER_DISCONNECT,
                    duration=1.0,
                    target="sub-1",
                ),
                FaultEvent(
                    time=3.0, kind=FaultKind.SLOW_CONSUMER, duration=1.0, magnitude=4.0
                ),
                FaultEvent(time=4.0, kind=FaultKind.MESSAGE_DROP, magnitude=2.0),
                FaultEvent(time=5.0, kind=FaultKind.TORN_WRITE),
                FaultEvent(time=6.0, kind=FaultKind.LINK_DROP, magnitude=3.0),
                FaultEvent(
                    time=7.0, kind=FaultKind.LINK_DELAY, duration=2.0, magnitude=0.05
                ),
                FaultEvent(time=10.0, kind=FaultKind.LEASE_PAUSE, duration=1.5),
            ]
        )

    def test_round_trip_preserves_every_event(self):
        schedule = self._sample_schedule()
        rebuilt = FaultSchedule.from_dicts(schedule.to_dicts())
        assert rebuilt.events == schedule.events

    def test_round_trip_survives_json(self):
        import json

        schedule = self._sample_schedule()
        wire = json.dumps(schedule.to_dicts())
        rebuilt = FaultSchedule.from_dicts(json.loads(wire))
        assert rebuilt.events == schedule.events

    def test_to_dict_omits_defaults(self):
        payload = FaultEvent(time=5.0, kind=FaultKind.TORN_WRITE).to_dict()
        assert payload == {"time": 5.0, "kind": "torn_write"}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault event fields"):
            FaultEvent.from_dict({"time": 1.0, "kind": "torn_write", "speed": 3})

    def test_from_dict_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent.from_dict({"time": 1.0, "kind": "quantum_flux"})

    def test_from_dict_requires_time_and_kind(self):
        with pytest.raises(ValueError, match="needs 'time' and 'kind'"):
            FaultEvent.from_dict({"kind": "torn_write"})

    def test_from_dict_revalidates(self):
        # Deserialization is not a validation bypass.
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent.from_dict({"time": 1.0, "kind": "lease_pause"})

    def test_from_dicts_revalidates_overlaps(self):
        dicts = [
            {"time": 1.0, "kind": "lease_pause", "duration": 2.0},
            {"time": 2.0, "kind": "lease_pause", "duration": 1.0},
        ]
        with pytest.raises(ValueError, match="lease_pause windows"):
            FaultSchedule.from_dicts(dicts)

    def test_from_dicts_honours_known_targets(self):
        dicts = [
            {
                "time": 1.0,
                "kind": "subscriber_disconnect",
                "duration": 1.0,
                "target": "ghost",
            }
        ]
        with pytest.raises(ValueError, match="unknown target"):
            FaultSchedule.from_dicts(dicts, known_targets=["sub-1"])
