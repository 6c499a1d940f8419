"""CLIENT_TIMEOUT and PROCESS_PAUSE: the resilience PR's fault kinds.

CLIENT_TIMEOUT models impatient publishers whose client-side send timeout
fires while they are blocked on push-back — the event that seeds retry
storms.  PROCESS_PAUSE models a GC-style stall: the CPU freezes
mid-service (remaining cost intact) while arrivals keep piling up.
"""

import pytest

from repro.broker.errors import ClientTimeoutError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.rng import RandomStreams


def arm(rig, schedule):
    injector = FaultInjector(engine=rig.engine, server=rig.server, schedule=schedule)
    injector.arm()
    return injector


class TestScheduleDeterminism:
    def test_client_timeout_events_identical_given_seed(self):
        def draw():
            return FaultSchedule.random(
                RandomStreams(seed=3),
                horizon=200.0,
                client_timeout_rate=0.2,
                client_timeout_burst=3,
            )

        first, second = draw(), draw()
        assert first.events == second.events
        assert len(first) > 5
        for event in first:
            assert event.kind is FaultKind.CLIENT_TIMEOUT
            assert event.magnitude == 3.0
            assert event.duration == 0.0  # point fault

    def test_client_timeout_stream_is_isolated(self):
        # Enabling other fault kinds must not perturb the client-timeout
        # draw: each kind owns a named stream.
        alone = FaultSchedule.random(
            RandomStreams(seed=7), horizon=100.0, client_timeout_rate=0.3
        )
        crowded = FaultSchedule.random(
            RandomStreams(seed=7),
            horizon=100.0,
            client_timeout_rate=0.3,
            crash_rate=0.05,
            process_pause_rate=0.4,
            mean_process_pause=0.5,
        )
        assert tuple(crowded.of_kind(FaultKind.CLIENT_TIMEOUT)) == alone.events

    def test_process_pause_windows_are_disjoint(self):
        schedule = FaultSchedule.random(
            RandomStreams(seed=11),
            horizon=300.0,
            process_pause_rate=0.5,
            mean_process_pause=2.0,
        )
        pauses = schedule.of_kind(FaultKind.PROCESS_PAUSE)
        assert len(pauses) > 10
        for earlier, later in zip(pauses, pauses[1:]):
            assert later.time >= earlier.end

    def test_process_pause_identical_given_seed(self):
        def draw():
            return FaultSchedule.random(
                RandomStreams(seed=19),
                horizon=100.0,
                process_pause_rate=1.0,
                mean_process_pause=0.4,
            )

        assert draw().events == draw().events

    def test_round_trips_through_dicts(self):
        events = [
            FaultEvent(time=1.0, kind=FaultKind.CLIENT_TIMEOUT, magnitude=4.0),
            FaultEvent(time=2.0, kind=FaultKind.PROCESS_PAUSE, duration=0.5),
        ]
        for event in events:
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_validation(self):
        with pytest.raises(ValueError, match="positive integer count"):
            FaultEvent(time=1.0, kind=FaultKind.CLIENT_TIMEOUT, magnitude=0.5)
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(time=1.0, kind=FaultKind.PROCESS_PAUSE)
        with pytest.raises(ValueError, match="process_pause windows must be disjoint"):
            FaultSchedule(
                [
                    FaultEvent(time=1.0, kind=FaultKind.PROCESS_PAUSE, duration=1.0),
                    FaultEvent(time=1.5, kind=FaultKind.PROCESS_PAUSE, duration=1.0),
                ]
            )


class TestClientTimeoutInjection:
    def test_blocked_submits_fail_with_client_timeout(self, rig):
        # buffer_capacity=4 (BLOCK): submits 5..7 park as waiters.
        handles = [rig.server.submit(rig.make_message()) for _ in range(7)]
        injector = arm(
            rig,
            FaultSchedule(
                [FaultEvent(time=0.002, kind=FaultKind.CLIENT_TIMEOUT, magnitude=2.0)]
            ),
        )
        rig.engine.run()
        timed_out = [h for h in handles if isinstance(h.error, ClientTimeoutError)]
        assert len(timed_out) == 2
        assert all(h.rejected for h in timed_out)
        assert rig.server.ledger.client_timeouts == 2
        # The surviving waiter was eventually granted and served.
        assert rig.server.ledger.completed == 5
        (record,) = injector.log
        assert record.detail == "timed out 2/2 blocked submit(s)"
        assert record.recovered_at == record.applied_at  # point fault

    def test_noop_when_nobody_is_blocked(self, rig):
        injector = arm(
            rig,
            FaultSchedule(
                [FaultEvent(time=0.01, kind=FaultKind.CLIENT_TIMEOUT, magnitude=3.0)]
            ),
        )
        rig.engine.run()
        assert rig.server.ledger.client_timeouts == 0
        (record,) = injector.log
        assert record.detail == "timed out 0/3 blocked submit(s)"


class TestProcessPauseInjection:
    def test_pause_freezes_service_but_not_ingress(self, rig):
        for _ in range(3):
            rig.server.submit(rig.make_message())
        arm(
            rig,
            FaultSchedule(
                [FaultEvent(time=0.005, kind=FaultKind.PROCESS_PAUSE, duration=0.5)]
            ),
        )
        probes = {}

        def probe(label):
            probes[label] = (
                rig.server.paused,
                rig.server.ledger.completed,
                rig.server.ledger.accepted,
            )

        # Arrivals during the window are still accepted (queue grows).
        rig.engine.call_at(0.2, lambda: rig.server.submit(rig.make_message()))
        rig.engine.call_at(0.4, lambda: probe("during"))
        rig.engine.run()
        assert probes["during"] == (True, 0, 4)
        assert not rig.server.paused
        assert rig.server.ledger.completed == 4
        assert rig.server.up
        # The interrupted service kept its remaining cost: nothing could
        # finish before the window closed at t=0.505.
        assert rig.engine.now > 0.505

    def test_crash_during_pause_is_tolerated(self, rig):
        # The crash clears the paused state; the scheduled resume then
        # finds nothing frozen and must not blow up.
        for _ in range(4):
            rig.server.submit(rig.make_message())
        injector = arm(
            rig,
            FaultSchedule(
                [
                    FaultEvent(time=0.1, kind=FaultKind.PROCESS_PAUSE, duration=1.0),
                    FaultEvent(time=0.5, kind=FaultKind.SERVER_CRASH, duration=0.2),
                ]
            ),
        )
        rig.engine.run()
        assert rig.server.up
        assert not rig.server.paused
        assert rig.server.ledger.crashes == 1
        assert all(r.recovered_at is not None for r in injector.log)


class TestInjectionDeterminism:
    def test_same_seed_gives_identical_fault_logs(self, rig_factory):
        def schedule():
            return FaultSchedule.random(
                RandomStreams(seed=9),
                horizon=3.0,
                client_timeout_rate=1.0,
                client_timeout_burst=2,
                process_pause_rate=0.5,
                mean_process_pause=0.3,
            )

        def run():
            rig = rig_factory()
            injector = arm(rig, schedule())
            for at in (0.0, 0.5, 1.0, 1.5, 2.0):
                rig.engine.call_at(
                    at,
                    lambda: [rig.server.submit(rig.make_message()) for _ in range(6)],
                )
            rig.engine.run()
            return [
                (r.event.kind, r.applied_at, r.recovered_at, r.detail)
                for r in injector.log
            ]

        assert run() == run()
