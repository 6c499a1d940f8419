"""Deterministic fault injection and recovery (`repro.faults`).

The paper measures a healthy FioranoMQ server; this package asks what its
waiting-time model is worth when the system *fails*.  It provides:

- :mod:`~repro.faults.schedule` — seeded, reproducible failure scripts
  (crash/restart windows, subscriber disconnects, slow-consumer
  degradation, message drop/corruption);
- :mod:`~repro.faults.injector` — replays a schedule on a live
  :class:`~repro.testbed.simserver.SimulatedJMSServer` through the engine;
- :mod:`~repro.faults.retry` / :mod:`~repro.faults.clients` — client-side
  resilience: exponential backoff with jitter, credit timeouts,
  the fault-tolerant publisher;
- :mod:`~repro.faults.availability` — a fluid model for the extra mean
  wait each outage adds on top of Pollaczek–Khinchine;
- :mod:`~repro.faults.experiment` — end-to-end runs whose message ledger
  must conserve every persistent message.

Dependency direction: ``faults`` imports ``broker``/``simulation``/
``testbed``; none of those may import ``faults``.
"""

from .schedule import FaultEvent, FaultKind, FaultSchedule
from .retry import RetryPolicy
from .clients import RetryingPoissonPublisher
from .injector import AppliedFault, FaultInjector
from .availability import OutageImpact, outage_impact
from .experiment import FaultExperimentConfig, FaultRunResult, run_fault_experiment

__all__ = [
    "AppliedFault",
    "FaultEvent",
    "FaultExperimentConfig",
    "FaultInjector",
    "FaultKind",
    "FaultRunResult",
    "FaultSchedule",
    "OutageImpact",
    "RetryPolicy",
    "RetryingPoissonPublisher",
    "outage_impact",
    "run_fault_experiment",
]
