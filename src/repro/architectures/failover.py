"""Failover sizing for the replicated architectures (PSR / SSR).

When ``k`` of the constituent servers fail, the survivors absorb their
work.  The rehoming is integral, so one survivor carries the most; this
module names that multiplier.  :mod:`repro.mesh.capacity` uses it to
bound a degraded mesh by its worst-loaded survivor."""

from __future__ import annotations

__all__ = ["worst_survivor_absorption"]


def worst_survivor_absorption(total: int, survivors: int) -> int:
    """Orphaned-work multiplier at the most-loaded survivor: ⌈total/survivors⌉.

    When ``total`` servers' worth of subscribers re-home onto
    ``survivors`` servers, the rehoming is integral — some survivor hosts
    ``ceil(total / survivors)`` subscribers' filters and replication.
    Simulating that worst survivor bounds the degraded system from
    above; when ``survivors`` divides ``total`` every survivor is the
    worst one and this reduces to the exact absorption factor.
    """
    if survivors < 1:
        raise ValueError(f"survivor count must be >= 1, got {survivors}")
    if total < survivors:
        raise ValueError(
            f"survivor count {survivors} exceeds server count {total}"
        )
    return -(-total // survivors)
