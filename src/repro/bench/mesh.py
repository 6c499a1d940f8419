"""The sharded-mesh baseline (``BENCH_mesh.json``).

Three deterministic measurements:

* **Capacity vs shard count** — the superposed-M/G/1 closed form
  (:func:`repro.mesh.capacity.mesh_capacity_curve`) for the three
  placement modes at N in {1, 2, 4, 8}, cross-checked against the
  discrete-event testbed to the 5% acceptance bar.  The ``psr``/``ssr``
  columns at N = 2 / N = m are the Fig. 15 equivalence points.
* **Rebalance cost** — virtual-time duration, protocol steps and
  attempts of one clean join / leave / crash rebalance on a populated
  3-shard mesh.
* **Chaos harness summary** — the full event x fault x step matrix
  (``repro mesh``); the violation count must be 0 and, in full mode,
  the matrix must land above the 200-point acceptance bar.
"""

from __future__ import annotations

from typing import Any, Dict

SHARD_COUNTS = (1, 2, 4, 8)
PLACEMENTS = ("partitioned", "psr", "ssr")
CAPACITY_TOLERANCE = 0.05
MIN_CHAOS_POINTS = 200


def _rebalance_cost(event_kind: str, ops: int, n_queues: int) -> Dict[str, Any]:
    """Clean-run cost of one membership event on a populated mesh."""
    from ..broker.message import Message
    from ..mesh import RebalanceEngine, ShardedBroker

    mesh = ShardedBroker(["s0", "s1", "s2"], lease_duration=0.5)
    names = [f"q-{i}" for i in range(n_queues)]
    for name in names:
        mesh.create_queue(name)
    now = 0.0
    for i in range(ops):
        mesh.send(names[i % n_queues], Message(topic="mesh", body=b"op"), now=now)
        now += 0.001
    if event_kind == "join":
        mesh.add_shard("s3")
        event = mesh.membership.join("s3")
    elif event_kind == "leave":
        event = mesh.membership.leave("s2")
    else:
        mesh.crash_shard("s2", now=now)
        event = mesh.membership.crash("s2")
    engine = RebalanceEngine(mesh)
    engine.now = now
    report = engine.rebalance(event)
    return {
        "event": event_kind,
        "completed": report.completed,
        "moves": len(event.moves),
        "duration": report.duration,
        "steps": report.steps,
        "attempts": report.attempts,
        "records_shipped": sum(h.records_shipped for h in report.handoffs),
        "messages_applied": sum(h.messages_applied for h in report.handoffs),
    }


def record(fast: bool) -> Dict[str, Any]:
    from ..architectures.base import SystemParameters
    from ..core import CORRELATION_ID_COSTS
    from ..mesh import run_mesh_chaos_harness
    from ..mesh.capacity import mesh_capacity_curve, validate_mesh_capacity

    params = SystemParameters(
        costs=CORRELATION_ID_COSTS,
        publishers=2,
        subscribers=8,
        filters_per_subscriber=10,
        mean_replication=1.0,
        rho=0.9,
    )
    ops, queues = (18, 8) if fast else (36, 16)

    curves = {
        placement: {
            str(count): point.to_dict()
            for count, point in mesh_capacity_curve(
                params, SHARD_COUNTS, placement=placement
            ).items()
        }
        for placement in PLACEMENTS
    }
    validation = validate_mesh_capacity(
        params, shard_counts=SHARD_COUNTS, tolerance=CAPACITY_TOLERANCE
    )
    rebalances = [
        _rebalance_cost(kind, ops, queues) for kind in ("join", "leave", "crash")
    ]
    if fast:
        harness = run_mesh_chaos_harness(
            seed=0, ops=ops, queues=queues, fault_kinds=("crash-dest", "link-drop")
        )
    else:
        harness = run_mesh_chaos_harness(seed=0, ops=ops, queues=queues)

    capacity_monotonic = all(
        curves[placement][str(a)]["capacity"] <= curves[placement][str(b)]["capacity"]
        for placement in ("partitioned", "psr")
        for a, b in zip(SHARD_COUNTS, SHARD_COUNTS[1:])
    )
    point_floor = 0 if fast else MIN_CHAOS_POINTS
    acceptance = {
        "harness_ok": harness.ok,
        "harness_points_above_floor": len(harness.points) >= point_floor,
        "capacity_model_within_tolerance": validation.ok,
        "capacity_monotonic_in_shard_count": capacity_monotonic,
        "rebalances_completed": all(r["completed"] for r in rebalances),
    }
    acceptance["pass"] = all(acceptance.values())
    return {
        "description": (
            "Sharded-mesh baseline: superposed-M/G/1 capacity vs shard "
            "count (three placement modes, DES-validated), clean "
            "rebalance cost per membership event, and the cross-shard "
            "chaos-harness summary (event x fault x step matrix)."
        ),
        "config": {
            "shard_counts": list(SHARD_COUNTS),
            "placements": list(PLACEMENTS),
            "capacity_tolerance": CAPACITY_TOLERANCE,
            "min_chaos_points": point_floor,
            "ops": ops,
            "queues": queues,
            "fast": fast,
        },
        "capacity_curves": curves,
        "capacity_validation": validation.to_dict(),
        "rebalance_costs": rebalances,
        "harness": harness.to_dict(),
        "acceptance": acceptance,
    }


def report(payload: Dict[str, Any]) -> str:
    lines = []
    for placement in PLACEMENTS:
        row = " ".join(
            f"N={count}: {payload['capacity_curves'][placement][str(count)]['capacity']:.1f}"
            for count in SHARD_COUNTS
        )
        lines.append(f"capacity[{placement}]: {row} msg/s")
    validation = payload["capacity_validation"]
    lines.append(f"capacity vs DES: max rel err {validation['max_rel_err']:.2%}")
    for row in payload["rebalance_costs"]:
        lines.append(
            f"rebalance[{row['event']}]: {row['moves']} moves in "
            f"{row['steps']} steps / {row['duration']:.3f}s virtual "
            f"({row['messages_applied']} messages applied)"
        )
    harness = payload["harness"]
    lines.append(f"harness: {harness['points']} points, ok={harness['ok']}")
    return "\n".join(lines)
