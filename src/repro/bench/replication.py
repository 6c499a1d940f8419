"""The replication/HA baseline (``BENCH_replication.json``).

Two deterministic measurements:

* **Failover sweep** — RPO (acked records lost) and RTO (detection +
  replay) across ``ship_interval × ack mode``, comparing the analytic
  :class:`repro.replication.ReplicationLagModel` against discrete-event
  failover runs.  Sync mode must measure *exactly* zero RPO (that is the
  replication contract, not an approximation); async mode's model error
  is gated loosely because the smallest ship interval is dominated by
  tick quantization and Poisson noise over a handful of seeds.
* **Chaos harness summary** — crash-after-every-step × link-fault
  scenarios × ack modes, plus the lease-pause split-brain check.  The
  violation count must be 0 and async loss must stay within the
  shipped-lag window (the harness itself enforces the bound per point).
"""

from __future__ import annotations

from typing import Any, Dict

SHIP_INTERVALS = (0.01, 0.05, 0.2)
BATCH_SIZE = 16
RATE = 200.0
SEEDS = 5
HARNESS_OPS = 24

#: Async RPO at the smallest ship interval flushes every ~3 ticks, so the
#: half-window model is noisy there; RTO is dominated by the deterministic
#: lease-detection term and must track much tighter.
MAX_ASYNC_RPO_REL_ERR = 0.75
MAX_RTO_REL_ERR = 0.25


def record(fast: bool) -> Dict[str, Any]:
    """One size only: ``fast`` records the same sweep and harness."""
    from ..chaos.failover import run_replication_chaos_harness
    from ..replication.experiment import failover_sweep

    sweep = failover_sweep(
        ship_intervals=SHIP_INTERVALS,
        batch_size=BATCH_SIZE,
        rate=RATE,
        seeds=SEEDS,
    )
    harness = run_replication_chaos_harness(seed=0, ops=HARNESS_OPS)

    sync_rows = [p for p in sweep if p.mode == "sync"]
    async_rows = [p for p in sweep if p.mode == "async"]
    sync_rpo_zero = all(p.rpo_measured == 0.0 and p.rpo_model == 0.0 for p in sync_rows)
    async_rpo_ok = all(p.rpo_rel_err <= MAX_ASYNC_RPO_REL_ERR for p in async_rows)
    rto_ok = all(p.rto_rel_err <= MAX_RTO_REL_ERR for p in sweep)
    acceptance = {
        "harness_ok": harness.ok,
        "sync_rpo_exactly_zero": sync_rpo_zero,
        "async_rpo_within_model_tolerance": async_rpo_ok,
        "rto_within_model_tolerance": rto_ok,
        "pass": harness.ok and sync_rpo_zero and async_rpo_ok and rto_ok,
    }
    return {
        "description": (
            "Replication baseline: the RPO/RTO failover sweep (replication-"
            "lag model vs discrete-event failover runs) and the chaos "
            "harness summary (crash points x link faults x ack modes, plus "
            "the lease-pause split-brain check)."
        ),
        "config": {
            "ship_intervals": list(SHIP_INTERVALS),
            "batch_size": BATCH_SIZE,
            "rate": RATE,
            "seeds": SEEDS,
            "harness_ops": HARNESS_OPS,
            "max_async_rpo_rel_err": MAX_ASYNC_RPO_REL_ERR,
            "max_rto_rel_err": MAX_RTO_REL_ERR,
        },
        "failover_sweep": [p.to_dict() for p in sweep],
        "harness": harness.to_dict(),
        "acceptance": acceptance,
    }


def report(payload: Dict[str, Any]) -> str:
    lines = [
        f"sweep: {row['mode']:>5} ship={row['ship_interval']:.3f}s "
        f"rpo {row['rpo_measured']:.2f} rec (model {row['rpo_model']:.2f}, "
        f"err {row['rpo_rel_err']:.1%})  rto {row['rto_measured']:.4f}s "
        f"(model {row['rto_model']:.4f}, err {row['rto_rel_err']:.1%})"
        for row in payload["failover_sweep"]
    ]
    harness = payload["harness"]
    lines.append(
        f"harness: {harness['points']} crash points, "
        f"max async loss {harness['max_async_loss']}, "
        f"{len(harness['violations'])} violation(s)"
    )
    return "\n".join(lines)
