#!/usr/bin/env python
"""Record a perf/robustness baseline and gate on its acceptance block.

Two suites:

* ``--suite hotpath`` (default) — BENCH_hotpath.json: compiled selector
  evaluation vs. the tree-walking interpreter, memoized dispatch
  planning vs. cold filter scans, and engine events/s with single-draw
  vs. batched RNG sampling.  Gates on the speedup ratios (>= 3x
  compiled selectors, >= 2.5x warm dispatch) and the compiled/interpreted
  equivalence counters; absolute rates are machine-dependent context.
* ``--suite mesh`` — BENCH_mesh.json via
  :mod:`tools.record_bench_mesh`: capacity vs shard count (DES-checked
  to 5%), clean rebalance cost, and the cross-shard chaos matrix (zero
  violations, >= 200 points in full mode).
* ``--suite batch`` — BENCH_batch.json via :mod:`repro.bench.batch`:
  one-call ``publish_batch`` vs. the sequential publish loop (>= 1.5x at
  batch size 64, observably equivalent), the M^X/G/1 closed form vs.
  the DES on a batch-size x utilisation grid (every cell within 5%),
  and the b=1 degeneration to the paper's Eqs. 4-5 (1e-12).
* ``--suite resilience`` — BENCH_resilience.json via
  :mod:`tools.record_bench_resilience`: retry-amplification fixed
  points vs the DES cells (<= 5% worst cell) and the metastable-storm
  chaos harness (control storms, budgeted+deadline client recovers
  >= 95% goodput, exactly-once hedging, zero expired deliveries).

Usage: PYTHONPATH=src python tools/bench_gate.py [output.json]
           [--fast] [--suite hotpath|mesh|batch|resilience]
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

REPO = pathlib.Path(__file__).resolve().parents[1]


def _run_hotpath(fast: bool) -> dict:
    from repro.bench import format_hotpath_report, run_hotpath_bench

    payload = run_hotpath_bench(fast=fast)
    print(format_hotpath_report(payload))
    return payload


def _run_mesh(fast: bool) -> dict:
    from record_bench_mesh import record

    return record(fast=fast)


def _run_batch(fast: bool) -> dict:
    from repro.bench import format_batch_report, run_batch_bench

    payload = run_batch_bench(fast=fast)
    print(format_batch_report(payload))
    return payload


def _run_resilience(fast: bool) -> dict:
    from record_bench_resilience import record

    return record(fast=fast)


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    suite = "hotpath"
    if "--suite" in argv:
        suite = argv[argv.index("--suite") + 1]
    positional = [
        arg
        for i, arg in enumerate(argv)
        if not arg.startswith("-") and (i == 0 or argv[i - 1] != "--suite")
    ]
    runners = {
        "hotpath": _run_hotpath,
        "mesh": _run_mesh,
        "batch": _run_batch,
        "resilience": _run_resilience,
    }
    if suite not in runners:
        print(
            f"unknown suite {suite!r} (want hotpath, mesh, batch or resilience)",
            file=sys.stderr,
        )
        return 2
    out = pathlib.Path(
        positional[0] if positional else REPO / f"BENCH_{suite}.json"
    )
    payload = runners[suite](fast)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    acceptance = payload["acceptance"]
    for name, ok in acceptance.items():
        print(f"acceptance: {name} = {ok}")
    return 0 if acceptance["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
