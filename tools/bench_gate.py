#!/usr/bin/env python
"""Record a perf/robustness baseline and gate on its acceptance block.

Two suites:

* ``--suite hotpath`` (default) — BENCH_hotpath.json: compiled selector
  evaluation vs. the tree-walking interpreter, memoized dispatch
  planning vs. cold filter scans, and engine events/s with single-draw
  vs. batched RNG sampling.  Gates on the compiled-over-interpreter
  ratio (>= 3x), the compiled/interpreted equivalence counters and what
  the memo saves as exact counts (one miss per distinct message, every
  later plan a hit; a warm plan merely not slower than a cold one);
  absolute rates are machine-dependent context.
* ``--suite mesh`` — BENCH_mesh.json via
  :mod:`tools.record_bench_mesh`: capacity vs shard count (DES-checked
  to 5%), clean rebalance cost, and the cross-shard chaos matrix (zero
  violations, >= 200 points in full mode).
* ``--suite batch`` — BENCH_batch.json via :mod:`repro.bench.batch`:
  one-call ``publish_batch`` vs. the sequential publish loop (observably
  equivalent, the exact filter-evaluation bill of one evaluation per
  shape instead of per message, not slower), the M^X/G/1 closed form vs.
  the DES on a batch-size x utilisation grid (every cell within 5%),
  and the b=1 degeneration to the paper's Eqs. 4-5 (1e-12).
* ``--suite resilience`` — BENCH_resilience.json via
  :mod:`tools.record_bench_resilience`: retry-amplification fixed
  points vs the DES cells (<= 5% worst cell) and the metastable-storm
  chaos harness (control storms, budgeted+deadline client recovers
  >= 95% goodput, exactly-once hedging, zero expired deliveries).

Usage: PYTHONPATH=src python tools/bench_gate.py output.json
           [--fast] [--suite hotpath|mesh|batch|resilience]

The output path is required: a bare invocation must not be able to
overwrite a committed ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


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


RUNNERS = {
    "hotpath": _run_hotpath,
    "mesh": _run_mesh,
    "batch": _run_batch,
    "resilience": _run_resilience,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Record one bench suite to OUTPUT and gate on its acceptance block."
    )
    parser.add_argument(
        "output",
        type=pathlib.Path,
        help="where to write the recording (pass a scratch path unless you mean "
        "to re-record a committed BENCH_*.json)",
    )
    parser.add_argument("--fast", action="store_true", help="reduced CI-sized run")
    parser.add_argument("--suite", choices=sorted(RUNNERS), default="hotpath")
    args = parser.parse_args(argv)  # exits 2 on a usage error
    payload = RUNNERS[args.suite](args.fast)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    acceptance = payload["acceptance"]
    for name, ok in acceptance.items():
        print(f"acceptance: {name} = {ok}")
    return 0 if acceptance["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
