#!/usr/bin/env python
"""Record the batched hot-path baseline (BENCH_batch.json).

Three deterministic measurements (see :mod:`repro.bench.batch`):

* **Batched publish throughput** — one-call
  :meth:`~repro.broker.server.Broker.publish_batch` vs. the sequential
  ``publish`` loop on a 64-message, 8-shape corpus against a selective
  200-filter population.  The two modes must be observably equivalent
  (same inboxes, same dispatch totals), the filter-evaluation bill must
  be exactly one evaluation per filter per *shape* instead of per
  message, and the batch must not be slower than the loop.
* **M^X/G/1 validation sweep** — the batch-arrival closed form vs. the
  discrete-event testbed at batch sizes {1, 4, 16, 64} and utilisations
  {0.5, 0.7, 0.9} (deterministic batches, exponential unit service);
  every cell must land within 5%.
* **b=1 degeneration** — at X == 1 the batch model must reproduce the
  paper's Eqs. 4-5 (and :class:`repro.core.mg1.MG1Queue`) to 1e-12.

Usage: PYTHONPATH=src python tools/record_bench_batch.py [output.json] [--fast]
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.bench import format_batch_report, run_batch_bench


def record(fast: bool = False) -> dict:
    payload = run_batch_bench(fast=fast)
    print(format_batch_report(payload))
    return payload


def main() -> int:
    fast = "--fast" in sys.argv[1:]
    positional = [arg for arg in sys.argv[1:] if not arg.startswith("-")]
    out = pathlib.Path(
        positional[0]
        if positional
        else pathlib.Path(__file__).resolve().parents[1] / "BENCH_batch.json"
    )
    payload = record(fast=fast)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for name, ok in payload["acceptance"].items():
        print(f"acceptance: {name} = {ok}")
    return 0 if payload["acceptance"]["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
