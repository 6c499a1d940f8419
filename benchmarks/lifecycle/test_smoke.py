"""Smoke test of the lifecycle benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/lifecycle -q``.  One
``--quick --trace`` pass over all four workloads (1 repetition of each
kind, 1/20 of the messages) feeds every check below.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARATION["workloads"]]
SEED = 3
#: Per-layer metrics that must repeat bit for bit under one seed.
EXACT = (
    "broker.memo_hit_ratio",
    "broker.filters_per_msg",
    "broker.copies_per_msg",
    "durability.disk_calls_per_msg",
    "durability.records_per_msg",
    "durability.syncs_per_msg",
    "durability.wal_bytes_per_msg",
    "durability.wal_amplification",
    "replication.ticks_per_msg",
    "replication.frames_per_msg",
    "replication.link_bytes_per_msg",
    "mesh.shard_skew",
    "resilience.expired_on_hop_per_kmsg",
    "resilience.expired_in_flight_per_kmsg",
    "resilience.delivered_late",
)


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """``run.py --quick --trace``: every workload, untraced then traced."""
    summary_path = tmp_path_factory.mktemp("lifecycle") / "summary.json"
    start = time.perf_counter()
    process = run("--quick", "--trace", "--seed", str(SEED), "--out", str(summary_path))
    elapsed = time.perf_counter() - start
    assert process.returncode == 0, process.stdout + process.stderr
    results = [
        json.loads(line) for line in process.stdout.splitlines() if line.startswith('{"correct"')
    ]
    return {
        "elapsed": elapsed,
        "stdout": process.stdout,
        "summary_path": summary_path,
        "summary": json.loads(summary_path.read_text()),
        "results": results,
    }


def test_quick_finishes_in_time(quick: dict) -> None:
    assert quick["elapsed"] < 20.0


def test_emits_exactly_the_declared_metrics(quick: dict) -> None:
    declared = {
        0: {entry["name"]: entry["unit"] for entry in DECLARATION["end_to_end"]},
        1: {entry["name"]: entry["unit"] for entry in DECLARATION["per_layer"]},
    }
    assert len(quick["results"]) == 2 * len(WORKLOADS)
    for position, result in enumerate(quick["results"]):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == declared[position % 2]
    for workload in WORKLOADS:
        for name in declared[0]:  # a user-facing metric is never 0
            assert quick["summary"]["workloads"][workload]["end_to_end"][name]["value"] > 0
        for name in declared[0] | declared[1]:  # and each is printed by name
            assert f"{workload} {name} = " in quick["stdout"]
    assert quick["summary"]["claim"] is None


def test_span_tree_is_sound(quick: dict) -> None:
    for workload in WORKLOADS:
        spans = tracing.read_spans(str(HERE / "out" / f"{workload}.spans.csv"))
        assert spans and tracing.check_tree(spans) == []
        assert any(name == tracing.ROOT for name, *_ in spans)


def test_eq1_fit_is_physical(quick: dict) -> None:
    fit = quick["summary"]["workloads"]["fanout_filtered"]["per_layer"]
    assert fit["broker.t_fltr_us"] >= 0 and fit["broker.t_tx_us"] >= 0
    assert fit["broker.cold_plan_us"] > fit["broker.warm_plan_us"] > 0


def test_layers_separate(quick: dict) -> None:
    def shares(workload: str) -> dict:
        layer_values = quick["summary"]["workloads"][workload]["per_layer"]
        return {
            layer: layer_values[f"{layer}.share_frac"]
            for layer in ("bench", "broker", "durability", "replication", "mesh")
        }

    fanout = shares("fanout_filtered")
    assert max(fanout, key=fanout.get) == "broker"
    assert fanout["durability"] == fanout["replication"] == fanout["mesh"] == 0
    assert shares("durable_queue")["durability"] > 0.5
    replicated = shares("replicated_sync")
    assert max(replicated, key=replicated.get) == "replication"
    for workload in WORKLOADS:
        assert sum(shares(workload).values()) == pytest.approx(1.0)


def test_same_seed_same_inputs_and_exact_counts(quick: dict) -> None:
    first = run("--workload", "mesh_batch", "--quick", "--trace", "1", "--seed", str(SEED))
    assert first.returncode == 0, first.stdout + first.stderr
    again = json.loads(first.stdout.splitlines()[-1])["metrics"]
    before = quick["summary"]["workloads"]["mesh_batch"]["per_layer"]
    for name in EXACT:
        assert again[name]["value"] == before[name], name
    digests = [
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--seed", str(SEED), "--quick"],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("0", "4242")
    ]
    assert digests[0] == digests[1] and digests[0].count("sha256=") == len(WORKLOADS)
    other = inputs.digest(inputs.generate("mesh_batch", SEED + 1, quick=True))
    assert other not in digests[0]


def test_compare_reads_its_own_output(quick: dict) -> None:
    path = str(quick["summary_path"])
    process = run("--compare", path, path)
    assert process.returncode == 0, process.stdout + process.stderr
    rows = [line for line in process.stdout.splitlines() if "within-bound" in line]
    assert len(rows) == len(WORKLOADS) * len(DECLARATION["end_to_end"])
    assert "worse" not in process.stdout and "unresolved" not in process.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "lifecycle"
    target.mkdir()
    for source in HERE.glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    process = subprocess.run(
        [sys.executable, "benchmarks/lifecycle/run.py", "--workload", "fanout_filtered",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
