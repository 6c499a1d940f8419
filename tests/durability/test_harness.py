"""The crash-consistency harness itself (reduced sizes; the full run is
``python -m repro bench durability`` / BENCH_durability.json)."""

import pytest

from repro.chaos.crash import run_crash_consistency_harness


def test_every_crash_point_recovers_consistently():
    report = run_crash_consistency_harness(seed=3, messages=24, intra_samples=30)
    assert report.ok, report.violations[:5]
    summary = report.to_dict()
    # one boundary image per committed prefix, including the empty one
    assert summary["boundary_points"] == summary["records"] + 1
    assert summary["intra_points"] == 30
    # every byte offset inside every segment header is a crash point too
    assert summary["header_points"] == summary["segments"] * 10
    assert summary["segments"] >= 2  # the workload must cross a rotation
    kinds = [point.coords["kind"] for point in report.points]
    assert kinds.count("boundary") == summary["boundary_points"]
    assert kinds.count("intra") == summary["intra_points"]
    assert kinds.count("header") == summary["header_points"]


def test_report_shape():
    report = run_crash_consistency_harness(seed=0, messages=10, intra_samples=5)
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["points"] == (
        payload["boundary_points"] + payload["intra_points"] + payload["header_points"]
    )
    assert payload["violations"] == []


def test_input_validation():
    with pytest.raises(ValueError):
        run_crash_consistency_harness(messages=0)
    with pytest.raises(ValueError):
        run_crash_consistency_harness(intra_samples=-1)
