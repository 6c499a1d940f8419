"""The bench suite table and ``python -m repro bench SUITE``.

The table has one row per committed ``BENCH_<name>.json``; every
recording gates; a reproducible suite re-records to the committed bytes;
and nothing is written unless ``--out`` says where.
"""

import json
from pathlib import Path

import pytest

from repro.bench import suites
from repro.bench.suites import SUITES, Suite, dump
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def committed(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def test_one_suite_per_committed_recording():
    recorded = {path.stem.removeprefix("BENCH_") for path in REPO_ROOT.glob("BENCH_*.json")}
    assert set(SUITES) == recorded
    assert all(name == suite.name for name, suite in SUITES.items())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_committed_recording_gates_and_is_canonical(name):
    text = committed(name).read_text()
    payload = json.loads(text)
    assert payload["acceptance"]["pass"] is True
    assert dump(payload) == text


# The slower reproducible suites (resilience 14 s, overload 41 s) are
# compared by CI's re-record loop; these three cost ≈ 7 s together.
@pytest.mark.parametrize("name", ["faults", "replication", "mesh"])
def test_a_reproducible_suite_rerecords_the_committed_bytes(name, tmp_path, capsys):
    assert SUITES[name].reproducible
    out = tmp_path / f"{name}.json"
    assert main(["bench", name, "--out", str(out)]) == 0
    assert out.read_bytes() == committed(name).read_bytes()
    assert "acceptance: pass = True" in capsys.readouterr().out


def test_without_out_nothing_is_written(monkeypatch, tmp_path, capsys):
    """A bare run cannot clobber a committed baseline: no default path."""
    before = {path: path.stat().st_mtime_ns for path in REPO_ROOT.glob("*")}
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "faults"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert {path: path.stat().st_mtime_ns for path in REPO_ROOT.glob("*")} == before
    out = capsys.readouterr().out
    assert "single outage:" in out and "wrote" not in out


def test_a_failed_acceptance_exits_one_after_writing(monkeypatch, tmp_path, capsys):
    payload = {"acceptance": {"ledger_balanced": False, "pass": False}}
    stub = Suite("faults", lambda fast: payload, lambda payload: "stub report", True)
    monkeypatch.setitem(suites.SUITES, "faults", stub)
    out = tmp_path / "failed.json"
    assert main(["bench", "faults", "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == payload
    assert "acceptance: ledger_balanced = False" in capsys.readouterr().out


def test_an_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "nosuch"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in SUITES)
