"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestReport:
    def test_report_exit_code_zero_when_all_pass(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "claims reproduced" in out
        assert "FAIL" not in out


class TestFigure:
    @pytest.mark.parametrize("figure_id", ["fig5", "fig6", "fig8", "fig9", "fig10", "fig12", "fig15"])
    def test_figures_print_series(self, capsys, figure_id):
        assert main(["figure", figure_id]) == 0
        out = capsys.readouterr().out
        assert f"== {figure_id}:" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestCapacity:
    def test_capacity_output(self, capsys):
        assert main(["capacity", "--filters", "500", "--replication", "3"]) == 0
        out = capsys.readouterr().out
        assert "capacity at rho=0.9" in out
        assert "correlation_id" in out

    def test_app_property_variant(self, capsys):
        assert (
            main(["capacity", "--filters", "100", "--replication", "1", "--type", "app"])
            == 0
        )
        assert "app_property" in capsys.readouterr().out

    def test_capacity_value_matches_library(self, capsys):
        from repro.core import CORRELATION_ID_COSTS, server_capacity

        main(["capacity", "--filters", "100", "--replication", "5", "--rho", "0.5"])
        out = capsys.readouterr().out
        expected = server_capacity(CORRELATION_ID_COSTS, 100, 5.0, rho=0.5)
        assert f"{expected:.1f}" in out


class TestWait:
    def test_wait_output(self, capsys):
        assert main(["wait", "--filters", "500", "--replication", "3"]) == 0
        out = capsys.readouterr().out
        assert "E[W]" in out
        assert "Q99.99[W]" in out

    def test_explicit_match_probability(self, capsys):
        assert (
            main(["wait", "--filters", "100", "--replication", "2", "--p-match", "0.02"])
            == 0
        )
        assert "p_match=0.02" in capsys.readouterr().out

    def test_invalid_match_probability_rejected(self):
        with pytest.raises(SystemExit):
            main(["wait", "--filters", "10", "--replication", "2", "--p-match", "1.5"])

    def test_zero_filters_rejected(self):
        with pytest.raises(SystemExit):
            main(["wait", "--filters", "0", "--replication", "1"])


class TestOverload:
    def test_model_only_curves(self, capsys):
        assert main(["overload", "--capacity", "5"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out
        assert "deterministic" in out

    def test_validate_small_run(self, capsys):
        # Tiny message count: we only assert the table renders and the
        # exit code reflects the 5% gate (pass or fail are both legal at
        # 2000 messages); accuracy itself is covered by the bench and by
        # tests/overload/test_experiment.py.
        code = main(
            [
                "overload",
                "--validate",
                "--rho",
                "0.9",
                "--family",
                "binomial",
                "--messages",
                "2000",
            ]
        )
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert code in (0, 1)

    def test_validate_fails_on_imbalanced_books(self, capsys, monkeypatch):
        import dataclasses

        import repro.analysis.overload as analysis

        real = analysis.validate_overload

        def cooked(*args, **kwargs):  # one message too many in every backlog
            return [
                dataclasses.replace(row, ledger=row.ledger.closed(backlog=1, in_service=0))
                for row in real(*args, **kwargs)
            ]

        monkeypatch.setattr(analysis, "validate_overload", cooked)
        argv = ["overload", "--validate", "--rho", "0.5", "--family", "deterministic"]
        assert main(argv + ["--messages", "500"]) == 1
        assert "IMBALANCED deterministic rho=0.5: IngressLedger(accepted=500 " in (
            capsys.readouterr().out
        )

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overload", "--policy", "block"])

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SystemExit):
            main(["overload", "--capacity", "1", "--validate", "--rho", "0.9"])


class TestResilienceValidate:
    CELL = dict(seed=11, rho=0.9, capacity=10, max_retries=3, messages=500)

    def cells(self, monkeypatch, **cooked):
        """One small cell whose model error is zero by construction, so
        the exit status is the ledger's alone."""
        import dataclasses

        import repro.resilience.experiment as experiment

        result = experiment.run_resilience_cell(experiment.ResilienceCellConfig(**self.CELL))
        result = dataclasses.replace(result, lambda_eff_model=result.lambda_eff_sim)
        if cooked:
            result = dataclasses.replace(result, ledger=result.ledger.closed(**cooked))
        monkeypatch.setattr(experiment, "validate_amplification", lambda: [result])
        return result

    def test_balanced_cells_within_tolerance_exit_zero(self, capsys, monkeypatch):
        self.cells(monkeypatch)
        assert main(["resilience", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "worst cell error: 0.00%" in out and "IMBALANCED" not in out

    def test_validate_fails_on_imbalanced_books(self, capsys, monkeypatch):
        result = self.cells(monkeypatch, backlog=1, in_service=0)  # one message too many
        assert main(["resilience", "--validate"]) == 1
        out = capsys.readouterr().out
        assert "worst cell error: 0.00%" in out
        assert f"IMBALANCED rho=0.90 K= 10 r=3 beta=0: {result.ledger!r} (client: " in out


class TestBench:
    """The suite table itself is covered in ``tests/test_bench_suites.py``."""

    def test_fast_bench_runs_and_reports(self, capsys):
        assert main(["bench", "hotpath", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "selector eval:" in out
        assert "dispatch:" in out
        assert "gate:" in out
        assert "acceptance: pass = True" in out

    def test_bench_writes_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "bench.json"
        assert main(["bench", "hotpath", "--fast", "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert set(payload) >= {"selector_eval", "dispatch", "simulation", "acceptance"}
        assert payload["selector_eval"]["mismatches"] == 0
        assert payload["dispatch"]["matches_identical"] is True

    def test_bench_help_parses(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--help"])

    @pytest.mark.parametrize("argv", [["bench", "--fast"], ["batch", "--fast"]])
    def test_bench_needs_a_suite_and_batch_is_not_a_command(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestCheck:
    def test_repo_default_scan_is_clean(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "finding(s)" in out

    def test_findings_exit_one_with_json_report(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        assert main(["check", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "SIM001"
        assert "fingerprint" in payload["findings"][0]

    def test_rule_selection_narrows_the_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\ncache = {}\n")
        assert main(["check", str(bad), "--rules", "API"]) == 1
        out = capsys.readouterr().out
        assert "API002" in out and "SIM001" not in out

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "ok.py"
        bad.write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(bad), "--rules", "NOPE"])
        assert excinfo.value.code == 2

    def test_missing_path_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "/no/such/tree.py"])
        assert excinfo.value.code == 2

    def test_require_fails_on_stale_baseline(self, capsys, tmp_path):
        import json

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        baseline = tmp_path / "BASE.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "SIM001",
                            "path": "clean.py",
                            "text": "gone = time.time()",
                            "occurrence": 0,
                            "reason": "was fixed",
                        }
                    ]
                }
            )
        )
        args = ["check", str(clean), "--baseline", str(baseline)]
        assert main(args) == 0  # advisory mode tolerates staleness
        capsys.readouterr()
        assert main(args + ["--require"]) == 1  # CI mode does not
        assert "stale baseline entry" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "REC001", "RACE001", "API001"):
            assert code in out


class TestLintFormats:
    def test_json_report_counts_warnings(self, capsys):
        import json

        assert main(["lint", "price > 10 AND price < 5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["warnings"] >= 1
        assert len(payload["selectors"]) == 1

    def test_strict_turns_warnings_into_exit_one(self):
        assert main(["lint", "price > 10 AND price < 5", "--strict"]) == 1

    def test_parse_error_exits_one(self, capsys):
        assert main(["lint", "price >", "--format", "json"]) == 1
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_no_selectors_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for command in (
            "report",
            "figure",
            "capacity",
            "wait",
            "overload",
            "bench",
            "lint",
            "check",
        ):
            assert command in out

    def test_help_of_every_command_leaves_the_laboratory_unimported(self, run_fresh):
        """The handlers import inside themselves, so parsing and ``--help``
        load neither scipy nor ``repro.analysis``.  A fresh interpreter:
        in-process the rest of tier-1 has already loaded both."""
        run_fresh(
            """
import contextlib, io, sys
from repro.cli import build_parser, main
commands = sorted(build_parser()._subparsers._group_actions[0].choices)
assert len(commands) == 10, commands
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            main([command, "--help"])
        except SystemExit as stop:
            assert stop.code == 0, (command, stop.code)
    assert "usage: repro " + command in out.getvalue(), command
    loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("repro.analysis")]
    assert loaded == [], (command, loaded)
"""
        )
