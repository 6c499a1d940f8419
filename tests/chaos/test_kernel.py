"""The chaos kernel: the survivor oracle and the report every matrix returns."""

from repro.chaos import ChaosPoint, ChaosReport, survivor_violations


class TestSurvivorOracle:
    def test_clean_survivors_pass(self):
        assert survivor_violations([1, 2, 3], live={1, 2, 3}, gone={4, 5}) == []
        assert survivor_violations([], live=set(), gone={1}) == []

    def test_one_violation_per_kind(self):
        # 1 twice (duplicate), 2 missing (lost), 4 back (resurrected),
        # 9 never sent (unexpected); 3 survives cleanly.
        violations = survivor_violations([1, 1, 3, 4, 9], live={1, 2, 3}, gone={4, 5})
        assert violations == [
            "duplicate ids: [1]",
            "lost ids: [2]",
            "resurrected ids: [4]",
            "unexpected ids: [9]",
        ]

    def test_each_kind_alone(self):
        live, gone = {1, 2}, {3}
        assert survivor_violations([1, 2, 2], live, gone) == ["duplicate ids: [2]"]
        assert survivor_violations([1], live, gone) == ["lost ids: [2]"]
        assert survivor_violations([1, 2, 3], live, gone) == ["resurrected ids: [3]"]
        assert survivor_violations([1, 2, 7], live, gone) == ["unexpected ids: [7]"]

    def test_found_may_be_any_iterable(self):
        assert survivor_violations(iter([2, 1]), live={1, 2}, gone=set()) == []


class TestReport:
    def test_empty_report_is_not_ok(self):
        report = ChaosReport({"seed": 0})
        assert not report.ok
        assert report.failures == []
        assert report.to_dict() == {"seed": 0, "points": 0, "ok": False, "violations": []}

    def test_a_failing_point_fails_the_report(self):
        report = ChaosReport({"seed": 0})
        report.points.append(ChaosPoint({"step": 0}))
        assert report.ok
        report.points.append(ChaosPoint({"mode": "sync", "step": 1}, ["lost ids: [7]"]))
        assert not report.ok
        assert [p.coords for p in report.failures] == [{"mode": "sync", "step": 1}]
        assert report.violations == ["mode=sync step=1: lost ids: [7]"]

    def test_a_failing_check_fails_the_report_but_is_no_point(self):
        report = ChaosReport({}, points=[ChaosPoint({"step": 0})])
        report.checks.append(ChaosPoint({"check": "lease-pause"}, ["not fenced"]))
        assert not report.ok
        assert report.to_dict()["points"] == 1
        assert report.violations == ["check=lease-pause: not fenced"]

    def test_to_dict_keeps_the_first_fifty_violations(self):
        report = ChaosReport({"seed": 1, "ops": 2})
        report.points.extend(ChaosPoint({"step": n}, [f"v{n}"]) for n in range(60))
        payload = report.to_dict()
        assert payload["points"] == 60 and payload["ok"] is False
        assert payload["violations"] == [f"step={n}: v{n}" for n in range(50)]
        assert (payload["seed"], payload["ops"]) == (1, 2)
