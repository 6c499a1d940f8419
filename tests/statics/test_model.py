"""Finding rendering: caret spans, multi-line anchors, report text."""

import textwrap

from repro.statics import CheckConfig, Severity, run_check
from repro.statics.model import Finding
from repro.statics.rules_api import MutableDefaultRule

def findings_for(rule, index):
    return sorted(rule.run(index), key=lambda f: f.sort_key)



class TestSpanRendering:
    def test_render_underlines_the_span(self):
        finding = Finding(
            rule="SIM001",
            severity=Severity.ERROR,
            path="pkg/clock.py",
            line=2,
            col=4,
            end_col=15,
            message="wall-clock call time.time()",
        )
        rendered = finding.render("    time.time()")
        lines = rendered.splitlines()
        assert lines[0].startswith("pkg/clock.py:2:4: error [SIM001]:")
        assert lines[1] == "    time.time()"
        assert lines[2] == "    ^^^^^^^^^^^"

    def test_render_without_source_falls_back_to_describe(self):
        finding = Finding("API001", Severity.ERROR, "p.py", 1, 0, 3, "boom")
        assert finding.render(None) == finding.describe()
        assert finding.describe() == "p.py:1:0: error [API001]: boom"

    def test_multiline_statement_anchors_to_first_line(self, make_index):
        source = textwrap.dedent(
            """
            def push(
                item,
                acc=[
                    1,
                ],
            ):
                return acc
            """
        )
        index = make_index({"api.py": source})
        found = findings_for(MutableDefaultRule(), index)
        assert len(found) == 1
        finding = found[0]
        assert finding.line == 4  # the physical line the default opens on
        module = index.module("pkg/api.py")
        line_text = module.lines[finding.line - 1]
        # The span never escapes the first physical line of the node.
        assert finding.end_col <= len(line_text)
        rendered = finding.render(line_text)
        caret_line = rendered.splitlines()[-1]
        assert set(caret_line.strip()) == {"^"}
        assert len(caret_line) <= len(line_text)

    def test_report_text_has_sources_and_summary(self, make_index):
        index = make_index({"clock.py": "import time\nt = time.time()\n"})
        report = run_check(CheckConfig(roots=()), index=index)
        text = report.render_text(index.sources())
        assert "t = time.time()" in text  # the offending line is echoed
        assert text.splitlines()[-1] == (
            "1 file(s), 10 rule(s): 1 finding(s), 0 baselined, "
            "0 suppressed, 0 stale"
        )
