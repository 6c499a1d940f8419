"""Findings and reports for the whole-program static analyzer.

A :class:`Finding` anchors one rule violation to a file/line/column
span; rendering reuses the GCC-style caret diagnostics of
:mod:`repro.diagnostics` so ``repro check`` output looks
exactly like ``repro lint`` output::

    repro/broker/queues.py:359:8: warning [RACE001]: attribute
    'dropped_new' of BrokerStats mutated outside its owning class
        self.stats.dropped_new += 1
        ^^^^^^^^^^^^^^^^^^^^^^

The JSON form is fully sorted and timestamp-free: the same source tree
produces byte-identical reports, which CI diffs rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..diagnostics import Diagnostic, Severity, render_diagnostic

__all__ = ["Severity", "Finding", "CheckReport", "finding_fingerprint"]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source span.

    ``line`` is 1-based, ``col``/``end_col`` are 0-based column offsets
    into that physical line (the convention :func:`ast.parse` uses).
    """

    rule: str
    severity: Severity
    path: str  #: repo-relative posix path, e.g. ``repro/broker/queues.py``
    line: int
    col: int
    end_col: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def describe(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}]: {self.message}"
        )

    def render(self, source_line: Optional[str] = None) -> str:
        """Render with the offending line underlined (when available)."""
        if source_line is None:
            return self.describe()
        stripped = source_line.rstrip("\n")
        dedent = len(stripped) - len(stripped.lstrip())
        diagnostic = Diagnostic(
            severity=self.severity,
            code=self.rule,
            message=self.message,
            span=(max(self.col - dedent, 0), max(self.end_col - dedent, 1)),
        )
        body = render_diagnostic(diagnostic, stripped.strip())
        headline, _, rest = body.partition("\n")
        location = f"{self.path}:{self.line}:{self.col}: {headline}"
        return location + ("\n" + rest if rest else "")

    def to_dict(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_col": self.end_col,
            "message": self.message,
        }
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        return payload


def finding_fingerprint(finding: Finding, line_text: str, occurrence: int) -> str:
    """Line-number-independent identity for baseline matching.

    Hashes the rule, the file, and the *text* of the flagged line, so a
    baselined finding survives unrelated edits that shift line numbers.
    ``occurrence`` disambiguates identical lines in one file (0-based,
    in source order among findings with the same rule and line text).
    """
    digest = hashlib.sha1(
        f"{finding.rule}|{finding.path}|{line_text.strip()}|{occurrence}".encode()
    ).hexdigest()
    return digest[:16]


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings matched (and silenced) by the committed baseline.
    baselined: int = 0
    #: Findings silenced by inline ``# repro: ignore[...]`` comments.
    suppressed: int = 0
    #: Baseline entries that no longer match any finding — the baseline
    #: should shrink; ``--require`` fails on these.
    stale_baseline: List[Dict[str, object]] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)
    #: ``finding -> fingerprint`` for every reported finding.
    fingerprints: Dict[Finding, str] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "rules_run": sorted(self.rules_run),
            "counts": {
                "findings": len(self.findings),
                "baselined": self.baselined,
                "suppressed": self.suppressed,
                "stale_baseline": len(self.stale_baseline),
                "by_rule": self.counts_by_rule(),
            },
            "findings": [
                finding.to_dict(self.fingerprints.get(finding))
                for finding in sorted(self.findings, key=lambda f: f.sort_key)
            ],
            "stale_baseline": self.stale_baseline,
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON: sorted keys, sorted findings."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self, sources: Optional[Dict[str, Sequence[str]]] = None) -> str:
        """Human-readable report; ``sources`` maps path -> lines."""
        blocks: List[str] = []
        for finding in sorted(self.findings, key=lambda f: f.sort_key):
            line_text: Optional[str] = None
            if sources is not None:
                lines = sources.get(finding.path)
                if lines is not None and 0 <= finding.line - 1 < len(lines):
                    line_text = lines[finding.line - 1]
            blocks.append(finding.render(line_text))
        for entry in self.stale_baseline:
            blocks.append(
                f"stale baseline entry [{entry.get('rule')}] {entry.get('path')}: "
                f"{entry.get('text')!r} no longer matches any finding"
            )
        blocks.append(
            f"{self.files_scanned} file(s), {len(self.rules_run)} rule(s): "
            f"{len(self.findings)} finding(s), {self.baselined} baselined, "
            f"{self.suppressed} suppressed, {len(self.stale_baseline)} stale"
        )
        return "\n".join(blocks)
