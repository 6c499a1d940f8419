"""The ``repro check`` engine: walk the package once, run every rule.

The engine parses each source file exactly once into a
:class:`ModuleSource` (path, text, AST, physical lines) and hands the
shared :class:`PackageIndex` to every registered rule — rules never
re-read or re-parse files, so adding a rule family costs one AST walk,
not one filesystem walk.

Pipeline: collect findings from all rules -> drop inline-suppressed
ones -> partition against the committed baseline -> emit a sorted,
deterministic :class:`~repro.statics.model.CheckReport`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import CheckReport, Finding
from .suppress import Baseline, fingerprint_findings, is_suppressed

__all__ = [
    "ModuleSource",
    "PackageIndex",
    "Rule",
    "CheckConfig",
    "default_rules",
    "build_index",
    "run_check",
]


@dataclass
class ModuleSource:
    """One parsed source file, shared by every rule."""

    path: Path  #: absolute filesystem path
    rel: str  #: stable posix-relative path used in findings and baselines
    source: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, path: Path, rel: str) -> "ModuleSource":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, rel=rel, source=source, tree=tree, lines=source.splitlines())


@dataclass
class PackageIndex:
    """Every module of the scanned package."""

    modules: Tuple[ModuleSource, ...]
    #: Files that failed to parse: ``(rel, error message)``.
    parse_errors: Tuple[Tuple[str, str], ...] = ()

    def sources(self) -> Dict[str, Sequence[str]]:
        """``rel path -> physical lines`` for rendering and baselines."""
        return {m.rel: m.lines for m in self.modules}

    def module(self, rel_suffix: str) -> Optional[ModuleSource]:
        for module in self.modules:
            if module.rel.endswith(rel_suffix):
                return module
        return None


class Rule:
    """One lint rule: a code, a severity, and a whole-program pass.

    Subclasses set :attr:`code` (e.g. ``"SIM001"``), :attr:`severity`
    and :attr:`description`, and implement :meth:`run` over the shared
    index.  The family is the code's alphabetic prefix; ``--rules SIM``
    selects every rule whose family is ``SIM``.
    """

    code: str = ""
    description: str = ""

    from .model import Severity  # re-export for subclass convenience

    severity = Severity.ERROR

    @property
    def family(self) -> str:
        return self.code.rstrip("0123456789")

    def run(self, index: PackageIndex) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        from ._astutil import node_anchor

        line, col, end_col = node_anchor(node, module.lines)
        return Finding(
            rule=self.code,
            severity=self.severity,
            path=module.rel,
            line=line,
            col=col,
            end_col=end_col,
            message=message,
        )


def default_rules() -> List[Rule]:
    """The registry: every built-in rule, in deterministic order."""
    from . import rules_api, rules_race, rules_rec, rules_sim

    rules: List[Rule] = []
    for module in (rules_sim, rules_rec, rules_race, rules_api):
        rules.extend(module.rules())
    return sorted(rules, key=lambda rule: rule.code)


def select_rules(
    rules: Sequence[Rule], selection: Optional[Sequence[str]]
) -> List[Rule]:
    """Filter by family or code; unknown selectors raise ``ValueError``."""
    if not selection:
        return list(rules)
    wanted = {s.strip().upper() for s in selection if s.strip()}
    known = {r.code for r in rules} | {r.family for r in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule selector(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    return [r for r in rules if r.code in wanted or r.family in wanted]


@dataclass
class CheckConfig:
    """Inputs of one ``repro check`` run."""

    #: Package roots to scan (each a directory; files are scanned too).
    roots: Tuple[Path, ...]
    #: Committed baseline path (``STATIC_BASELINE.json``); ``None`` = none.
    baseline: Optional[Path] = None
    #: Rule code/family selection; ``None`` runs everything.
    rules: Optional[Tuple[str, ...]] = None
    exclude: Tuple[str, ...] = field(default_factory=tuple)


def build_index(config: CheckConfig) -> PackageIndex:
    """Parse every ``*.py`` under the roots exactly once, sorted."""
    modules: List[ModuleSource] = []
    errors: List[Tuple[str, str]] = []
    seen = set()
    for root in config.roots:
        root = root.resolve()
        if root.is_file():
            files = [root]
            base = root.parent
        else:
            files = sorted(root.rglob("*.py"))
            base = root.parent
        for path in files:
            rel = path.relative_to(base).as_posix()
            if rel in seen or any(part in config.exclude for part in Path(rel).parts):
                continue
            seen.add(rel)
            try:
                modules.append(ModuleSource.parse(path, rel))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                errors.append((rel, str(exc)))
    modules.sort(key=lambda m: m.rel)
    return PackageIndex(modules=tuple(modules), parse_errors=tuple(errors))


def run_check(
    config: CheckConfig,
    rules: Optional[Sequence[Rule]] = None,
    index: Optional[PackageIndex] = None,
) -> CheckReport:
    """Run the analyzer; returns a deterministic report.

    ``rules`` overrides the default registry (tests inject configured
    rule instances); ``index`` lets callers reuse a parsed tree.
    """
    if index is None:
        index = build_index(config)
    active = select_rules(rules if rules is not None else default_rules(), config.rules)
    sources = index.sources()

    raw: List[Finding] = []
    for rule in active:
        raw.extend(rule.run(index))
    for rel, error in index.parse_errors:
        raw.append(
            Finding(
                rule="ENGINE000",
                severity=Rule.Severity.ERROR,
                path=rel,
                line=1,
                col=0,
                end_col=1,
                message=f"file does not parse: {error}",
            )
        )
    raw.sort(key=lambda f: f.sort_key)

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        lines = sources.get(finding.path, ())
        text = lines[finding.line - 1] if 0 <= finding.line - 1 < len(lines) else ""
        if is_suppressed(finding, text):
            suppressed += 1
        else:
            kept.append(finding)

    baseline = Baseline()
    if config.baseline is not None and config.baseline.exists():
        baseline = Baseline.load(config.baseline.read_text(encoding="utf-8"))
    new, matched, stale = baseline.partition(kept, sources)

    report = CheckReport(
        findings=new,
        baselined=len(matched),
        suppressed=suppressed,
        stale_baseline=[entry.to_dict() for entry in stale],
        files_scanned=len(index.modules),
        rules_run=[rule.code for rule in active],
        fingerprints=fingerprint_findings(new, sources),
    )
    return report
