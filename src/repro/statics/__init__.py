"""Whole-program invariant analyzer (``repro check``).

PR 1 proved the value of span-diagnosed static analysis for one DSL
(message selectors); this package lifts the discipline to the whole
codebase.  Four rule families encode the repo's real invariants:

=========  ==========================================================
``SIM``    bit-determinism: no wall clock, global entropy, hash-order
           iteration or environment reads inside ``src/repro``
``REC``    the recovery no-raise contract: no uncaught raise reachable
           from the ``durability.recovery`` scan/fold/apply entries
``RACE``   shared-state mutation outside owner classes / in callbacks
           — the audited worklist for m-worker dispatch (ROADMAP 5)
``API``    hygiene: mutable defaults, module-level mutable state,
           silently swallowed broad excepts
=========  ==========================================================

(Message conservation is product code, :mod:`repro.broker.ledger`;
``RACE001`` guards its single mutation point.)

The engine parses the package once, shares the ASTs across rules, and
reports with the same caret diagnostics as ``repro lint``.  Inline
``# repro: ignore[RULE]`` comments and the committed
``STATIC_BASELINE.json`` (every entry carries a reason) keep it
deployable on a living tree; ``repro check --require`` is the CI gate.
"""

from .engine import (
    CheckConfig,
    ModuleSource,
    PackageIndex,
    Rule,
    build_index,
    default_rules,
    run_check,
    select_rules,
)
from .model import CheckReport, Finding, Severity
from .suppress import Baseline, BaselineEntry, BaselineError

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Finding",
    "Severity",
    "ModuleSource",
    "PackageIndex",
    "Rule",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "build_index",
    "default_rules",
    "select_rules",
    "run_check",
]
