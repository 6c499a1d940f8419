#!/usr/bin/env python
"""Run the repo's static checks (ruff + mypy + ``repro check``) and the
import gates (every package imports; a product package imports only
what a message touches).

Usage::

    python tools/check_static.py          # run whatever tools exist
    python tools/check_static.py --require  # fail if a tool is missing

The configuration lives in ``pyproject.toml`` (``[tool.ruff]``,
``[tool.mypy]``).  Environments without the tools (e.g. the minimal test
container) skip them with a notice instead of failing, so the script is
safe to call from CI bootstrap and from the pytest gate alike.  The
in-repo invariant analyzer (``repro check``) runs with the bundled
interpreter and is therefore never skipped.
"""

from __future__ import annotations

import argparse
import os
import shutil
import site
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKS = (
    ("ruff", ["ruff", "check", "src", "tests", "benchmarks", "tools"]),
    ("mypy", ["mypy", "--config-file", "pyproject.toml"]),
)

#: Packages that must import cleanly even in minimal environments.  This
#: runs with the bundled interpreter, so unlike ruff/mypy it can never be
#: skipped: a broken import in any of these fails the gate everywhere.
IMPORT_SMOKE = (
    "repro",
    "repro.broker",
    "repro.broker.selector.compile",
    "repro.broker.dispatch_cache",
    "repro.bench",
    "repro.bench.hotpath",
    "repro.bench.batch",
    "repro.bench.suites",
    "repro.core.batch",
    "repro.simulation.queueing",
    "repro.faults",
    "repro.overload",
    "repro.overload.experiment",
    "repro.durability",
    "repro.durability.journal",
    "repro.durability.recovery",
    "repro.durability.tail",
    "repro.replication",
    "repro.replication.pair",
    "repro.mesh",
    "repro.mesh.rebalance",
    "repro.chaos",
    "repro.chaos.kernel",
    "repro.chaos.crash",
    "repro.chaos.failover",
    "repro.chaos.rebalance",
    "repro.analysis.overload",
    "repro.architectures.failover",
    "repro.rng",
    "repro.filter_type",
    "repro.diagnostics",
    "repro.statics",
    "repro.statics.engine",
    "repro.resilience",
    "repro.resilience.harness",
    "repro.core.resilience",
)

#: The product / laboratory boundary (DESIGN §3).  Importing a product
#: package alone in a fresh interpreter must load nothing under
#: ``LABORATORY`` and at most this many modules: package → (``repro``
#: modules, modules in all).  The ceilings sit a few modules above what
#: the packages load today (25 / 101, 31 / 120, 37 / 128, 48 / 139, and
#: 31 / 107 for ``repro.overload``, which every mesh closure loads), so a
#: new eager import fails here before it shows as start-up time and RSS.
#: The count leaves out what the interpreter's start-up hooks import (a
#: ``.pth`` file or ``sitecustomize``; see ``loaded_modules``): those vary
#: from machine to machine and no repro code loads them.
IMPORT_CLOSURE = {
    "repro.broker": (28, 119),
    "repro.durability": (35, 133),
    "repro.replication": (41, 143),
    "repro.mesh": (52, 155),
    "repro.overload": (34, 122),
}

#: What a message never touches: the numeric laboratory (numpy, scipy,
#: the model and the discrete-event substrate) and the packages that
#: measure, model, fault or lint the product from outside.
LABORATORY = (
    "numpy",
    "scipy",
    "repro.core",
    "repro.simulation",
    "repro.analysis",
    "repro.architectures",
    "repro.testbed",
    "repro.bench",
    "repro.statics",
    "repro.faults",
    "repro.resilience",
    "repro.chaos",
)

#: CLI invocations that must at least parse and print help in every
#: environment — a regression here means the entry point itself is broken.
CLI_SMOKE = (
    ["overload", "--help"],
    ["bench", "--help"],
    ["check", "--help"],
    ["lint", "--help"],
    ["resilience", "--help"],
)


#: Hypothesis equivalence suites gating the compiled hot path: compiled
#: selectors and fused topic scans must agree with the tree-walking
#: interpreter (also across every event that makes a built scan stale),
#: memoized dispatch with cold planning, and every batch entry point —
#: broker, queue and mesh — with its scalar loop under any split into
#: batches, on randomized inputs.  Run as part of the gate because a
#: divergence here silently corrupts dispatch.  The write-ahead record
#: format rides along: its encoder and its parser must stay inverses,
#: since shipped and replicated records are never re-serialised.  So do
#: the two shortcuts replication takes: a run append must land the bytes
#: one-by-one appends would, and a tailer that remembers its listing and
#: that the log ran dry must return what one without memory returns.
#: And the one a batch takes: a commit scope must land the bytes its
#: records would have landed one by one.
EQUIVALENCE_SUITES = (
    "tests/broker/test_selector_compile.py::TestCompiledEquivalence",
    "tests/broker/test_selector_intern.py::TestInternedEquivalence",
    "tests/broker/test_dispatch_memo.py::TestMemoizedEquivalence",
    "tests/broker/test_publish_batch.py::TestBatchPublishEquivalence",
    "tests/broker/test_scan_kernel.py::TestScanInvalidation",
    "tests/mesh/test_batch_routing.py::TestRoutingEquivalence",
    "tests/durability/test_record_format.py::TestRecordFormatV2",
    "tests/durability/test_journal.py::TestAppendRun",
    "tests/durability/test_journal.py::TestCommitScope",
    "tests/durability/test_tail.py::test_a_long_lived_tailer_returns_what_a_twin_without_memory_returns",
)


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def equivalence_smoke() -> bool:
    """Run the compiled-vs-interpreted equivalence property suites."""
    try:
        import hypothesis  # noqa: F401
        import pytest  # noqa: F401
    except ImportError:
        print("[check_static] equivalence: pytest/hypothesis not installed, skipping")
        return True
    print(f"[check_static] equivalence: {len(EQUIVALENCE_SUITES)} property suites")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *EQUIVALENCE_SUITES],
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    return result.returncode == 0


def import_smoke() -> bool:
    """Import every package in IMPORT_SMOKE in a fresh interpreter."""
    script = "import importlib\n" + "\n".join(
        f"importlib.import_module({name!r})" for name in IMPORT_SMOKE
    )
    print(f"[check_static] import-smoke: {', '.join(IMPORT_SMOKE)}")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT, env=_env_with_src()
    )
    return result.returncode == 0


def loaded_modules(package: str) -> list[str]:
    """``sys.modules`` after importing ``package`` alone in a fresh
    interpreter without its site hooks: ``-S``, site-packages on the path,
    no ``.pth`` / ``sitecustomize`` run.  What a start-up hook imports is the
    machine's, not the package's, and would count against every ceiling; a
    dependency reachable only through a ``.pth`` path entry raises here."""
    site_packages = site.getsitepackages()
    if site.ENABLE_USER_SITE:
        site_packages.append(site.getusersitepackages())
    script = (
        f"import site, sys; sys.path.extend({site_packages!r}); import {package}; "
        "print(*sorted(sys.modules), sep='\\n')"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        cwd=REPO_ROOT,
        env=_env_with_src(),
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        raise ImportError(f"import {package} failed alone:\n{result.stderr}")
    return result.stdout.split()


def _repro_count(modules: list[str]) -> int:
    return sum(name.partition(".")[0] == "repro" for name in modules)


def closure_findings(package: str, modules: list[str]) -> list[str]:
    """Where ``modules`` breaks ``package``'s row of IMPORT_CLOSURE."""
    repro_ceiling, total_ceiling = IMPORT_CLOSURE[package]
    findings = [
        f"{package} loads {name}"
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in LABORATORY)
    ]
    if _repro_count(modules) > repro_ceiling:
        findings.append(
            f"{package} loads {_repro_count(modules)} repro modules > {repro_ceiling}"
        )
    if len(modules) > total_ceiling:
        findings.append(f"{package} loads {len(modules)} modules > {total_ceiling}")
    return findings


def import_closure() -> bool:
    """Hold each product package's import closure to IMPORT_CLOSURE."""
    print("[check_static] import-closure: package · repro modules · all modules · numpy?")
    ok = True
    for package in IMPORT_CLOSURE:
        modules = loaded_modules(package)
        numpy = "loaded" if "numpy" in modules else "absent"
        print(
            f"[check_static]   {package:<18} {_repro_count(modules):>3} {len(modules):>4}  {numpy}"
        )
        for finding in closure_findings(package, modules):
            print(f"[check_static]   {finding}")
            ok = False
    return ok


def cli_smoke() -> bool:
    """Exercise the CLI entry point (``--help`` parses cleanly)."""
    env = _env_with_src()
    ok = True
    for arguments in CLI_SMOKE:
        print(f"[check_static] cli-smoke: repro {' '.join(arguments)}")
        result = subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
        )
        if result.returncode != 0:
            print(result.stderr.decode(errors="replace"))
            ok = False
    return ok


def repro_check() -> bool:
    """Run the whole-program invariant analyzer as a hard CI gate.

    Uses the bundled interpreter (the analyzer is stdlib-only), so this
    stage is never skipped: any new finding, stale baseline entry, or
    parse failure fails the gate.
    """
    command = [sys.executable, "-m", "repro", "check", "--require"]
    print(f"[check_static] repro-check: {' '.join(command[2:])}")
    result = subprocess.run(command, cwd=REPO_ROOT, env=_env_with_src())
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require",
        action="store_true",
        help="exit non-zero when a checker is not installed (CI mode)",
    )
    args = parser.parse_args(argv)
    failed = not import_smoke()
    failed = not import_closure() or failed
    failed = not cli_smoke() or failed
    failed = not repro_check() or failed
    failed = not equivalence_smoke() or failed
    for name, command in CHECKS:
        if shutil.which(command[0]) is None:
            print(f"[check_static] {name}: not installed, skipping")
            if args.require:
                failed = True
            continue
        print(f"[check_static] {name}: {' '.join(command)}")
        result = subprocess.run(command, cwd=REPO_ROOT)
        if result.returncode != 0:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
