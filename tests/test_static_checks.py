"""Static-analysis gate for the repo's own sources.

Runs ruff and mypy (configured in ``pyproject.toml``) when they are
installed, and always enforces two lightweight, dependency-free checks:
every source file compiles, and the ``# noqa: SLF001`` private-access
escape hatch stays out of ``src/repro`` (the filter index used to need it
before :class:`CorrelationIdFilter` grew public accessors).
"""

import pathlib
import py_compile
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _python_files():
    return sorted(SRC.rglob("*.py"))


def test_all_sources_compile(tmp_path):
    assert _python_files(), f"no sources found under {SRC}"
    for path in _python_files():
        py_compile.compile(
            str(path), cfile=str(tmp_path / "out.pyc"), doraise=True
        )


def test_no_private_access_suppressions_in_src():
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in _python_files()
        if "noqa: SLF001" in path.read_text(encoding="utf-8")
    ]
    assert offenders == [], (
        "private-attribute access suppressions crept back in; add public"
        f" accessors instead: {offenders}"
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks", "tools"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"ruff findings:\n{result.stdout}{result.stderr}"


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():
    result = subprocess.run(
        ["mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"mypy findings:\n{result.stdout}{result.stderr}"


def test_check_static_script_runs():
    """The tools/check_static.py helper exits cleanly in any environment."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_static.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_check_static_covers_overload_surface():
    """The gate must smoke the overload package and its CLI entry point."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_static
    finally:
        sys.path.pop(0)
    assert "repro.overload" in check_static.IMPORT_SMOKE
    assert "repro.overload.experiment" in check_static.IMPORT_SMOKE
    assert "repro.analysis.overload" in check_static.IMPORT_SMOKE
    assert ["overload", "--help"] in [list(c) for c in check_static.CLI_SMOKE]
    assert check_static.IMPORT_CLOSURE["repro.overload"] == (34, 122)


def test_strict_mypy_scope_includes_overload():
    """repro.overload stays under the strict mypy override."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '"repro.overload.*"' in text


def test_check_static_covers_hotpath_surface():
    """The gate must smoke the compiled hot path, the bench harness and
    its CLI entry point, and run the equivalence property suites."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_static
    finally:
        sys.path.pop(0)
    assert "repro.broker.selector.compile" in check_static.IMPORT_SMOKE
    assert "repro.broker.dispatch_cache" in check_static.IMPORT_SMOKE
    assert "repro.bench.hotpath" in check_static.IMPORT_SMOKE
    assert "repro.bench.suites" in check_static.IMPORT_SMOKE
    assert "repro.rng" in check_static.IMPORT_SMOKE
    assert ["bench", "--help"] in [list(c) for c in check_static.CLI_SMOKE]
    suites = [s.split("::")[0] for s in check_static.EQUIVALENCE_SUITES]
    assert "tests/broker/test_selector_compile.py" in suites
    assert "tests/broker/test_selector_intern.py" in suites
    assert "tests/broker/test_dispatch_memo.py" in suites
    assert "tests/mesh/test_batch_routing.py" in suites
    assert "tests/durability/test_record_format.py" in suites
    assert "tests/durability/test_journal.py" in suites
    assert "tests/durability/test_tail.py" in suites


def test_strict_mypy_scope_includes_hotpath():
    """The compiled selector/bench modules stay under strict mypy."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '"repro.broker.selector.compile"' in text
    assert '"repro.broker.dispatch_cache"' in text
    assert '"repro.bench.*"' in text


def test_queueing_kernel_keeps_the_strict_bar():
    """The Lindley-recursion queue (kernel and drivers) is smoked by the
    gate and held to the strict mypy override, like the batch model."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_static
    finally:
        sys.path.pop(0)
    assert "repro.simulation.queueing" in check_static.IMPORT_SMOKE
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '"repro.simulation.queueing"' in text
    assert '"repro.core.batch"' in text


def test_numpy_is_required_and_scipy_is_the_extra():
    """``repro.core`` needs numpy; scipy is optional (the [fast] extra) and
    ``tests/test_import_closure.py`` runs the product with it blocked."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'fast = ["scipy' in text
    dependencies = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    assert "numpy" in dependencies
    assert "scipy" not in dependencies
