"""Engine behavior: the shared walk, selection, determinism, self-check."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.statics import (
    CheckConfig,
    ModuleSource,
    PackageIndex,
    build_index,
    default_rules,
    run_check,
    select_rules,
)


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


class TestBuildIndex:
    def test_walks_nested_packages_sorted(self, make_index):
        index = make_index(
            {
                "zeta.py": "x = 1\n",
                "alpha.py": "y = 2\n",
                "sub/inner.py": "z = 3\n",
            }
        )
        assert [m.rel for m in index.modules] == [
            "pkg/alpha.py",
            "pkg/sub/inner.py",
            "pkg/zeta.py",
        ]
        assert index.parse_errors == ()

    def test_parse_error_becomes_engine_finding(self, make_index):
        index = make_index({"ok.py": "x = 1\n", "broken.py": "def broken(:\n"})
        assert [rel for rel, _ in index.parse_errors] == ["pkg/broken.py"]
        report = run_check(CheckConfig(roots=()), index=index)
        engine = [f for f in report.findings if f.rule == "ENGINE000"]
        assert len(engine) == 1
        assert engine[0].path == "pkg/broken.py"
        assert "does not parse" in engine[0].message

    def test_exclude_prunes_directories(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "vendored").mkdir(parents=True)
        (root / "vendored" / "x.py").write_text("import time\nt = time.time()\n")
        (root / "own.py").write_text("a = 1\n")
        index = build_index(CheckConfig(roots=(root,), exclude=("vendored",)))
        assert [m.rel for m in index.modules] == ["pkg/own.py"]


class TestSelectRules:
    def test_registry_is_sorted_and_complete(self):
        codes = [rule.code for rule in default_rules()]
        assert codes == sorted(codes)
        families = {rule.family for rule in default_rules()}
        assert families == {"SIM", "REC", "RACE", "API"}

    def test_family_and_code_selection(self):
        rules = default_rules()
        sim = select_rules(rules, ["SIM"])
        assert {r.family for r in sim} == {"SIM"} and len(sim) == 4
        one = select_rules(rules, ["api001"])
        assert [r.code for r in one] == ["API001"]

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown rule selector"):
            select_rules(default_rules(), ["NOPE"])


def _parse_virtual(files):
    """Parse an in-memory package into a PackageIndex (no filesystem)."""
    modules = []
    for name in sorted(files):
        source = files[name]
        modules.append(
            ModuleSource(
                path=Path("/virtual") / "pkg" / name,
                rel=f"pkg/{name}",
                source=source,
                tree=ast.parse(source),
                lines=source.splitlines(),
            )
        )
    return PackageIndex(modules=tuple(modules))


_SNIPPETS = (
    "import time\n{n} = time.time()\n",
    "import random\n{n} = random.random()\n",
    "def {n}(acc=[]):\n    return acc\n",
    "{n} = dict()\n",
    "for {n} in {{1, 2}}:\n    pass\n",
    "def {n}(x):\n    return x + 1\n",
)

_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"in", "for", "def", "is", "if", "or", "and", "not"}
)


@st.composite
def _virtual_packages(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    files = {}
    for position in range(count):
        parts = draw(
            st.lists(
                st.tuples(st.sampled_from(_SNIPPETS), _names),
                min_size=1,
                max_size=4,
            )
        )
        files[f"m{position}.py"] = "".join(
            template.format(n=f"{name}_{position}_{i}")
            for i, (template, name) in enumerate(parts)
        )
    return files


class TestDeterminism:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(files=_virtual_packages())
    def test_same_tree_gives_byte_identical_json(self, files):
        """Two fresh parse+check runs over one tree agree byte-for-byte."""
        first = run_check(CheckConfig(roots=()), index=_parse_virtual(files))
        second = run_check(CheckConfig(roots=()), index=_parse_virtual(files))
        assert first.to_json() == second.to_json()
        assert first.to_json().encode() == second.to_json().encode()

    def test_report_is_sorted_and_timestamp_free(self):
        import json

        files = {
            "b.py": "import time\nt = time.time()\n",
            "a.py": "import random\nr = random.random()\n",
        }
        report = run_check(CheckConfig(roots=()), index=_parse_virtual(files))
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
        payload = json.loads(report.to_json())
        # The schema carries no clocks, hostnames or run identifiers.
        assert set(payload) == {
            "counts",
            "files_scanned",
            "findings",
            "rules_run",
            "stale_baseline",
            "version",
        }


class TestSelfApplication:
    """The repo passes its own analyzer: the dogfooding acceptance gate."""

    def test_src_repro_is_clean_against_committed_baseline(self):
        root = repo_root()
        config = CheckConfig(
            roots=(root / "src" / "repro",),
            baseline=root / "STATIC_BASELINE.json",
        )
        report = run_check(config)
        assert report.clean, "\n".join(f.describe() for f in report.findings)
        assert report.stale_baseline == []
        assert report.baselined > 0  # the RACE worklist is tracked, not hidden
        assert report.suppressed > 0  # the justified inline ignores fire
