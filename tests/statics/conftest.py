"""Shared helpers for the static-analyzer tests.

All rule tests run the real engine over tiny synthetic packages written
to ``tmp_path`` — the same path the CLI takes, so the tests cover
``build_index`` path handling for free.  The package root is always
named ``pkg`` so module rel-paths are ``pkg/<name>.py``.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.statics import CheckConfig, PackageIndex, build_index


@pytest.fixture
def make_index(tmp_path):
    """Factory: write a synthetic package, parse it into a PackageIndex.

    ``files`` maps ``"name.py"`` (or ``"sub/name.py"``) to source text.
    """

    def _make(files: Dict[str, str]) -> PackageIndex:
        root = tmp_path / "pkg"
        for name, source in files.items():
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        return build_index(CheckConfig(roots=(root,)))

    return _make
