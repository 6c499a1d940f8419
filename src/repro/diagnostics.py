"""Span-carrying diagnostics, rendered GCC-style.

A :class:`Diagnostic` points at the exact fragment of a source text it
is about (a ``(start, end)`` :data:`Span`) and renders with that fragment
underlined::

    error [E_TYPE_COMPARISON]: cannot compare numeric with string
        price = 17 AND kind = (3 = 'cheap')
                               ^^^^^^^^^^^

A stdlib-only leaf, like :mod:`repro.filter_type`: the selector analyzer
(:mod:`repro.broker.selector.analysis`, behind the broker's strict/warn
subscribe mode and ``repro lint``) and the whole-program analyzer
(:mod:`repro.statics`, behind ``repro check``) both render through it,
so each imports it here without loading the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["Span", "Severity", "Diagnostic", "render_diagnostic", "render_diagnostics"]

#: ``(start, end)`` character offsets into the source text.
Span = Tuple[int, int]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a selector invalid (a JMS provider must reject
    it at subscribe time); ``WARNING`` findings are legal but wasteful —
    dead or trivial filters, suspicious typing.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a selector source span."""

    severity: Severity
    code: str
    message: str
    span: Optional[Span] = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def describe(self) -> str:
        """One-line summary: ``error [CODE]: message (at 3..8)``."""
        location = f" (at {self.span[0]}..{self.span[1]})" if self.span else ""
        return f"{self.severity} [{self.code}]: {self.message}{location}"

    def __str__(self) -> str:
        return self.describe()


def render_diagnostic(diagnostic: Diagnostic, source: Optional[str] = None) -> str:
    """Render one diagnostic, underlining its span within ``source``."""
    lines = [diagnostic.describe() if source is None else _headline(diagnostic)]
    if source is not None and diagnostic.span is not None:
        start, end = diagnostic.span
        start = max(0, min(start, len(source)))
        end = max(start + 1, min(end, len(source))) if source else start
        lines.append(f"    {source}")
        lines.append("    " + " " * start + "^" * max(1, end - start))
    elif source is not None:
        lines.append(f"    {source}")
    return "\n".join(lines)


def _headline(diagnostic: Diagnostic) -> str:
    return f"{diagnostic.severity} [{diagnostic.code}]: {diagnostic.message}"


def render_diagnostics(diagnostics: Sequence[Diagnostic], source: Optional[str] = None) -> str:
    """Render a batch of diagnostics against one selector source."""
    blocks: List[str] = [render_diagnostic(d, source) for d in diagnostics]
    return "\n".join(blocks)
