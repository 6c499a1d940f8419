"""The two filter mechanisms whose cost the paper measures.

A stdlib-only leaf, like :mod:`repro.rng`: the broker's filters report
their :class:`FilterType` and the model's cost rows
(:mod:`repro.core.params`) are keyed by it, so each side imports it here
without loading the other.
"""

from __future__ import annotations

import enum

__all__ = ["FilterType"]


class FilterType(enum.Enum):
    """The two filter mechanisms whose cost the paper measures.

    Topic selection is a third, cheaper mechanism; the paper's model and all
    of its figures use these two.
    """

    CORRELATION_ID = "correlation_id"
    APP_PROPERTY = "app_property"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
