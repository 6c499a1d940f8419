"""numpy-optional backend for the simulation layer.

The fast path uses ``numpy`` (install the ``repro[fast]`` extra): batch
RNG draws, pairwise-summation statistics.  When numpy is missing — or
when ``REPRO_PURE_PYTHON=1`` forces the fallback for testing — the same
API is served by the standard library: :class:`PurePythonGenerator`
mimics the ``numpy.random.Generator`` surface this codebase uses
(``exponential``, ``gamma``, ``uniform``, ``lognormal``, ``choice``,
``random``, ``geometric``, ``binomial``, ``integers``; scalar or
``size=`` batches).

Scalar draws on the pure path are *distributionally* correct but not
bit-identical to numpy's bit streams — seeded experiment outputs differ
between backends, which is why numpy remains the default when present.
"""

from __future__ import annotations

import math
import os
import random as _random_module
from typing import Any, List, Optional, Sequence, Union

__all__ = [
    "HAVE_NUMPY",
    "np",
    "PurePythonGenerator",
    "make_generator",
    "as_float_array",
    "GeneratorLike",
]

# Backend selector.  The two backends draw from different bit streams (see
# the module docstring), so the environment read selects the seeded results
# too: the byte-reproducible BENCH_*.json recordings hold only on the numpy
# stream, and the pure-python leg is checked for behaviour, not bytes.
_FORCE_PURE = os.environ.get("REPRO_PURE_PYTHON", "0") == "1"  # repro: ignore[SIM004]

np: Any = None
HAVE_NUMPY = False
if not _FORCE_PURE:
    try:
        import numpy  # noqa: F401

        np = numpy
        HAVE_NUMPY = True
    except ImportError:  # pragma: no cover - depends on environment
        pass

#: Either a ``numpy.random.Generator`` or a :class:`PurePythonGenerator`.
GeneratorLike = Any


class PurePythonGenerator:
    """Standard-library stand-in for ``numpy.random.Generator``.

    Implements exactly the method surface the repro codebase draws from,
    with numpy's signatures: ``size=None`` returns a scalar ``float``
    (or ``int``), ``size=n`` returns a list of ``n`` draws.
    """

    __slots__ = ("_random",)

    def __init__(self, seed: Optional[int] = None):
        self._random = _random_module.Random(seed)

    # -- helpers -------------------------------------------------------
    def _many(self, draw, size: Optional[int]):
        if size is None:
            return draw()
        return [draw() for _ in range(int(size))]

    # -- numpy.random.Generator surface --------------------------------
    def random(self, size: Optional[int] = None):
        return self._many(self._random.random, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: Optional[int] = None):
        return self._many(lambda: self._random.uniform(low, high), size)

    def exponential(self, scale: float = 1.0, size: Optional[int] = None):
        return self._many(lambda: self._random.expovariate(1.0) * scale, size)

    def gamma(self, shape: float, scale: float = 1.0, size: Optional[int] = None):
        return self._many(lambda: self._random.gammavariate(shape, scale), size)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size: Optional[int] = None):
        return self._many(lambda: self._random.lognormvariate(mean, sigma), size)

    def geometric(self, p: float, size: Optional[int] = None):
        if not 0 < p <= 1:
            raise ValueError(f"geometric probability must be in (0, 1], got {p}")

        def draw() -> int:
            if p == 1.0:
                return 1
            # Inverse-CDF on support {1, 2, ...}, matching numpy.
            u = self._random.random()
            return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))

        return self._many(draw, size)

    def integers(self, low: int, high: Optional[int] = None, size: Optional[int] = None):
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"integers needs low < high, got [{low}, {high})")
        return self._many(lambda: self._random.randrange(low, high), size)

    def binomial(self, n: int, p: float, size: Optional[int] = None):
        if not 0 <= p <= 1:
            raise ValueError(f"binomial probability must be in [0, 1], got {p}")

        def draw() -> int:
            rand = self._random.random
            return sum(1 for _ in range(int(n)) if rand() < p)

        return self._many(draw, size)

    def choice(
        self,
        a: Union[int, Sequence[Any]],
        size: Optional[int] = None,
        p: Optional[Sequence[float]] = None,
    ):
        population: Sequence[Any] = range(int(a)) if isinstance(a, int) else a
        if p is not None:
            weights = list(p)

            def draw():
                return self._random.choices(population, weights=weights)[0]

        else:
            n = len(population)

            def draw():
                return population[self._random.randrange(n)]

        return self._many(draw, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PurePythonGenerator()"


def make_generator(seed_material: Union[int, Sequence[int]]) -> GeneratorLike:
    """A seeded generator on the active backend.

    With numpy, ``seed_material`` feeds ``SeedSequence`` (bit-compatible
    with the original numpy-only code); the pure path folds it into one
    integer seed for :class:`PurePythonGenerator`.
    """
    if HAVE_NUMPY:
        return np.random.default_rng(np.random.SeedSequence(seed_material))
    if isinstance(seed_material, int):
        return PurePythonGenerator(seed_material)
    folded = 0
    for part in seed_material:
        folded = (folded * 0x9E3779B97F4A7C15 + int(part) + 1) % (2**64)
    return PurePythonGenerator(folded)


def as_float_array(values: Sequence[float]):
    """``numpy.asarray(..., float)`` on the fast path, list of floats otherwise."""
    if HAVE_NUMPY:
        return np.asarray(values, dtype=float)
    return [float(v) for v in values]
