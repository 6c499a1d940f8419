"""Deterministic named random-number streams.

Measurement reproducibility in the paper comes from repeating runs until
confidence intervals are narrow; here it comes from seeding.  Each model
component (every publisher, every filter generator, every service process)
draws from its *own* named stream so that adding a component never perturbs
the random sequence of another — the standard variance-reduction discipline
for discrete-event simulation.

Streams are ``numpy`` generators seeded through ``SeedSequence``.  This
module is a stdlib-only leaf: numpy loads at the first stream a caller
asks for, so the product packages, which take a :class:`RandomStreams`
for their fault draws, import without it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RandomStreams", "stable_hash"]


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of ``text``.

    ``hash()`` is salted per interpreter run, which would break
    reproducibility, so we use BLAKE2 instead.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_generator(seed_material: Union[int, Sequence[int]]) -> np.random.Generator:
    """A numpy generator seeded through ``SeedSequence(seed_material)``."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed_material))


class RandomStreams:
    """A family of independent, named generators.

    Parameters
    ----------
    seed:
        Master seed.  Two :class:`RandomStreams` with the same seed produce
        identical streams for identical names.

    Example
    -------
    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("publisher-0")
    >>> b = streams.stream("publisher-1")
    >>> a is streams.stream("publisher-0")
    True
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = make_generator([self.seed, stable_hash(name)])
            self._streams[name] = generator
        return generator

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child family (e.g. one per JMS server)."""
        return RandomStreams(seed=stable_hash(f"{self.seed}:{name}") % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
