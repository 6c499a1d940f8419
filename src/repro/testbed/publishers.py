"""Publisher client models.

Two publisher behaviours from the paper:

- :class:`SaturatedPublisher` (Section III-A.2): sends "as fast as
  possible"; the server's push-back is the only thing slowing it down.
  This drives the server to ~100 % CPU and measures capacity.
- :class:`PoissonPublisher` (Section IV-B.1): stochastic arrivals with
  exponential gaps — the busy-hour model behind the M/G/1-∞ analysis.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from ..broker import Message
from ..simulation import Engine
from ..simulation.distributions import BatchSampler, Exponential
from .simserver import SimulatedJMSServer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SaturatedPublisher", "PoissonPublisher"]


class SaturatedPublisher:
    """Closed-loop publisher: always one message waiting for a credit.

    The publisher keeps exactly one outstanding ``submit``; as soon as the
    server accepts it (possibly after push-back blocking), the next message
    is offered.  Five of these keep the paper's server fully loaded.

    Parameters
    ----------
    min_gap:
        Client-side processing time per message, in virtual seconds.  The
        paper finds that "a minimum number of 5 publishers must be
        installed to fully load the JMS server" — a single publisher
        thread cannot generate messages fast enough.  A non-zero
        ``min_gap`` models that client-side limit (requires ``engine``).
    """

    def __init__(
        self,
        server: SimulatedJMSServer,
        message_factory: Callable[[], Message],
        name: str = "publisher",
        engine: Optional[Engine] = None,
        min_gap: float = 0.0,
    ):
        if min_gap < 0:
            raise ValueError(f"min_gap must be non-negative, got {min_gap}")
        if min_gap > 0 and engine is None:
            raise ValueError("a rate-limited publisher needs the engine")
        self.server = server
        self.message_factory = message_factory
        self.name = name
        self.engine = engine
        self.min_gap = float(min_gap)
        self.sent = 0
        self._stopped = False

    def start(self) -> None:
        self._offer_next()

    def stop(self) -> None:
        """Stop after the currently offered message is accepted."""
        self._stopped = True

    @property
    def max_rate(self) -> float:
        """The publisher's own send-rate ceiling (inf when unlimited)."""
        return float("inf") if self.min_gap == 0 else 1.0 / self.min_gap

    def _offer_next(self) -> None:
        if self._stopped:
            return
        message = self.message_factory()
        self.server.submit(message, on_accept=self._on_accept)

    def _on_accept(self) -> None:
        self.sent += 1
        if self.min_gap > 0:
            assert self.engine is not None
            self.engine.call_in(self.min_gap, self._offer_next)
        else:
            self._offer_next()


class PoissonPublisher:
    """Open-loop publisher with exponentially distributed send gaps.

    With a large server buffer this realises the Poisson arrival stream of
    the waiting-time analysis; the aggregate of several Poisson publishers
    is again Poisson with the summed rate (``λ = Σ λ_i``, Fig. 7).

    ``batch > 1`` prefetches that many exponential gaps per RNG call
    (vectorised on numpy).  Keep the default 1 when the generator is
    shared with other draws and seeded draw-for-draw reproducibility
    matters; with its own stream, batching changes nothing but speed.
    """

    def __init__(
        self,
        engine: Engine,
        server: SimulatedJMSServer,
        rate: float,
        message_factory: Callable[[], Message],
        rng: np.random.Generator,
        name: str = "poisson-publisher",
        stop_time: Optional[float] = None,
        batch: int = 1,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.engine = engine
        self.server = server
        self.rate = float(rate)
        self.message_factory = message_factory
        self.rng = rng
        self.name = name
        self.stop_time = stop_time
        self.sent = 0
        if batch > 1:
            self._draw_gap: Callable[[], float] = BatchSampler(
                Exponential(self.rate), rng, batch
            )
        else:
            self._draw_gap = lambda: float(rng.exponential(1.0 / rate))

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        self.engine.call_in(self._draw_gap(), self._send)

    def _send(self) -> None:
        if self.stop_time is not None and self.engine.now >= self.stop_time:
            return
        self.sent += 1
        self.server.submit(self.message_factory())
        self._schedule_next()


def round_robin_factories(factories: list[Callable[[], Message]]) -> Callable[[], Message]:
    """Cycle through several message factories (mixed-workload runs)."""
    if not factories:
        raise ValueError("need at least one factory")
    cycle = itertools.cycle(factories)
    return lambda: next(cycle)()
