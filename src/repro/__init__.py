"""repro — reproduction of Menth & Henjes, "Analysis of the Message
Waiting Time for the FioranoMQ JMS Server" (ICDCS 2006).

Subpackages
-----------
``repro.core``
    The paper's analytical model: Table I cost constants, the service-time
    model (Eq. 1), replication-grade distributions, the M/G/1 waiting-time
    analysis and capacity/filter-benefit rules.
``repro.broker``
    A from-scratch JMS-style publish/subscribe broker (message model,
    selector language, filters, topics, durable/non-durable subscriptions,
    flow control) standing in for FioranoMQ 7.5.
``repro.simulation``
    Discrete-event simulation substrate: virtual-time engine, processes,
    seeded RNG streams, distributions, queueing station, metrics, and the
    virtual CPU that charges Table I costs.
``repro.testbed``
    The measurement harness: saturated/Poisson publishers, the simulated
    server machine, experiment sweeps and the Table I calibration fit.
``repro.architectures``
    Distributed deployments: single server, publisher-side (PSR) and
    subscriber-side (SSR) replication, comparison and simulation.
``repro.analysis``
    One module per paper figure/table producing the reported series.

Importing ``repro`` imports none of them.  The subpackages above and the
eleven ``repro.core`` names in ``__all__`` resolve on first attribute
access (``repro.analysis``, ``from repro import MG1Queue``), so
``import repro.broker`` loads what a message touches and not the
laboratory around it; ``tools/check_static.py``'s ``IMPORT_CLOSURE``
table holds the product packages to that.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import analysis, architectures, broker, core, simulation, testbed
    from .core import (
        APP_PROPERTY_COSTS,
        CORRELATION_ID_COSTS,
        BinomialReplication,
        CostParameters,
        DeterministicReplication,
        FilterType,
        MG1Queue,
        Moments,
        ScaledBernoulliReplication,
        ServiceTimeModel,
        server_capacity,
    )

__version__ = "1.0.0"

__all__ = [
    "APP_PROPERTY_COSTS",
    "CORRELATION_ID_COSTS",
    "BinomialReplication",
    "CostParameters",
    "DeterministicReplication",
    "FilterType",
    "MG1Queue",
    "Moments",
    "ScaledBernoulliReplication",
    "ServiceTimeModel",
    "__version__",
    "analysis",
    "architectures",
    "broker",
    "core",
    "server_capacity",
    "simulation",
    "testbed",
]

_SUBPACKAGES = frozenset(
    {"analysis", "architectures", "broker", "core", "simulation", "testbed"}
)


def __getattr__(name: str):
    """Resolve a name in ``__all__`` on first access (PEP 562)."""
    if name in _SUBPACKAGES:
        value = import_module(f"{__name__}.{name}")
    elif name in __all__:
        value = getattr(import_module(f"{__name__}.core"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
