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
    distributions, queueing station, metrics, and the virtual CPU that
    charges Table I costs.
``repro.rng``
    The seeded named random streams every component draws from.
``repro.filter_type``
    The two filter mechanisms (correlation ID, application property) that
    the broker's filters report and the model's cost rows are keyed by.
``repro.testbed``
    The measurement harness: saturated/Poisson publishers, the simulated
    server machine, experiment sweeps and the Table I calibration fit.
``repro.architectures``
    Distributed deployments: single server, publisher-side (PSR) and
    subscriber-side (SSR) replication, comparison and simulation.
``repro.analysis``
    One module per paper figure/table producing the reported series.

Importing ``repro`` imports none of them: each name is reached by its
module path (``from repro.core import MG1Queue``), so ``import
repro.broker`` loads what a message touches and not the laboratory
around it.  ``tools/check_static.py``'s ``IMPORT_CLOSURE`` table holds the
product packages to that.
"""

__version__ = "1.0.0"
