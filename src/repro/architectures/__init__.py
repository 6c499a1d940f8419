"""Distributed JMS architectures (Section IV-C).

- :class:`SingleServer` — the baseline central broker;
- :class:`PublisherSideReplication` (PSR) — one server per publisher,
  filtering at the source (Eq. 21);
- :class:`SubscriberSideReplication` (SSR) — one server per subscriber,
  filtering at the sink (Eq. 22);
- :func:`compare` / :func:`crossover_publishers` — the Eq. 23 trade-off;
- :func:`simulate_psr_server` / :func:`simulate_ssr_server` — per-server
  simulation cross-checks.
"""

from .base import Architecture, SystemParameters
from .comparison import (
    ArchitectureComparison,
    compare,
    crossover_publishers,
    psr_beats_ssr,
)
from .deployment import (
    DeploymentResult,
    simulate_psr_deployment,
    simulate_ssr_deployment,
)
from .network import (
    FAST_ETHERNET,
    GIGABIT,
    NetworkLink,
    deployment_link_check,
)
from .psr import PublisherSideReplication
from .simulate import (
    ServerLoadResult,
    simulate_psr_server,
    simulate_server_under_load,
    simulate_ssr_server,
)
from .single import SingleServer
from .ssr import SubscriberSideReplication

__all__ = [
    "Architecture",
    "ArchitectureComparison",
    "DeploymentResult",
    "FAST_ETHERNET",
    "GIGABIT",
    "NetworkLink",
    "PublisherSideReplication",
    "ServerLoadResult",
    "SingleServer",
    "SubscriberSideReplication",
    "SystemParameters",
    "compare",
    "crossover_publishers",
    "deployment_link_check",
    "psr_beats_ssr",
    "simulate_psr_deployment",
    "simulate_psr_server",
    "simulate_server_under_load",
    "simulate_ssr_deployment",
    "simulate_ssr_server",
]
