"""Analytical performance model — the paper's primary contribution.

Public surface:

- Table I cost constants: :data:`CORRELATION_ID_COSTS`,
  :data:`APP_PROPERTY_COSTS`, :class:`CostParameters`, :class:`FilterType`;
- service-time model (Eqs. 1, 7–10): :class:`ServiceTimeModel`;
- replication-grade distributions (Eqs. 11–18): :class:`DeterministicReplication`,
  :class:`ScaledBernoulliReplication`, :class:`BinomialReplication` and
  extensions;
- M/G/1 waiting-time analysis (Eqs. 4–5, 19–20): :class:`MG1Queue`;
- capacity and filter-benefit rules (Eqs. 2–3): :func:`server_capacity`,
  :func:`filters_increase_capacity`, …
"""

from .batch import (
    BatchSizeLaw,
    DeterministicBatchSize,
    GeometricBatchSize,
    MXG1Queue,
)
from .capacity import (
    ThroughputPrediction,
    equivalent_filters,
    filters_increase_capacity,
    max_match_probability,
    max_useful_filters,
    mean_service_time,
    predict_throughput,
    saturated_throughput,
    server_capacity,
)
from .gamma_fit import FittedGamma
from .gg1 import GG1Approximation, kingman_mean_wait
from .mg1 import MG1Queue, mm1_mean_wait
from .moments import Moments, relative_error, shifted_scaled_moments
from .params import (
    APP_PROPERTY_COSTS,
    CORRELATION_ID_COSTS,
    CostParameters,
    FilterType,
    costs_for,
)
from .replication import (
    BinomialReplication,
    DeterministicReplication,
    GeneralDiscreteReplication,
    ReplicationModel,
    ScaledBernoulliReplication,
)
from .service_time import ReplicationFamily, ServiceTimeModel

__all__ = [
    "APP_PROPERTY_COSTS",
    "CORRELATION_ID_COSTS",
    "BatchSizeLaw",
    "BinomialReplication",
    "CostParameters",
    "DeterministicBatchSize",
    "DeterministicReplication",
    "FilterType",
    "FittedGamma",
    "GG1Approximation",
    "GeneralDiscreteReplication",
    "GeometricBatchSize",
    "MG1Queue",
    "MXG1Queue",
    "Moments",
    "ReplicationFamily",
    "ReplicationModel",
    "ScaledBernoulliReplication",
    "ServiceTimeModel",
    "ThroughputPrediction",
    "costs_for",
    "equivalent_filters",
    "filters_increase_capacity",
    "kingman_mean_wait",
    "max_match_probability",
    "max_useful_filters",
    "mean_service_time",
    "mm1_mean_wait",
    "predict_throughput",
    "relative_error",
    "saturated_throughput",
    "server_capacity",
    "shifted_scaled_moments",
]
