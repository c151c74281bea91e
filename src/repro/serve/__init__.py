"""Model registry + batched prediction serving (the deployment half).

The trainers end at a :class:`~repro.glm.GLMModel`; this package turns
that into a train-and-serve system:

* :class:`ModelRegistry` — versioned, digest-verified on-disk artifacts
  with promotion (``save_model`` / ``load_model`` / ``list_versions`` /
  ``promote``);
* :class:`PredictionService` — dynamic micro-batching (flush on size or
  latency deadline), a bounded admission queue that sheds under
  overload, a simulated worker pool, and an optional shadow/canary
  version scored on every batch;
* :mod:`~repro.serve.loadgen` — open-loop Poisson load generation for
  the arrival-rate-vs-p99 sweep of the ``serve-*`` claim rows;
* serving metrics (QPS, queue depth, batch sizes, latency percentiles)
  flow through :mod:`repro.metrics` (``LatencyHistogram``,
  ``serving_report``).

Like the training engines, the service does real math on a simulated
clock: predictions are real scipy matvecs, time comes from
:class:`ServingCostModel`, and every run is bit-for-bit reproducible.
"""

from .batching import MicroBatcher, PredictRequest, Prediction, stack_requests
from .config import ServeConfig
from .cost import ServingCostModel
from .loadgen import (dataset_requests, poisson_arrivals, rate_sweep,
                      requests_from_dataset)
from .registry import ModelRegistry, RegistryError, VersionInfo
from .service import PredictionService, ServingResult, ShadowComparison

__all__ = [
    "ServeConfig", "ServingCostModel",
    "PredictRequest", "Prediction", "MicroBatcher", "stack_requests",
    "PredictionService", "ServingResult", "ShadowComparison",
    "ModelRegistry", "RegistryError", "VersionInfo",
    "poisson_arrivals", "requests_from_dataset", "dataset_requests",
    "rate_sweep",
]
