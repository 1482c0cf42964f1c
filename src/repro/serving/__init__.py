"""Long-lived model-serving subsystem (registry, micro-batching, HTTP).

Layering (stdlib + NumPy only):

* :mod:`repro.serving.registry` — name/version → ``.npz`` archive → warm
  :class:`~repro.unet.SceneClassifier`, with hot-swap on version bump.
* :mod:`repro.serving.batching` — queue + deadline/size micro-batcher that
  coalesces concurrent single-tile requests into batched forward passes.
* :mod:`repro.serving.service` — JSON endpoints (``/healthz``, ``/models``,
  ``/predict``) over ``http.server``; ``repro-seaice serve`` is the CLI.

Reliability (deadlines, load shedding, circuit breakers, fault injection)
lives in :mod:`repro.reliability` and is threaded through every layer here:
requests carry a :class:`~repro.reliability.Deadline` from the HTTP edge
into backend dispatch, saturation sheds with 503 + ``Retry-After``, and
expired work answers 504 with per-stage timings.
"""

from .batching import BatcherStats, MicroBatcher, PendingPrediction
from .registry import ModelRecord, ModelRegistry
from .service import InferenceService, ServiceConfig, make_server, run_service

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "PendingPrediction",
    "ModelRecord",
    "ModelRegistry",
    "InferenceService",
    "ServiceConfig",
    "make_server",
    "run_service",
]
