"""Unified execution-backend seam (serial / fork).

Every fan-out layer in the repo — scene inference, the serving tier and
the auto-label job behind Tables I and II — dispatches through one
:class:`~repro.backend.base.Backend`, selected by name (or ``"auto"``,
which honours the ``REPRO_BACKEND`` environment variable).  The fork
backend keeps persistent workers attached to a shared-memory model store
(:mod:`repro.backend.store`): weights and pre-packed compiled-plan GEMM
operands are published once and mapped read-only by every worker, and the
elastic trainer publishes its replica there the same way.  Its workers run
on the one worker-process runtime in :mod:`repro.backend.worker`.
"""

from .base import (
    BACKEND_ENV_VAR,
    Backend,
    BackendError,
    ModelHandle,
    available_cpu_count,
    make_backend,
    resolve_backend_name,
)
from .process import ProcessBackend
from .serial import SerialBackend
from .store import SEGMENT_PREFIX, SharedModelSpec, SharedModelStore
from .worker import WorkerLost, WorkerProcess

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "BackendError",
    "ModelHandle",
    "ProcessBackend",
    "SEGMENT_PREFIX",
    "SerialBackend",
    "SharedModelSpec",
    "SharedModelStore",
    "WorkerLost",
    "WorkerProcess",
    "available_cpu_count",
    "make_backend",
    "resolve_backend_name",
]
