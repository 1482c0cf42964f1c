"""Fault injection: named failure points compiled out to no-ops when disarmed.

Production code cannot prove its recovery paths work unless the failures
can be produced on demand.  This module plants cheap named *fault points*
in the hot paths (``fault_point("worker_crash")`` is a single module-global
boolean check when nothing is armed) and lets the chaos test-suite — or the
CI chaos-smoke arm, via the ``REPRO_FAULTS`` environment variable — arm
them with a bounded fire count.

Known fault points and what firing does:

===================== =====================================================
``worker_crash``        the process calls ``os._exit(170)`` (SIGKILL-like
                        death of a fork worker mid-task)
``worker_hang``         the process sleeps ``param`` seconds (default 600 —
                        a worker stuck in compute, caught by the watchdog)
``slow_predict``        sleeps ``param`` seconds (default 0.05) inside the
                        shared prediction seam
``shm_attach_fail``     raises :class:`FaultInjected` from
                        ``attach_segment`` (a worker that cannot map a
                        published shared-memory segment)
``corrupt_archive_read`` raises :class:`FaultInjected` while opening a
                        checkpoint archive (surfaces as ``CheckpointError``)
``trainer_worker_crash`` a training worker calls ``os._exit(170)`` in a
                        micro-shard step (the backend respawns it and
                        re-runs the shard)
``trainer_worker_hang`` a training worker sleeps ``param`` seconds in a
                        micro-shard step (default 600 — caught by the
                        dispatch deadline, ``--step-timeout``)
``ckpt_corrupt_write``  truncates the checkpoint temp file before it is
                        renamed into place (a torn write the resume path
                        must skip past)
===================== =====================================================

Arming uses ``configure_faults({"worker_crash": FaultSpec(times=1)})`` or
``REPRO_FAULTS="worker_crash,slow_predict:3:0.02"`` (``name[:times[:param]]``,
``times=-1`` means unlimited).  Fire counters live in
``multiprocessing.Value`` cells, so fork-backend workers inherit and *share*
them with the parent: a fault armed ``times=1`` fires exactly once across
the whole worker fleet — including workers respawned after the fault killed
their predecessor — instead of once per process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "FaultSpec",
    "configure_faults",
    "fault_point",
    "fault_stats",
    "faults_enabled",
    "reset_faults",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: How each known fault point misbehaves when it fires.
_ACTIONS = {
    "worker_crash": "exit",
    "worker_hang": "sleep",
    "slow_predict": "sleep",
    "shm_attach_fail": "raise",
    "corrupt_archive_read": "raise",
    "trainer_worker_crash": "exit",
    "trainer_worker_hang": "sleep",
    "ckpt_corrupt_write": "raise",
}

_SLEEP_DEFAULTS = {"worker_hang": 600.0, "slow_predict": 0.05, "trainer_worker_hang": 600.0}


class FaultInjected(OSError):
    """An injected failure (never raised unless a fault point is armed)."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: how often it fires and its numeric parameter."""

    times: int = 1  # -1 = unlimited
    param: float | None = None

    def __post_init__(self) -> None:
        if self.times < -1:
            raise ValueError("times must be >= 0 (or -1 for unlimited)")


class _ArmedFault:
    """A spec plus its cross-process fire budget and counter."""

    def __init__(self, name: str, spec: FaultSpec) -> None:
        if name not in _ACTIONS:
            raise ValueError(f"unknown fault point {name!r}; known: {sorted(_ACTIONS)}")
        self.name = name
        self.spec = spec
        # Shared cells: forked workers inherit these, so a times=1 budget is
        # global across the fleet and survives worker respawns.
        self._budget = multiprocessing.Value("i", spec.times, lock=True)
        self._fired = multiprocessing.Value("i", 0, lock=True)

    def take(self) -> bool:
        with self._budget.get_lock():
            if self._budget.value == 0:
                return False
            if self._budget.value > 0:
                self._budget.value -= 1
            with self._fired.get_lock():
                self._fired.value += 1
            return True

    @property
    def fired(self) -> int:
        return int(self._fired.value)


#: Armed faults by name.  ``_ARMED`` is the single cheap gate every
#: fault_point call checks first; it is False in production.
_SPECS: dict[str, _ArmedFault] = {}
_ARMED = False


def _parse_env(value: str) -> dict[str, FaultSpec]:
    specs: dict[str, FaultSpec] = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        name = fields[0].strip()
        times = int(fields[1]) if len(fields) > 1 and fields[1] else 1
        param = float(fields[2]) if len(fields) > 2 and fields[2] else None
        specs[name] = FaultSpec(times=times, param=param)
    return specs


def configure_faults(spec: dict[str, FaultSpec] | str | None) -> None:
    """Arm fault points (replacing any previous arming).

    ``spec`` is a ``{name: FaultSpec}`` dict, an env-style string
    (``"worker_crash,slow_predict:3:0.02"``), or ``None``/empty to disarm.
    Must be called in the parent *before* a fork backend starts so workers
    inherit the shared fire budgets.
    """
    global _ARMED
    if isinstance(spec, str):
        spec = _parse_env(spec)
    _SPECS.clear()
    for name, fault_spec in (spec or {}).items():
        _SPECS[name] = _ArmedFault(name, fault_spec)
    _ARMED = bool(_SPECS)


def reset_faults() -> None:
    """Disarm every fault point (tests call this in teardown)."""
    configure_faults(None)


def faults_enabled() -> bool:
    return _ARMED


def fault_stats() -> dict[str, dict]:
    """Armed fault points with remaining budget and fire counts."""
    return {
        name: {
            "times": armed.spec.times,
            "param": armed.spec.param,
            "fired": armed.fired,
        }
        for name, armed in _SPECS.items()
    }


def fault_point(name: str) -> None:
    """Maybe fire the named fault.  A no-op unless armed (one bool check)."""
    if not _ARMED:
        return
    armed = _SPECS.get(name)
    if armed is None or not armed.take():
        return
    action = _ACTIONS[name]
    if action == "exit":
        os._exit(170)
    elif action == "sleep":
        time.sleep(armed.spec.param if armed.spec.param is not None
                   else _SLEEP_DEFAULTS.get(name, 0.05))
    else:
        raise FaultInjected(f"injected fault {name!r}")


# Arm from the environment at import time.  The backend imports this module
# in the parent before forking, so env-armed budgets are shared with every
# worker exactly like programmatically-armed ones.
_env = os.environ.get(FAULTS_ENV_VAR, "").strip()
if _env:
    configure_faults(_env)
