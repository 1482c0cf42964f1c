"""The optimiser: Adam, which the paper trains its U-Net with.

``state_dict`` / ``load_state_dict`` round-trip *all* optimiser state —
the learning rate, the step count and the per-parameter moment tensors —
so a checkpoint-resumed run continues exactly where it stopped instead of
silently restarting the adaptive state.
"""

from __future__ import annotations

import math

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam"]

#: Adam's moment decay rates and denominator guard: the defaults of Kingma & Ba, which the paper keeps.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Optimizer:
    """Base optimiser: owns the parameter list and the update rule."""

    def __init__(self, parameters: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Serialisable optimiser state (hyper-parameters + stateful tensors)."""
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict` (inverse operation)."""
        self.lr = float(state["lr"])

    # ------------------------------------------------------------------ #
    def _dump_slots(self, state: dict, name: str, slots: list[np.ndarray]) -> None:
        for i, slot in enumerate(slots):
            state[f"{name}.{i}"] = slot.copy()

    def _load_slots(self, state: dict, name: str, slots: list[np.ndarray]) -> None:
        for i, slot in enumerate(slots):
            key = f"{name}.{i}"
            if key not in state:
                raise KeyError(f"optimizer state missing {key!r}")
            value = np.asarray(state[key])
            if value.shape != slot.shape:
                raise ValueError(f"shape mismatch for {key}: {value.shape} vs {slot.shape}")
            slot[...] = value


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2014) — the paper's training optimiser, with
    :data:`BETA1`, :data:`BETA2` and :data:`EPS`.

    ``step`` is allocation-free: the moments update in place, the bias
    corrections are folded into the scalar step size, and the elementwise
    work runs through one pre-allocated scratch buffer per parameter.
    """

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3) -> None:
        super().__init__(parameters, lr)
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0
        self._scratch: list[np.ndarray] | None = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps), with both bias
        # corrections hoisted out of the elementwise work.
        step_size = self.lr / bias1
        inv_sqrt_bias2 = 1.0 / math.sqrt(bias2)
        if self._scratch is None:
            self._scratch = [np.empty_like(p.value) for p in self.parameters]

        for param, m, v, buf in zip(self.parameters, self._m, self._v, self._scratch):
            grad = param.grad
            m *= BETA1
            np.multiply(grad, 1.0 - BETA1, out=buf)
            m += buf
            v *= BETA2
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - BETA2
            v += buf
            np.sqrt(v, out=buf)
            buf *= inv_sqrt_bias2
            buf += EPS
            np.divide(m, buf, out=buf)
            buf *= step_size
            param.value -= buf

    def state_dict(self) -> dict:
        state = {"lr": self.lr, "t": self._t}
        self._dump_slots(state, "m", self._m)
        self._dump_slots(state, "v", self._v)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Checkpoints written while the betas, ``eps`` and weight decay were settable carry them too;
        they held the values every run used, and are not read."""
        super().load_state_dict(state)
        self._t = int(state["t"])
        self._load_slots(state, "m", self._m)
        self._load_slots(state, "v", self._v)
