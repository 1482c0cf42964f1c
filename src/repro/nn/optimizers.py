"""The optimiser: Adam, which the paper trains its U-Net with.

``state_dict`` / ``load_state_dict`` round-trip *all* optimiser state —
hyper-parameters and the per-parameter moment tensors — so a
checkpoint-resumed run continues exactly where it stopped instead of
silently restarting the adaptive state.
"""

from __future__ import annotations

import math

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam"]


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
    """Adam optimiser (Kingma & Ba, 2014) — the paper's training optimiser.

    ``step`` is allocation-free: the moments update in place, the bias
    corrections are folded into the scalar step size, and the elementwise
    work runs through one pre-allocated scratch buffer per parameter.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0
        self._scratch: list[np.ndarray] | None = None
        self._grad_scratch: list[np.ndarray] | None = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps), with both bias
        # corrections hoisted out of the elementwise work.
        step_size = self.lr / bias1
        inv_sqrt_bias2 = 1.0 / math.sqrt(bias2)
        if self._scratch is None:
            self._scratch = [np.empty_like(p.value) for p in self.parameters]
        if self.weight_decay and self._grad_scratch is None:
            self._grad_scratch = [np.empty_like(p.value) for p in self.parameters]

        for index, (param, m, v, buf) in enumerate(zip(self.parameters, self._m, self._v, self._scratch)):
            grad = param.grad
            if self.weight_decay:
                gbuf = self._grad_scratch[index]
                np.multiply(param.value, self.weight_decay, out=gbuf)
                gbuf += grad
                grad = gbuf
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - self.beta2
            v += buf
            np.sqrt(v, out=buf)
            buf *= inv_sqrt_bias2
            buf += self.eps
            np.divide(m, buf, out=buf)
            buf *= step_size
            param.value -= buf

    def state_dict(self) -> dict:
        state = {
            "lr": self.lr,
            "t": self._t,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
        }
        self._dump_slots(state, "m", self._m)
        self._dump_slots(state, "v", self._v)
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._t = int(state["t"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._load_slots(state, "m", self._m)
        self._load_slots(state, "v", self._v)
