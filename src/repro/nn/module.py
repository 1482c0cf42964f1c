"""Base module system of the NumPy deep-learning framework.

A :class:`Module` owns named parameters (and their gradients), can contain
child modules, and implements ``forward`` / ``backward``.  The design is a
layer-wise reverse-mode framework: each layer caches what it needs during
``forward`` and returns ``dL/dinput`` from ``backward`` while accumulating
``dL/dparam`` — sufficient for feed-forward architectures such as U-Net and
much simpler (and faster in NumPy) than a full tape-based autograd.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable array with its gradient accumulator."""

    def __init__(self, value: np.ndarray) -> None:
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.value.shape}, dtype={self.value.dtype})"


class Module:
    """Base class of all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        # Auto-register parameters and sub-modules assigned as attributes.
        if isinstance(value, Parameter):
            object.__getattribute__(self, "_parameters")[name] = value
        elif isinstance(value, Module):
            object.__getattribute__(self, "_modules")[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> "OrderedDict[str, Parameter]":
        """All parameters of this module and its children, keyed by dotted path."""
        out: "OrderedDict[str, Parameter]" = OrderedDict()
        for name, param in self._parameters.items():
            out[f"{prefix}{name}"] = param
        for mod_name, module in self._modules.items():
            out.update(module.named_parameters(prefix=f"{prefix}{mod_name}."))
        return out

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def modules(self) -> list["Module"]:
        """This module plus all descendants, depth first."""
        out: list[Module] = [self]
        for module in self._modules.values():
            out.extend(module.modules())
        return out

    # ------------------------------------------------------------------ #
    # Training state
    # ------------------------------------------------------------------ #
    def train(self) -> "Module":
        """Switch to training mode (enables dropout)."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch to inference mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Weight I/O
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value keyed by dotted path."""
        return {name: param.value.copy() for name, param in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict` (strict key/shape match)."""
        params = self.named_parameters()
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.value.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.value.shape}")
            param.value[...] = value

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        return self.forward(*inputs)

