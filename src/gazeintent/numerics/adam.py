"""Adam with decoupled weight decay (AdamW-style update)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gazeintent.errors import ShapeError
from gazeintent.numerics.tensor import Tensor


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict, grads: dict, state: AdamState, *,
              lr: float = 3e-4, weight_decay: float = 0.01) -> None:
    """One in-place update step over a named parameter dict.

    Weight decay is decoupled: applied directly to the parameter,
    outside the moment estimates.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        # in place: a parameter keeps its buffer across steps, so the heap a
        # step frees is laid out the same way at the next one
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)


def zero_grads(params) -> None:
    tensors = params.values() if isinstance(params, dict) else params
    for p in tensors:
        p.grad = None


def collect_grads(params: dict) -> dict:
    """Gradient per named parameter; zeros for parameters the loss never touched."""
    return {name: p.grad_or_zero() for name, p in params.items()}
