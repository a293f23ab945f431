"""Adam with decoupled weight decay (AdamW-style update)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gazeintent.errors import ShapeError

LR = 3e-4             # the learning rate of every training stage
WEIGHT_DECAY = 0.01   # decoupled: applied to the parameter, outside the moment estimates


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


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place update step over a named parameter dict, at LR with
    WEIGHT_DECAY."""
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
        p.data -= LR * (m_hat / (np.sqrt(v_hat) + eps) + WEIGHT_DECAY * p.data)


def zero_grads(tensors) -> None:
    for p in tensors:
        p.grad = None


def collect_grads(params: dict) -> dict:
    """Gradient per named parameter; zeros for parameters the loss never touched."""
    return {name: np.zeros_like(p.data) if p.grad is None else p.grad
            for name, p in params.items()}
