"""Central finite-difference gradient checking."""

from __future__ import annotations

import numpy as np

from gazeintent.numerics.tensor import Tape, backward


def finite_difference_check(loss_fn, params, *, n_coords: int = 100, rng=None) -> float:
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn computes a scalar Tensor from `params` (a list of leaf
    Tensors). Analytic gradients are taken at the params' own precision;
    the finite-difference reference is always evaluated in float64 so the
    oracle's noise floor stays below both stated tolerances. Returns the
    worst relative error over the sampled coordinates.
    """
    rng = rng or np.random.default_rng(0)
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape, params=params)
    analytic = [p.grad.astype(np.float64) for p in params]

    step = 1e-5
    # numeric side runs in float64 regardless of the params' training dtype
    saved = [p.data for p in params]
    for p in params:
        p.data = p.data.astype(np.float64)

    sizes = np.array([p.data.size for p in params])
    total = sizes.sum()
    picks = rng.choice(total, size=min(n_coords, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    try:
        for flat_idx in picks:
            pi = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
            ci = int(flat_idx - offsets[pi])
            p = params[pi]
            orig = p.data.flat[ci]
            p.data.flat[ci] = orig + step
            hi = loss_fn().item()
            p.data.flat[ci] = orig - step
            lo = loss_fn().item()
            p.data.flat[ci] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = float(analytic[pi].flat[ci])
            denom = max(abs(a), abs(numeric), 1.0)
            worst = max(worst, abs(a - numeric) / denom)
    finally:
        for p, d in zip(params, saved):
            p.data = d
    return worst
