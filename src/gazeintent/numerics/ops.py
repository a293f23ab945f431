"""Neural-net operations built on the Tensor core.

The training hot path is made of primitives, each one tape node with a
hand-written backward pass: conv1d (one im2col GEMM), linear (x @ W + b),
layer_norm, scaled_dot_attention, softmax and log_softmax. The losses are
compositions and get their gradients from the tape. Each backward captures
only the arrays it reads (see `Tensor._result`); an array read only for
the gradient of a parent that requires none is not kept. conv1d keeps its
input, which the relu before it (or the caller) keeps anyway, and rebuilds
its im2col matrix from it in backward: the matrix is K times the input.
"""

from __future__ import annotations

import math

import numpy as np

from gazeintent.errors import ShapeError
from gazeintent.numerics.tensor import Tensor, _unbroadcast


def _im2col(xd: np.ndarray, K: int) -> np.ndarray:
    """(B, C_in, T) -> (B * T, K * C_in): row (b, t) holds the K input frames
    around step t, gathered in one copy through a strided view of the
    zero-padded input."""
    B, c_in, T = xd.shape
    pad = (K - 1) // 2
    xp = np.zeros((B, T + K - 1, c_in), dtype=xd.dtype)    # (B, T + 2 pad, C_in)
    xp[:, pad:pad + T] = xd.transpose(0, 2, 1)
    # row (b, t) holds padded frames t .. t + K - 1: step and tap both advance one frame
    strides = xp.strides[:2] + xp.strides[1:]
    return np.ndarray((B, T, K, c_in), xp.dtype, xp, 0, strides).reshape(B * T, K * c_in)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Temporal convolution with odd kernel width and same-length zero padding.

    x: (B, C_in, T); kernels: (C_out, C_in, K); bias: (C_out,).
    Output has the same temporal length T.

    Computed as one GEMM over an im2col matrix (`_im2col`; Chellapilla et
    al., 2006), which backward builds again from the kept input for the
    kernel gradient. The output is a (B, C_out, T) view of a (B, T, C_out)
    buffer.
    """
    xd, wd = x.data, kernels.data
    if xd.ndim != 3 or wd.ndim != 3:
        raise ShapeError(f"conv1d expects (B,C_in,T) and (C_out,C_in,K), got {xd.shape}, {wd.shape}")
    B, c_in, T = xd.shape
    c_out, c_in_k, K = wd.shape
    if c_in != c_in_k:
        raise ShapeError(f"conv1d channel mismatch: input {c_in}, kernel {c_in_k}")
    if K % 2 != 1:
        raise ShapeError(f"conv1d kernel width must be odd, got {K}")
    if T < 1:
        raise ShapeError("conv1d requires at least one time step")
    pad = (K - 1) // 2
    wm = wd.transpose(0, 2, 1).reshape(c_out, K * c_in)
    out = _im2col(xd, K).dot(wm.T)
    out += bias.data
    if not kernels.requires_grad:
        xd = None             # read only for the kernel gradient
    if not x.requires_grad:
        wm = None             # read only for the input gradient

    def backward(g):
        g2 = g.transpose(0, 2, 1).reshape(B * T, c_out)
        gx = gw = None
        # the rebuilt im2col matrix is freed before its gradient, of the same size, is made
        if xd is not None:
            gw = g2.T @ _im2col(xd, K)
            gw = np.ascontiguousarray(gw.reshape(c_out, K, c_in).transpose(0, 2, 1))
        if wm is not None:
            # col2im: every tap adds its column block back onto the frames it
            # read (output rows [lo, hi)); the centre tap reads every frame, so it starts the sum
            gcols = (g2 @ wm).reshape(B, T, K, c_in)
            gxt = gcols[:, :, pad].copy()
            for k in range(K):
                if k != pad:
                    lo = max(0, pad - k)
                    hi = max(lo, min(T, T + pad - k))
                    gxt[:, lo + k - pad:hi + k - pad] += gcols[:, lo:hi, k]
            gx = gxt.transpose(0, 2, 1)
        return [gx, gw, np.einsum("ni->i", g2)]

    return Tensor._result(out.reshape(B, T, c_out).transpose(0, 2, 1), (x, kernels, bias), backward)


def _mean_lastaxis(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Mean of a (or of a * b) over the last axis, keeping it; einsum runs
    these short-axis reductions several times faster than ndarray.mean."""
    s = np.einsum("...i->...", a) if b is None else np.einsum("...i,...i->...", a, b)
    return s[..., None] / a.shape[-1]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b over the last axis of x.

    x: (..., n_in); w: (n_in, n_out); b: (n_out,). The leading axes are
    flattened into one GEMM, forward and backward.
    """
    xd, wd, bd = x.data, w.data, b.data
    shape = xd.shape
    if wd.ndim != 2 or shape[-1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear shapes disagree: x {shape}, w {wd.shape}, b {bd.shape}")
    n_in, n_out = wd.shape
    x2 = xd.reshape(-1, n_in)
    out = x2.dot(wd)
    out += bd
    if not w.requires_grad:
        x2 = None             # read only for the weight gradient
    if not x.requires_grad:
        wd = None             # read only for the input gradient

    def backward(g):
        g2 = g.reshape(-1, n_out)
        return [None if wd is None else (g2 @ wd.T).reshape(shape),
                None if x2 is None else x2.T @ g2,
                np.einsum("ni->i", g2)]

    return Tensor._result(out.reshape(shape[:-1] + (n_out,)), (x, w, b), backward)


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    xd = x.data
    e = np.exp(xd - xd.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [y * (g - dot)]

    return Tensor._result(y, (x,), backward)


def log_softmax_lastaxis(x: Tensor) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    sm = np.exp(out)
    return Tensor._result(out, (x,), lambda g: [g - sm * g.sum(axis=-1, keepdims=True)])


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine.

    gamma and beta have the shape (d,) of that axis.
    """
    xd, gd, bd = x.data, gamma.data, beta.data
    d = xd.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm needs a non-empty last axis")
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gd.shape}, {bd.shape} "
                         f"do not match the last axis of {xd.shape}")
    xhat = xd - _mean_lastaxis(xd)
    inv = 1.0 / np.sqrt(_mean_lastaxis(xhat, xhat) + 1e-5)
    xhat *= inv
    out = xhat * gd
    out += bd
    if not x.requires_grad:
        inv = gd = None       # read only for the input gradient

    def backward(g):
        g2 = g.reshape(-1, d)
        gx = None
        if gd is not None:
            gx = g * gd
            dot = _mean_lastaxis(gx, xhat)
            gx -= _mean_lastaxis(gx)
            gx -= xhat * dot
            gx *= inv
        return [gx, np.einsum("ni,ni->i", g2, xhat.reshape(-1, d)), np.einsum("ni->i", g2)]

    return Tensor._result(out, (x, gamma, beta), backward)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(QK^T / sqrt(d)) V over the last two axes; supports leading batch dims.

    One tape node; the model passes contiguous (B, H, T, dh) heads. The
    attention weights are the only intermediate kept for backward.
    """
    qd, kd, vd = q.data, k.data, v.data
    sq, sk, sv = qd.shape, kd.shape, vd.shape
    d = sq[-1]
    if d == 0:
        raise ShapeError("attention feature dimension must be positive")
    if sk[-1] != d:
        raise ShapeError(f"Q/K feature dims disagree: {sq} vs {sk}")
    if sv[-2] != sk[-2]:
        raise ShapeError(f"K/V lengths disagree: {sk} vs {sv}")
    scale = 1.0 / math.sqrt(d)
    p = qd @ kd.swapaxes(-1, -2)
    p *= scale
    # row maxima over a transposed copy: numpy reduces short rows one at a time, far slower
    p -= np.maximum.reduce(p.reshape(-1, sk[-2]).T.copy(), axis=0).reshape(p.shape[:-1] + (1,))
    np.exp(p, out=p)
    p /= np.einsum("...i->...", p)[..., None]
    out = p @ vd

    def backward(g):
        g = np.ascontiguousarray(g)
        gv = p.swapaxes(-1, -2) @ g
        gs = g @ vd.swapaxes(-1, -2)
        gs -= np.einsum("...i,...i->...", gs, p)[..., None]
        gs *= p
        gs *= scale
        gq = gs @ kd
        gk = gs.swapaxes(-1, -2) @ qd
        return [_unbroadcast(gq, sq), _unbroadcast(gk, sk), _unbroadcast(gv, sv)]

    return Tensor._result(out, (q, k, v), backward)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, T, d) -> contiguous (B, n_heads, T, d / n_heads), one copy each way."""
    B, T, d = x.data.shape
    heads = np.ascontiguousarray(x.data.reshape(B, T, n_heads, d // n_heads).swapaxes(1, 2))
    return Tensor._result(heads, (x,), lambda g: [g.swapaxes(1, 2).reshape(B, T, d)])


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, T, dh) -> (B, T, H * dh), the inverse of `split_heads`."""
    B, H, T, dh = x.data.shape
    merged = np.ascontiguousarray(x.data.swapaxes(1, 2)).reshape(B, T, H * dh)
    return Tensor._result(merged, (x,), lambda g: [g.reshape(B, T, H, dh).swapaxes(1, 2)])


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences over all elements."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()


def weighted_cross_entropy(logits: Tensor, labels: np.ndarray,
                           class_weights: Tensor) -> Tensor:
    """Class-weighted cross entropy, normalized by the sum of sample weights.

    labels are integer class ids; class_weights is a constant per-class
    weight vector (strictly positive).
    """
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    if np.any(class_weights.data <= 0):
        raise ValueError("class weights must be strictly positive")
    logp = log_softmax_lastaxis(logits)
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(labels.size), labels] = 1.0
    w = class_weights.data[labels].astype(logits.dtype)
    per_sample = -(logp * Tensor(onehot, dtype=logits.dtype)).sum(axis=-1)
    weighted = (per_sample * Tensor(w, dtype=logits.dtype)).sum()
    return weighted * (1.0 / float(w.sum()))
