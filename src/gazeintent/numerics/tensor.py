"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
checking). Ops executed while a Tape is active are recorded in execution
order; Tape.backward walks that record in reverse. Without an active tape
ops are plain numpy computations, which is the inference fast path.
"""

from __future__ import annotations

import numpy as np

from gazeintent.errors import ShapeError

DEFAULT_DTYPE = np.float32

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed ops; consumed by a single backward pass."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, node: "Tensor"):
        self._nodes.append(node)

    def backward(self, loss: "Tensor"):
        """Propagate gradients from a scalar loss through the recorded ops."""
        if self._consumed:
            raise RuntimeError("tape already consumed; run a new forward pass")
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            if node.grad is None:
                continue
            for parent, g in node._backward(node.grad):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach grad.shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(DEFAULT_DTYPE)
        else:
            arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def grad_or_zero(self) -> np.ndarray:
        """Gradient after backward; zero for parameters unreachable from the loss."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    # ---- op plumbing ---------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._backward = None
        out.requires_grad = False
        if _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._backward = backward
            _ACTIVE_TAPE.record(out)
        return out

    @staticmethod
    def _coerce(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=like.dtype))

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        data = a.data + b.data

        def backward(g):
            return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

        return Tensor._result(data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        data = a.data - b.data

        def backward(g):
            return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

        return Tensor._result(data, (a, b), backward)

    def __rsub__(self, other):
        return Tensor._coerce(other, self) - self

    def __neg__(self):
        a = self
        return Tensor._result(-a.data, (a,), lambda g: [(a, -g)])

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        data = a.data * b.data

        def backward(g):
            return [(a, _unbroadcast(g * b.data, a.shape)),
                    (b, _unbroadcast(g * a.data, b.shape))]

        return Tensor._result(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        data = a.data / b.data

        def backward(g):
            return [(a, _unbroadcast(g / b.data, a.shape)),
                    (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))]

        return Tensor._result(data, (a, b), backward)

    def power(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        a = self
        data = a.data ** exponent

        def backward(g):
            return [(a, g * exponent * a.data ** (exponent - 1.0))]

        return Tensor._result(data, (a,), backward)

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        return Tensor._result(data, (a,), lambda g: [(a, g * data)])

    def log(self) -> "Tensor":
        a = self
        return Tensor._result(np.log(a.data), (a,), lambda g: [(a, g / a.data)])

    def relu(self) -> "Tensor":
        a = self
        data = np.maximum(a.data, 0)
        return Tensor._result(data, (a,), lambda g: [(a, g * (data > 0))])

    # ---- linear algebra ------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

        data = np.matmul(a.data, b.data)

        def backward(g):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            return [(a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape))]

        return Tensor._result(data, (a, b), backward)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        """Swap two axes into a C-contiguous array (no copy if already one).
        The gradient is passed back as a view."""
        a = self
        data = np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2))
        return Tensor._result(data, (a,), lambda g: [(a, np.swapaxes(g, ax1, ax2))])

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape
        data = a.data.reshape(shape)
        return Tensor._result(data, (a,), lambda g: [(a, g.reshape(old))])

    def __getitem__(self, idx) -> "Tensor":
        a = self
        data = a.data[idx]
        # ints and slices select each element at most once, so the gradient
        # can be assigned; array indices may repeat and must accumulate
        parts = idx if isinstance(idx, tuple) else (idx,)
        basic = all(isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
                    for i in parts)

        def backward(g):
            ga = np.zeros_like(a.data)
            if basic:
                ga[idx] = g
            else:
                np.add.at(ga, idx, g)
            return [(a, ga)]

        return Tensor._result(data, (a,), backward)

    # ---- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return [(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=True))]
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            return [(a, np.broadcast_to(gg, a.shape).astype(a.dtype, copy=True))]

        return Tensor._result(data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[ax] for ax in axis]))
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=axis)
        return list(zip(tensors, [np.ascontiguousarray(p) for p in parts]))

    return Tensor._result(data, tuple(tensors), backward)


def backward(loss: Tensor, tape: Tape, params=None) -> None:
    """Run reverse-mode accumulation; params (if given) get zero-filled grads
    when unreachable from the loss."""
    tape.backward(loss)
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
