"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
checking). Ops executed while a Tape is active are recorded in execution
order; Tape.backward walks that record in reverse. Without an active tape
ops are plain numpy computations and record nothing, which is the
inference fast path.

A recorded op keeps only what its backward reads: the arrays its closure
captures (an im2col matrix, attention weights, a normalized input) plus
shapes and dtypes, and one grad target per parent. It never keeps a
parent Tensor, so an output that no backward reads is freed as soon as the
caller drops it. Backward pops each op as it runs it and drops the op's
gradient and closure, so only leaves (parameters, and inputs created with
requires_grad=True) keep a `.grad` afterwards.
"""

from __future__ import annotations

import ctypes

import numpy as np

from gazeintent.errors import ShapeError

DEFAULT_DTYPE = np.float32

_ACTIVE_TAPE: "Tape | None" = None
_HEAP_KEPT = False


def _keep_heap() -> None:
    """Once per process: raise glibc's mmap threshold to 32 MiB and its trim
    threshold to 512 MiB. A taped step frees most of its arrays as backward
    runs and allocates them again in the next forward; with the defaults
    glibc returns that memory to the OS and faults it in again every step.
    Skipped where the C library has no `mallopt`."""
    global _HEAP_KEPT
    if _HEAP_KEPT:
        return
    _HEAP_KEPT = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 512 << 20)   # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD


class _Node:
    """Tape entry of one op result: its gradient so far, its backward
    closure, and where each parent's gradient goes (the parent's own
    `_Node`, the parent itself for a leaf, None for a constant)."""

    __slots__ = ("grad", "backward", "targets")

    def __init__(self, backward, targets):
        self.grad = None
        self.backward = backward
        self.targets = targets


class Tape:
    """Ordered record of executed ops; consumed by a single backward pass.

    The first Tape a process creates keeps the freed heap (`_keep_heap`)."""

    def __init__(self):
        _keep_heap()
        self._nodes: list[_Node] = []
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
        """Append the op that produced `node` (a result Tensor)."""
        self._nodes.append(node._node)

    def backward(self, loss: "Tensor", grad: np.ndarray | None = None):
        """Propagate gradients from a scalar loss through the recorded ops,
        popping each op and dropping its gradient and closure as it runs.
        Afterwards only leaves hold a `.grad`.

        `grad` seeds the backward of a non-scalar output with the gradient
        of some loss with respect to it (its own shape); a data-parallel
        shard passes its slice of the batch output's gradient."""
        if self._consumed:
            raise RuntimeError("tape already consumed; run a new forward pass")
        if grad is None:
            if loss.data.size != 1:
                raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
            grad = np.ones_like(loss.data)
        elif grad.shape != loss.shape:
            raise ShapeError(f"backward seed shape {grad.shape} != output shape {loss.shape}")
        self._consumed = True
        if loss._node is None:
            loss.grad = grad
        else:
            loss._node.grad = grad
        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            g, fn, targets = node.grad, node.backward, node.targets
            node.grad = node.backward = node.targets = None
            if g is None:
                continue
            for target, pg in zip(targets, fn(g)):
                if target is None:
                    continue
                if target.grad is None:
                    target.grad = pg
                else:
                    target.grad = target.grad + pg


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach grad.shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient.

    `grad` is set by backward on leaves only: Tensors that require grad and
    were not produced by a recorded op. An op result never holds a grad;
    while the tape is alive its gradient lives in the op's tape entry
    (`_node`), which backward drops once it has run the op.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

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
        self._node: _Node | None = None

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
        """The Tensor an op returns. Under an active tape, when a parent
        requires grad, the op is recorded: `backward(g)` returns one
        gradient per parent, in order (None allowed only for a parent that
        does not require grad), and captures only the arrays it reads,
        never a parent Tensor."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._node = None
        out.requires_grad = False
        if _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(backward, tuple(
                p._node if p._node is not None else (p if p.requires_grad else None)
                for p in parents))
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
        sa, sb = a.shape, b.shape
        return Tensor._result(a.data + b.data, (a, b),
                              lambda g: [_unbroadcast(g, sa), _unbroadcast(g, sb)])

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        sa, sb = a.shape, b.shape
        return Tensor._result(a.data - b.data, (a, b),
                              lambda g: [_unbroadcast(g, sa), _unbroadcast(-g, sb)])

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: [-g])

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        sa, sb = a.shape, b.shape
        data = a.data * b.data
        # each factor is read only for the other one's gradient
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None

        def backward(g):
            return [None if bd is None else _unbroadcast(g * bd, sa),
                    None if ad is None else _unbroadcast(g * ad, sb)]

        return Tensor._result(data, (a, b), backward)

    __rmul__ = __mul__

    def power(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        ad = self.data
        return Tensor._result(ad ** exponent, (self,),
                              lambda g: [g * exponent * ad ** (exponent - 1.0)])

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0)
        # backward reads only which outputs are positive: a quarter of their bytes
        mask = data > 0 if self.requires_grad else None
        return Tensor._result(data, (self,), lambda g: [g * mask])

    # ---- linear algebra ------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
        sa, sb = a.shape, b.shape
        data = np.matmul(a.data, b.data)
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None

        def backward(g):
            return [None if bd is None else _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa),
                    None if ad is None else _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)]

        return Tensor._result(data, (a, b), backward)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        """Swap two axes into a C-contiguous array (no copy if already one).
        The gradient is passed back as a view."""
        data = np.ascontiguousarray(np.swapaxes(self.data, ax1, ax2))
        return Tensor._result(data, (self,), lambda g: [np.swapaxes(g, ax1, ax2)])

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._result(self.data.reshape(shape), (self,), lambda g: [g.reshape(old)])

    def __getitem__(self, idx) -> "Tensor":
        shape, dtype = self.shape, self.dtype
        # ints and slices select each element at most once, so the gradient
        # can be assigned; array indices may repeat and must accumulate
        parts = idx if isinstance(idx, tuple) else (idx,)
        basic = all(isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
                    for i in parts)

        def backward(g):
            ga = np.zeros(shape, dtype=dtype)
            if basic:
                ga[idx] = g
            else:
                np.add.at(ga, idx, g)
            return [ga]

        return Tensor._result(self.data[idx], (self,), backward)

    # ---- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape, dtype = self.shape, self.dtype

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return [np.broadcast_to(g, shape).astype(dtype, copy=True)]

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

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
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return [np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis)]

    return Tensor._result(data, tuple(tensors), backward)


def backward(loss: Tensor, tape: Tape, params=None, grad: np.ndarray | None = None) -> None:
    """Run reverse-mode accumulation (seeded with `grad`, see
    `Tape.backward`); params (if given) get zero-filled grads when
    unreachable from the loss."""
    tape.backward(loss, grad)
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
