"""Data-parallel shards of one batch, on every usable core.

A batch is cut into fixed SHARD_ROWS-row shards. Shard i runs on worker
i % W, where worker 0 is the calling process and workers 1..W-1 are
persistent helper processes: one per usable core beyond the first
(`os.sched_getaffinity`), started on demand as batches need them and
never more than a batch has shards beyond shard 0. Helpers are fresh
interpreters (never a fork of the caller), started with
OPENBLAS_NUM_THREADS=1; the caller holds its OpenBLAS at one thread
through `ctypes` while it runs a batch. A helper runs `python -c` on this
module rather than multiprocessing's spawn, which would import the
caller's `__main__` again and so rerun a script that trains without a
`__main__` guard. Each shard runs under the caller's `np.errstate`.

A taped step runs the shard forwards, one loss on the concatenated output
in the calling process, the shard backwards seeded with their slice of
the output gradient, then sums the leaf gradients in shard order. Every
shard is computed the same way wherever it runs, and the sums have one
order, so the bytes of a trained model depend on neither the core count
nor the BLAS thread count. Where no OpenBLAS is loaded there are no
helpers and nothing is pinned: the caller runs every shard itself.

A helper that dies or raises makes the caller raise GazeIntentError; its
helpers are then stopped, and the next batch starts new ones.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import signal
import subprocess
import sys
import traceback
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

from gazeintent import model
from gazeintent.errors import GazeIntentError
from gazeintent.numerics import Tape, Tensor, backward as tape_backward

SHARD_ROWS = 128  # rows per shard: the only cut of a batch's rows, so it fixes the bytes
POLL_S = 0.5      # how often a waiting caller checks that its helper is alive

_HELPERS: list = []

# (get, set) thread-count symbols of numpy's bundled OpenBLAS, then of plain builds
_BLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _openblas():
    """(get, set) of the loaded OpenBLAS thread count, found the way
    perfbench's environment record finds it; None if none is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and ".so" in line}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread in this process, restored afterwards."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _helper_cap() -> int:
    """Helpers a batch may use: one per usable core beyond the first,
    none without OpenBLAS."""
    if _openblas() is None:
        return 0
    return len(os.sched_getaffinity(0)) - 1


# ---------------------------------------------------------------------------
# helper processes


class _Helper:
    """One helper process and the two pipes to it."""

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        root = str(Path(__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {root!r}); "
                f"from gazeintent.shards import _serve; _serve({req_r}, {rep_w})")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", code], pass_fds=(req_r, rep_w),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        except OSError as e:
            os.close(req_w)
            os.close(rep_r)
            raise GazeIntentError(f"cannot start a shard helper: {e}") from e
        finally:
            os.close(req_r)
            os.close(rep_w)
        self.requests = Connection(req_w, readable=False)
        self.replies = Connection(rep_r, writable=False)
        self.owner = os.getpid()

    def send(self, msg) -> None:
        try:
            self.requests.send(msg)
        except OSError as e:
            raise self._exited() from e

    def recv(self):
        try:
            while not self.replies.poll(POLL_S):
                if self.proc.poll() is not None:
                    raise EOFError
            status, payload = self.replies.recv()
        except (EOFError, OSError) as e:
            raise self._exited() from e
        if status != "ok":
            raise GazeIntentError(f"shard helper (pid {self.proc.pid}) raised {payload}")
        return payload

    def _exited(self) -> GazeIntentError:
        try:
            code = self.proc.wait(timeout=POLL_S)
        except subprocess.TimeoutExpired:
            code = None
        return GazeIntentError(f"shard helper (pid {self.proc.pid}) exited"
                               + ("" if code is None else f", exit code {code}"))

    def close(self, kill: bool = False) -> None:
        self.requests.close()
        self.replies.close()
        if kill:
            self.proc.kill()
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _own_helpers() -> list:
    """This process's helpers. A forked child inherits its parent's list,
    but the helpers serve the parent: the child drops them unused."""
    if _HELPERS and _HELPERS[0].owner != os.getpid():
        _HELPERS.clear()
    return _HELPERS


def _helpers(n: int) -> list:
    """The first n helpers, starting any that do not run yet."""
    helpers = _own_helpers()
    while len(helpers) < n:
        helpers.append(_Helper())
    return helpers[:n]


@atexit.register
def _stop_helpers(kill: bool = False) -> None:
    helpers = _own_helpers()
    while helpers:
        helpers.pop().close(kill)


def helper_pids() -> list:
    """Process ids of this process's running helpers."""
    return [h.proc.pid for h in _own_helpers()]


def _serve(req_fd: int, rep_fd: int) -> None:
    """A helper's loop: answer each request until the caller closes the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller decides when helpers stop
    requests = Connection(req_fd, writable=False)
    replies = Connection(rep_fd, readable=False)
    state = {}
    while True:
        try:
            msg = requests.recv()
        except EOFError:
            return
        try:
            reply = ("ok", _HANDLERS[msg[0]](state, *msg[1:]))
        except Exception as e:  # reported to the caller, which raises
            where = traceback.extract_tb(e.__traceback__)[-1]
            reply = ("error", f"{type(e).__name__}: {e} (at {Path(where.filename).name}:"
                              f"{where.lineno} in {where.name})")
        replies.send(reply)


def _serve_forward(state: dict, tensors: dict, config, head_kind, shards: dict,
                   taped: bool, err: dict) -> dict:
    params = model.ModelParams(config, head_kind)
    params.tensors = {k: Tensor(data, requires_grad=rg) for k, (data, rg) in tensors.items()}
    state["params"], state["tapes"] = params, {}
    outs = {}
    with np.errstate(**err):
        for i, rows in shards.items():
            outs[i], state["tapes"][i] = _shard_forward(params, rows, Tape if taped else None)
    return outs


def _serve_backward(state: dict, seeds: dict, err: dict) -> dict:
    with np.errstate(**err):
        return {i: _shard_backward(state["params"], *state["tapes"].pop(i), seed, tape_backward)
                for i, seed in seeds.items()}


_HANDLERS = {"forward": _serve_forward, "backward": _serve_backward}


# ---------------------------------------------------------------------------
# one shard, wherever it runs


def _shard_forward(params: model.ModelParams, rows: dict, tape):
    """(output array, (tape, output) or None) of model.forward on one shard;
    recorded on a new `tape` unless it is None."""
    if tape is None:
        return model.forward(params, rows).data, None
    with tape() as t:
        out = model.forward(params, rows)
    return out.data, (t, out)


def _shard_backward(params: model.ModelParams, tape, out, seed, backward) -> dict:
    """Gradient of every tensor requiring one (None where unreachable)
    after the backward of one shard seeded with its output gradient; the
    tensors' .grad are left cleared for the next shard."""
    backward(out, tape, grad=seed)
    grads = {}
    for k, t in params.tensors.items():
        if t.requires_grad:
            grads[k], t.grad = t.grad, None
    return grads


# ---------------------------------------------------------------------------
# a batch


class _Batch:
    """One batch's shards and the workers they go to; helpers get their
    shards' forward request as soon as the batch is made."""

    def __init__(self, params: model.ModelParams, inputs: dict, taped: bool):
        n = len(next(iter(inputs.values())))
        self.slices = [slice(i, i + SHARD_ROWS) for i in range(0, max(n, 1), SHARD_ROWS)]
        self.helpers = _helpers(min(len(self.slices) - 1, _helper_cap()))
        rows = [{k: v[sl] for k, v in inputs.items()} for sl in self.slices]
        self.rows = {i: rows[i] for i in self.shards_of(0)}
        tensors = {k: (t.data, t.requires_grad) for k, t in params.tensors.items()}
        self.err = np.geterr()
        for w, helper in enumerate(self.helpers, start=1):
            helper.send(("forward", tensors, params.config, params.head_kind,
                         {i: rows[i] for i in self.shards_of(w)}, taped, self.err))

    def shards_of(self, worker: int) -> range:
        """Indices of the shards that `worker` runs (0: the caller)."""
        return range(worker, len(self.slices), 1 + len(self.helpers))

    def gather(self, own: dict) -> np.ndarray:
        """Every shard's output in shard order, given the caller's own."""
        outs = dict(own)
        for helper in self.helpers:
            outs.update(helper.recv())
        return np.concatenate([outs[i] for i in range(len(self.slices))])


@contextmanager
def _batch(params, inputs: dict, taped: bool):
    """A _Batch run with this process's BLAS at one thread; if anything
    fails while helpers hold work of it, they are stopped."""
    with _one_blas_thread():
        batch = None
        try:
            batch = _Batch(params, inputs, taped)
            yield batch
        except BaseException:
            if batch is None or batch.helpers:
                _stop_helpers(kill=True)
            raise


def forward(params: model.ModelParams, inputs: dict) -> np.ndarray:
    """Untaped `model.forward` output of every row of `inputs` (stream ->
    array of rows), computed shard by shard."""
    with _batch(params, inputs, taped=False) as batch:
        return batch.gather({i: _shard_forward(params, rows, None)[0]
                             for i, rows in batch.rows.items()})


def step(params: model.ModelParams, inputs: dict, targets, loss_fn, tape, backward) -> Tensor:
    """One taped training step over the rows of `inputs`, without the
    optimizer update: afterwards every tensor of `params` that requires
    grad holds the gradient of `loss_fn(output, targets)` summed over the
    shards in shard order (left as None where no shard reaches it).
    Returns the loss.

    The loss runs once, on the concatenated output, on its own tape. The
    caller's shards are recorded on `tape` (a Tape class) and shard 0's
    backward runs through `backward`, so the train module passes its own
    names and a tracer that wraps them sees that shard.
    """
    with _batch(params, inputs, taped=True) as batch:
        own = {i: _shard_forward(params, rows, tape) for i, rows in batch.rows.items()}
        out = Tensor(batch.gather({i: data for i, (data, _) in own.items()}),
                     requires_grad=True)
        with Tape() as loss_tape:
            loss = loss_fn(out, targets)
        loss_tape.backward(loss)
        seed = out.grad
        for w, helper in enumerate(batch.helpers, start=1):
            helper.send(("backward", {i: seed[batch.slices[i]] for i in batch.shards_of(w)},
                         batch.err))
        grads = {i: _shard_backward(params, *taped, seed[batch.slices[i]],
                                    backward if i == 0 else tape_backward)
                 for i, (_, taped) in own.items()}
        for helper in batch.helpers:
            grads.update(helper.recv())
    for k, t in params.tensors.items():
        if t.requires_grad:
            total = None
            for i in range(len(batch.slices)):
                g = grads[i][k]
                if g is not None:
                    total = g if total is None else total + g
            t.grad = total
    return loss
