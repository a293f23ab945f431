"""Data-parallel shards: gradients, helper counts, bytes and helper failures."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from gazeintent import model, shards
from gazeintent.errors import GazeIntentError, ShapeError
from gazeintent.numerics import Tape, Tensor, backward, mse_loss, weighted_cross_entropy

needs_openblas = pytest.mark.skipif(shards._openblas() is None,
                                    reason="helpers run only where OpenBLAS is loaded")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _problem(dtype, rows, seed=3):
    params = model.init_params(model.ModelConfig(), 0).astype(dtype)
    rng = np.random.default_rng(seed)
    x = {k: rng.normal(size=(rows, 2, 24)).astype(dtype) for k in params.config.streams}
    y = rng.integers(0, 2, size=rows)
    weights = Tensor(np.array([0.7, 1.6]))
    return params, x, y, lambda out, t: weighted_cross_entropy(out, t, weights)


def _sharded_grads(params, x, y, loss_fn, helpers, monkeypatch):
    monkeypatch.setattr(shards, "_helper_cap", lambda: helpers)
    for t in params.tensors.values():
        t.grad = None
    loss = shards.step(params, x, y, loss_fn, Tape, backward)
    return loss.item(), {k: t.grad for k, t in params.tensors.items() if t.requires_grad}


def _one_step_grads(params, x, y, loss_fn):
    for t in params.tensors.values():
        t.grad = None
    leaves = [t for t in params.tensors.values() if t.requires_grad]
    with Tape() as tape:
        loss = loss_fn(model.forward(params, x), y)
    backward(loss, tape, params=leaves)
    return loss.item(), {k: t.grad for k, t in params.tensors.items() if t.requires_grad}


@needs_openblas
def test_float64_gradients_match_one_step_and_are_bitwise_across_helper_counts(monkeypatch):
    # 300 rows: shards of 128, 128 and 44 rows
    params, x, y, loss_fn = _problem(np.float64, 300)
    ref_loss, ref = _one_step_grads(params, x, y, loss_fn)
    runs = [_sharded_grads(params, x, y, loss_fn, n, monkeypatch) for n in (0, 1, 2)]
    scale = max(float(np.abs(g).max()) for g in ref.values())
    loss, grads = runs[0]
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for k, g in ref.items():
        assert grads[k].dtype == np.float64
        # relative to the largest gradient: some (key biases) are zero up to rounding
        assert np.abs(grads[k] - g).max() <= 1e-6 * max(float(np.abs(g).max()), 1e-3 * scale), k
    for loss_n, grads_n in runs[1:]:
        assert loss_n == loss
        assert all(grads_n[k].tobytes() == grads[k].tobytes() for k in grads)


@needs_openblas
def test_frozen_tensors_get_no_gradient_from_any_shard(monkeypatch):
    params, x, y, loss_fn = _problem(np.float32, 200)
    frozen = [k for k in params.tensors if k.startswith("enc_")]
    for k in frozen:
        params.tensors[k].requires_grad = False
    _, grads = _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    assert not set(frozen) & set(grads)
    assert all(params.tensors[k].grad is None for k in frozen)
    assert all(g is not None for g in grads.values())


@needs_openblas
def test_untaped_forward_equals_per_shard_forward(monkeypatch):
    params, x, _, _ = _problem(np.float32, 300)
    monkeypatch.setattr(shards, "_helper_cap", lambda: 1)
    out = shards.forward(params, x)
    with shards._one_blas_thread():
        ref = np.concatenate([model.forward(params, {k: v[i:i + shards.SHARD_ROWS]
                                                     for k, v in x.items()}).data
                              for i in range(0, 300, shards.SHARD_ROWS)])
    assert out.tobytes() == ref.tobytes()
    np.testing.assert_allclose(out, model.forward(params, x).data, rtol=1e-4, atol=1e-5)


def test_seeded_backward_equals_backward_of_weighted_sum():
    params, x, _, _ = _problem(np.float64, 5)
    seed = np.random.default_rng(1).normal(size=(5, 2))
    leaves = [t for t in params.tensors.values() if t.requires_grad]
    with Tape() as tape:
        out = model.forward(params, x)
    backward(out, tape, params=leaves, grad=seed)
    seeded = {k: t.grad for k, t in params.tensors.items() if t.requires_grad}
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        loss = (model.forward(params, x) * Tensor(seed)).sum()
    backward(loss, tape, params=leaves)
    for k, t in params.tensors.items():
        if t.requires_grad:
            np.testing.assert_allclose(seeded[k], t.grad, rtol=1e-12, atol=1e-14)
    with Tape() as tape:
        out = model.forward(params, x)
    with pytest.raises(ShapeError, match="seed shape"):
        tape.backward(out, grad=np.ones((4, 2)))


@needs_openblas
def test_helper_killed_between_steps_raises_then_recovers(monkeypatch):
    params, x, y, loss_fn = _problem(np.float32, 256)
    _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    pid = shards.helper_pids()[0]
    os.kill(pid, signal.SIGKILL)
    t0 = time.monotonic()
    with pytest.raises(GazeIntentError, match=f"shard helper \\(pid {pid}\\)"):
        _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    assert time.monotonic() - t0 < 10.0
    assert shards.helper_pids() == []
    # the next batch starts a new helper
    loss, _ = _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    assert np.isfinite(loss) and shards.helper_pids() not in ([], [pid])


@needs_openblas
def test_helper_that_raises_makes_the_caller_raise(monkeypatch):
    # shard 0 (the caller's) is finite; shard 1 overflows in the helper,
    # which runs under the caller's errstate
    params, x, _, _ = _problem(np.float32, 256)
    x = {k: v.copy() for k, v in x.items()}
    x["g"][shards.SHARD_ROWS:] = 3e38
    monkeypatch.setattr(shards, "_helper_cap", lambda: 1)
    with np.errstate(over="raise", invalid="raise"):
        model.forward(params, {k: v[:shards.SHARD_ROWS] for k, v in x.items()})
        with pytest.raises(GazeIntentError, match="raised FloatingPointError"):
            shards.forward(params, x)
    assert shards.helper_pids() == []
    assert np.isfinite(shards.forward(params, {k: v[:200] for k, v in _problem(
        np.float32, 200)[1].items()})).all()


def test_helper_that_cannot_start_makes_the_caller_raise(monkeypatch):
    params, x, _, _ = _problem(np.float32, 256)
    monkeypatch.setattr(shards, "_helper_cap", lambda: 1)
    shards._stop_helpers()
    monkeypatch.setattr(sys, "executable", "/nonexistent/python")
    with pytest.raises(GazeIntentError, match="cannot start a shard helper"):
        shards.forward(params, x)
    assert shards.helper_pids() == []


def _fork_child_step(conn):
    params, x, y, loss_fn = _problem(np.float32, 256)
    shards.step(params, x, y, loss_fn, Tape, backward)
    conn.send(shards.helper_pids())


@needs_openblas
def test_forked_child_starts_its_own_helpers(monkeypatch):
    # a child forked after training must not talk to its parent's helpers
    params, x, y, loss_fn = _problem(np.float32, 256)
    _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    parent_pids = shards.helper_pids()
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_fork_child_step, args=(theirs,))
    child.start()
    assert ours.poll(60)
    child_pids = ours.recv()
    child.join(60)
    assert child.exitcode == 0
    assert child_pids and not set(child_pids) & set(parent_pids)
    assert shards.helper_pids() == parent_pids
    loss, _ = _sharded_grads(params, x, y, loss_fn, 1, monkeypatch)
    assert np.isfinite(loss) and shards.helper_pids() == parent_pids


@needs_openblas
def test_mse_step_matches_one_step(monkeypatch):
    params = model.init_params(model.ModelConfig(), 0, head_kind=model.VELOCITY_HEAD)
    params = params.astype(np.float64)
    rng = np.random.default_rng(8)
    x = {k: rng.normal(size=(140, 2, 24)) for k in params.config.streams}
    v = rng.normal(size=(140, 2))
    loss_fn = lambda out, t: mse_loss(out, Tensor(t))  # noqa: E731
    ref_loss, ref = _one_step_grads(params, x, v, loss_fn)
    loss, grads = _sharded_grads(params, x, v, loss_fn, 1, monkeypatch)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = max(float(np.abs(g).max()) for g in ref.values())
    for k, g in ref.items():
        assert np.abs(grads[k] - g).max() <= 1e-6 * max(float(np.abs(g).max()), 1e-3 * scale), k


BYTES_RUN = textwrap.dedent("""
    import os, sys
    if sys.argv[1] == "one_cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from gazeintent import shards, synth, train
    cfg = synth.SynthConfig(n_subjects=3, session_len=15.0, seed=2)
    sessions = [synth.generate_session(cfg, i, task)
                for i in range(3) for task in ("text", "webpage")]
    params, _, history = train.supervised_train(
        sessions, train.TrainConfig(stride=12, max_epochs=2, patience=2))
    print(params.checksum(), len(shards.helper_pids()), history[-1]["val_loss"])
""")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_trained_bytes_independent_of_blas_threads_and_cores():
    # a short stage under OPENBLAS_NUM_THREADS=1 and =2, and on one CPU
    # (so without helpers), gives one params checksum
    out = {}
    for case, threads in (("threads1", "1"), ("threads2", "2"), ("one_cpu", "2")):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", BYTES_RUN, case], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out[case] = proc.stdout.split()
    assert out["one_cpu"][1] == "0"
    assert out["threads1"][0] == out["threads2"][0] == out["one_cpu"][0]
    assert out["threads1"][2] == out["threads2"][2] == out["one_cpu"][2]
