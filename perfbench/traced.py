"""The traced run: per-layer numbers for every module, whatever the
workload.

It sets up reduced versions of all three workload jobs, runs each once
untraced and once with spans around the package's public calls, and adds
an isolated-tape microbenchmark at the train_loso shapes. Spans come only
from wrappers installed here; nothing in the package changes.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import harness
import workloads as wl
from gazeintent import dataio, evaluate, model, numerics, stream, synth, train

TRACE_CLOSED_SAMPLES = 600
TRACE_OPEN_S = 4.0
MICRO_REPS = 5
B1_REPS = 200


def instrument(tracer: harness.Tracer) -> None:
    """Wrap each public call at the module that looks it up."""
    for name in ("parse_session", "compute_stats", "normalize"):
        tracer.wrap(dataio, name, f"dataio.{name}")
    tracer.wrap(dataio, "windowize",
                lambda *a, **k: "dataio.windowize." + (a[2] if len(a) > 2 else k["mode"]))
    for name in ("collect_windows", "pretrain", "finetune", "zero_grads", "backward",
                 "adam_step"):
        tracer.wrap(train, name, f"train.{name}")
    for name in ("forward", "predict_proba", "save_checkpoint", "load_for_finetune",
                 "encode_stream", "cross_fuse", "transformer_forward", "conv1d",
                 "layer_norm", "scaled_dot_attention"):
        tracer.wrap(model, name, f"model.{name}")
    for name in ("loso_evaluate", "predict_labels"):
        tracer.wrap(evaluate, name, f"evaluate.{name}")
    tracer.wrap(stream.StreamingEngine, "push", "stream.push")


def counting_tape(log: list):
    """A Tape class that appends (nodes, bytes) to log as each tape closes.
    Bytes are those of node outputs that own their buffer (views excluded):
    memory computed from tensor sizes, not measured."""

    class CountingTape(numerics.Tape):
        def __init__(self):
            super().__init__()
            self.nodes = 0
            self.nbytes = 0

        def record(self, node):
            super().record(node)
            self.nodes += 1
            if node.data.base is None:
                self.nbytes += node.data.nbytes

        def __exit__(self, *exc):
            log.append((self.nodes, self.nbytes))
            return super().__exit__(*exc)

    return CountingTape


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _total(spans, name) -> float:
    return sum(s.end - s.start for s in _named(spans, name))


def _ms(values) -> float:
    return 1000.0 * float(np.median(values))


# ---------------------------------------------------------------------------
# per-job metrics


def _ingest_metrics(spans, res) -> dict:
    out = {f"dataio.{n}.s": (_total(spans, f"dataio.{n}"), "s")
           for n in ("parse_session", "windowize.labeled", "windowize.pretext",
                     "compute_stats", "normalize")}
    # one pretext span per session, in path order
    per_window = [(s.end - s.start) / pre for s, (_, pre)
                  in zip(_named(spans, "dataio.windowize.pretext"), res["counts"].values())]
    pre_counts = [pre for _, pre in res["counts"].values()]
    long_ = per_window[int(np.argmax(pre_counts))]
    short = per_window[int(np.argmin(pre_counts))]
    out["dataio.windowize.pretext.long_over_short"] = (long_ / short, "ratio")
    out["dataio.windows.kept"] = (res["kept_per_pass"], "count")
    out["dataio.windows.kept_frac"] = (res["kept_frac"], "ratio")
    return out


def _train_metrics(spans, tape_log) -> dict:
    zero = _named(spans, "train.zero_grads")
    back = _named(spans, "train.backward")
    adam = _named(spans, "train.adam_step")
    selfs = harness.self_time_by(spans, lambda n: n)
    loso = _named(spans, "evaluate.loso_evaluate")
    fold_ends = [s.end for s in _named(spans, "evaluate.predict_labels")]
    fold_starts = [loso[0].start] + fold_ends[:-1]
    nodes = [n for n, _ in tape_log]
    return {
        "train.step.forward_ms": (_ms([b.start - z.end for z, b in zip(zero, back)]), "ms"),
        "train.step.backward_ms": (_ms([b.end - b.start for b in back]), "ms"),
        "train.step.adam_ms": (_ms([a.end - a.start for a in adam]), "ms"),
        "train.steps": (len(adam), "count"),
        "train.pretrain.self_s": (selfs.get("train.pretrain", 0.0), "s"),
        "train.finetune.self_s": (selfs.get("train.finetune", 0.0), "s"),
        "train.collect_windows.s": (_total(spans, "train.collect_windows"), "s"),
        "numerics.tape.nodes_per_step": (int(np.median(nodes)), "count"),
        "numerics.tape.retained_mb": (float(np.median([b for _, b in tape_log])) / 2**20, "MB"),
        "model.save_checkpoint.s": (_total(spans, "model.save_checkpoint"), "s"),
        "model.load_for_finetune.s": (_total(spans, "model.load_for_finetune"), "s"),
        "evaluate.fold_s": (float(np.median(np.subtract(fold_ends, fold_starts))), "s"),
        "evaluate.predict_labels.s": (_total(spans, "evaluate.predict_labels"), "s"),
    }


def _stream_metrics(opened) -> dict:
    res = opened["result"]
    service = res.end - res.start
    emit = np.array([d is True for d in res.decided])
    wait_ms = 1000.0 * (res.start - res.due)
    late = harness.summarize(1000.0 * np.asarray(res.late_after_sleep))
    return {
        "stream.push.emit_ms": (_ms(service[emit]), "ms"),
        "stream.push.nonemit_us": (1e6 * float(np.median(service[~emit])), "us"),
        "stream.queue_wait_ms.p50": (float(np.median(wait_ms)), "ms"),
        "stream.queue_wait_ms.p99": (float(np.percentile(wait_ms, 99)), "ms"),
        "stream.busy_frac": (float(service.sum()) / res.wall_s, "ratio"),
        "stream.generator_late_ms": (late["tail"], "ms"),
        "stream.emission_points": (opened["emission_points"], "count"),
        "stream.decisions": (opened["decisions_made"], "count"),
        "stream.silent_missing": (opened["silent_missing"], "count"),
    }


# ---------------------------------------------------------------------------
# isolated-tape microbenchmark at the train_loso shapes (B=256, float32)


def _fwd_bwd(fn, leaves, reps):
    fwd, bwd = [], []
    for _ in range(reps):
        numerics.zero_grads(leaves)
        with numerics.Tape() as tape:
            t0 = time.perf_counter()
            y = fn()
            t1 = time.perf_counter()
            loss = y.sum()
        t2 = time.perf_counter()
        numerics.backward(loss, tape)
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return _ms(fwd), _ms(bwd)


def _timed(fn, reps) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _ms(times)


def microbench(seed: int, reps: int = MICRO_REPS) -> dict:
    rng = np.random.default_rng([seed, 0xb])
    params = model.init_params(model.ModelConfig(), seed, head_kind=model.CLASSIFIER_HEAD)
    cfg = params.config
    t = params.tensors
    B, T, d, H = 256, cfg.window, cfg.d_model, cfg.n_heads

    def leaf(*shape):
        return numerics.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    x2, h64, hc = leaf(B, cfg.in_channels, T), leaf(B, T, d), leaf(B, T, d)
    xc, q, k, v = leaf(B, d, T), leaf(B, H, T, d // H), leaf(B, H, T, d // H), leaf(B, H, T, d // H)
    weights = list(t.values())
    cases = {
        "numerics.conv1d": (lambda: numerics.conv1d(xc, t["enc_g.conv1.w"], t["enc_g.conv1.b"]),
                            [xc]),
        "numerics.layer_norm": (lambda: numerics.layer_norm(h64, t["tf0.ln1.g"], t["tf0.ln1.b"]),
                                [h64]),
        "numerics.scaled_dot_attention": (lambda: numerics.scaled_dot_attention(q, k, v),
                                          [q, k, v]),
        "model.encode_stream": (lambda: model.encode_stream(x2, "g", params), [x2]),
        "model.cross_fuse": (lambda: model.cross_fuse(h64, hc, params), [h64, hc]),
        "model.transformer_forward": (lambda: model.transformer_forward(h64, params), [h64]),
    }
    out = {}
    for name, (fn, leaves) in cases.items():
        fwd, bwd = _fwd_bwd(fn, leaves + weights, reps)
        out[f"{name}.fwd_ms"] = (fwd, "ms")
        out[f"{name}.bwd_ms"] = (bwd, "ms")

    batch = {s: rng.normal(size=(B, cfg.in_channels, T)).astype(np.float32) for s in cfg.streams}
    untaped = _timed(lambda: model.forward(params, batch), reps)

    def taped():
        with numerics.Tape():
            model.forward(params, batch)

    out["model.forward.b256_untaped_ms"] = (untaped, "ms")
    out["model.taped_over_untaped"] = (_timed(taped, reps) / untaped, "ratio")
    one = {s: x[:1] for s, x in batch.items()}
    out["model.predict_proba.b1_ms"] = (_timed(lambda: model.predict_proba(params, one), B1_REPS),
                                        "ms")
    trainable = {n: t[n] for n in params.learnable_names()}
    grads = {n: rng.normal(size=p.shape).astype(np.float32) for n, p in trainable.items()}
    state = numerics.AdamState.for_params(trainable)
    out["numerics.adam_step.ms"] = (_timed(lambda: numerics.adam_step(trainable, grads, state),
                                           reps), "ms")
    return out


# ---------------------------------------------------------------------------


def run(work: Path, seed: int, checks: wl.Checks, out_dir: Path, tag: str) -> tuple:
    """Returns (metrics, layer self times, overhead detail)."""
    gen = harness.Tracer()
    gen.wrap(synth, "generate_session", "synth.generate_session")
    try:
        ingest_state = wl.ingest_setup(work / "ingest", seed, wl.INGEST_TRACE_SESSIONS)
        train_state = wl.train_setup(work / "train", seed)
        stream_state = wl.stream_setup(work / "stream", seed, TRACE_CLOSED_SAMPLES, TRACE_OPEN_S)
    finally:
        gen.restore()
    metrics = {"synth.generate_session.s": (_total(gen.spans, "synth.generate_session"), "s")}

    def ingest_job():
        res = wl.ingest_run(ingest_state, checks)
        return sum(float(t.sum()) for times in res["call_s"].values() for t in times), res

    def train_job():
        runs = wl.train_run(train_state, checks)
        return sum(r["loso_s"] for r in runs), runs

    def stream_job():
        closed, opened = wl.stream_run(stream_state)
        wl.check_stream(stream_state, closed, opened, checks)
        busy = float((opened["result"].end - opened["result"].start).sum())
        return sum(closed.emit_s) + busy, opened

    jobs = {"ingest": ingest_job, "train_loso": train_job, "stream": stream_job}
    walls = {"untraced": 0.0, "traced": 0.0}
    layers: dict = {}
    for job, fn in jobs.items():
        wall, plain = fn()
        walls["untraced"] += wall
        tracer = harness.Tracer()
        tape_log = []
        tracer.replace(train, "Tape", counting_tape(tape_log))
        instrument(tracer)
        try:
            wall, traced = fn()
        finally:
            tracer.restore()
        walls["traced"] += wall
        tracer.write(out_dir / f"spans-{tag}-{job}.jsonl")
        for layer, s in harness.self_time_by(tracer.spans, tracer.layer_of.get).items():
            layers[layer] = layers.get(layer, 0.0) + s
        if job == "ingest":
            metrics.update(_ingest_metrics(tracer.spans, traced))
        elif job == "train_loso":
            metrics.update(_train_metrics(tracer.spans, tape_log))
        else:
            metrics.update(_stream_metrics(plain))   # scheduler timings, not spans
    metrics.update(microbench(seed))
    overhead = 100.0 * (walls["traced"] - walls["untraced"]) / walls["untraced"]
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics, layers, walls
