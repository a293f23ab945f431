"""The three workloads. Each has a set-up that builds its inputs from the
seed (synthetic sessions written to disk, a model or checkpoint, a warm-up)
and a job that calls the package's public functions on those inputs.

Jobs call every package function through its module attribute
(`dataio.windowize`, not a local alias), so the traced run can wrap it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
from gazeintent import dataio, evaluate, model, numerics, stream, synth, train

STRIDE = 6
GAZE_HZ = dataio.GAZE_RATE
DECISION_LIMIT_MS = 1000.0 * STRIDE / GAZE_HZ   # one stride period at 120 Hz
STREAM_MATCH_TOL = 1e-6                          # acceptance criterion 7
STREAM_CHECK_SAMPLE = 200                        # decisions re-checked, both phases
SETUP_REPEATS = 3


@dataclass
class Checks:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _finite(*arrays) -> bool:
    return all(a is None or bool(np.isfinite(a).all()) for a in arrays)


def _classifier_warmup(seed: int) -> None:
    """One taped B=256 step on a throwaway model: starts the BLAS pool and
    faults in the allocator before anything is timed."""
    rng = np.random.default_rng([seed, 0xa1])
    params = model.init_params(model.ModelConfig(), seed, head_kind=model.CLASSIFIER_HEAD)
    batch = {k: rng.normal(size=(256, 2, dataio.WINDOW_LEN)).astype(np.float32)
             for k in params.config.streams}
    labels = rng.integers(0, 2, size=256)
    names = params.learnable_names()
    trainable = {k: params.tensors[k] for k in names}
    state = numerics.AdamState.for_params(trainable)
    with numerics.Tape() as tape:
        loss = numerics.weighted_cross_entropy(model.forward(params, batch), labels,
                                               numerics.Tensor(np.ones(2)))
    numerics.backward(loss, tape, params=trainable.values())
    numerics.adam_step(trainable, numerics.collect_grads(trainable), state)


def _write(session, path: Path) -> Path:
    dataio.write_session(session, path)
    return path


# ---------------------------------------------------------------------------
# ingest: session file -> normalized windows, all dataio


# (task, session lengths in s): mixed lengths up to one 300 s session, whose
# pretext windowing shows the per-window rebuild of the mouse arrays
INGEST_SESSIONS = (("text", (60, 300)), ("webpage", (60, 90)))
INGEST_TRACE_SESSIONS = (("text", (60,)), ("webpage", (240,)))
INGEST_PASS_S = 5.5   # nominal seconds per pass, sizes the run from --seconds


@dataclass
class IngestState:
    paths: list
    passes: int


def ingest_setup(work: Path, seed: int, sessions=INGEST_SESSIONS, passes: int = 1):
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    subject = 0
    for task, lengths in sessions:
        for length in lengths:
            cfg = synth.SynthConfig(seed=seed, n_subjects=1, session_len=float(length))
            session = synth.generate_session(cfg, subject, task)
            paths.append(_write(session, work / f"S{subject:02d}_{task}_{length}s.session"))
            subject += 1
    warm = synth.generate_session(synth.SynthConfig(seed=seed, session_len=5.0), 99, "text")
    ingest_one(_write(warm, work / "warmup.session"))
    (work / "warmup.session").unlink()
    return IngestState(paths, passes)


def ingest_one(path, clock=time.perf_counter):
    """One user-visible operation: a session file to normalized windows.
    Also returns the time of each of its five calls."""
    marks = [clock()]
    session = dataio.parse_session(path)
    marks.append(clock())
    labeled = dataio.windowize(session, STRIDE, "labeled")
    marks.append(clock())
    pretext = dataio.windowize(session, STRIDE, "pretext")
    marks.append(clock())
    stats = dataio.compute_stats(labeled + pretext, session.meta)
    marks.append(clock())
    normed = dataio.normalize(labeled + pretext, stats)
    marks.append(clock())
    return session, labeled, pretext, normed, np.diff(marks)


def ingest_run(state: IngestState, checks: Checks, clock=time.perf_counter) -> dict:
    """Every session once per pass; per session, its call times in each pass."""
    call_s = {p.name: [] for p in state.paths}
    samples, counts = {}, {}
    kept = positions = 0
    for _ in range(state.passes):
        for path in state.paths:
            try:
                session, labeled, pretext, normed, times = ingest_one(path, clock)
            except Exception as e:  # counted, then the run goes on
                checks.record(False, f"ingest {path.name}: {e!r}")
                continue
            call_s[path.name].append(times)
            n = samples[path.name] = len(session.gaze)
            got = (len(labeled), len(pretext))
            ok = got[0] > 0 and got[1] > 0 and counts.setdefault(path.name, got) == got
            ok = ok and all(_finite(w.g, w.c, w.vel_target) for w in normed)
            checks.record(ok, f"ingest {path.name}: counts {got} or non-finite window")
            kept += sum(got)
            positions += 2 * ((n - dataio.WINDOW_LEN) // STRIDE + 1)
    return {"call_s": call_s, "samples": samples, "counts": counts,
            "kept_per_pass": kept // max(state.passes, 1),
            "kept_frac": kept / max(positions, 1)}


# ---------------------------------------------------------------------------
# train_loso: semi_full LOSO over a small dataset, taped B=256 training


# 15 s per subject keeps one full B=256 batch per stage and epoch
LOSO_SIZE = {"subjects": 3, "session_len": 15.0, "epochs": 1}
LOSO_RUN_S = 6.0      # nominal seconds per LOSO run


@dataclass
class TrainState:
    paths: list
    seed: int
    epochs: int
    runs: int


def train_setup(work: Path, seed: int, size=LOSO_SIZE, runs: int = 1) -> TrainState:
    work.mkdir(parents=True, exist_ok=True)
    cfg = synth.SynthConfig(seed=seed, n_subjects=size["subjects"],
                            session_len=size["session_len"])
    paths = [_write(synth.generate_session(cfg, i, "text"), work / f"S{i:02d}_text.session")
             for i in range(size["subjects"])]
    _classifier_warmup(seed)
    return TrainState(paths, seed, size["epochs"], runs)


class StepProbe:
    """Times optimizer steps and LOSO folds from outside the package. A step
    runs from `train.zero_grads` to the end of `train.adam_step`, and its
    batch size is read off the loss call in between; a fold ends with its
    `evaluate.predict_labels`. Every loss is checked finite."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.steps = []          # (start, end, batch)
        self.fold_ends = []
        self.bad_losses = 0
        self._start = None
        self._batch = 0
        self._patches = harness.Patches()

    def install(self) -> None:
        self._patch(train, "zero_grads", self._before_step)
        self._patch(train, "adam_step", None, self._after_step)
        for loss_fn in ("mse_loss", "weighted_cross_entropy"):
            self._patch(train, loss_fn, None, self._after_loss)
        self._patch(evaluate, "predict_labels", None,
                    lambda args, out: self.fold_ends.append(self.clock()))

    def uninstall(self) -> None:
        self._patches.restore()

    def _patch(self, owner, attr, before=None, after=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            out = orig(*args, **kwargs)
            if after:
                after(args, out)
            return out

        self._patches.replace(owner, attr, wrapper)

    def _before_step(self, args):
        self._start = self.clock()

    def _after_loss(self, args, loss):
        if self._start is not None:
            self._batch = args[0].shape[0]
        if not np.isfinite(loss.data).all():
            self.bad_losses += 1

    def _after_step(self, args, out):
        self.steps.append((self._start, self.clock(), self._batch))
        self._start = None


def train_job(state: TrainState):
    sessions = [dataio.parse_session(p) for p in state.paths]
    cfg = train.TrainConfig(seed=state.seed, max_epochs=state.epochs, patience=state.epochs)
    return evaluate.loso_evaluate(sessions, "semi_full", cfg)


def _check_report(report, checks: Checks) -> None:
    for fold in report.folds:
        f1 = fold.f1_overall
        checks.record(isinstance(f1, float) and math.isfinite(f1) and 0.0 <= f1 <= 100.0,
                      f"fold {fold.subject}: macro F1 {f1!r}")
    f1 = report.f1_overall
    checks.record(math.isfinite(f1) and 0.0 <= f1 <= 100.0, f"mean macro F1 {f1!r}")


def train_run(state: TrainState, checks: Checks, clock=time.perf_counter) -> list:
    """One entry per LOSO run: its wall time, fold times, step times and
    batch sizes, and its macro F1. Runs repeat identical work."""
    runs = []
    for _ in range(state.runs):
        probe = StepProbe(clock)
        probe.install()
        t0 = clock()
        try:
            report = train_job(state)
        except Exception as e:
            checks.record(False, f"loso_evaluate raised {e!r}")
            continue
        finally:
            probe.uninstall()
        wall = clock() - t0
        for _ in probe.steps:
            checks.record(True)
        for _ in range(probe.bad_losses):
            checks.record(False, "non-finite loss")
        _check_report(report, checks)
        runs.append({"loso_s": wall, "fold_s": np.diff([t0] + probe.fold_ends).tolist(),
                     "step_s": [e - s for s, e, _ in probe.steps],
                     "batch": [b for _, _, b in probe.steps], "f1": report.f1_overall})
    return runs


# ---------------------------------------------------------------------------
# stream: closed-loop saturation, then an open-loop multi-feed schedule


STREAM_FEEDS = 8             # open-loop feeds; about half-busy at the seed
FEED_GROUPS = 3              # feeds starting together emit decisions together
CLOSED_SAMPLES_PER_S = 100   # closed-loop samples per second of --seconds
OPEN_SHARE = 0.5             # share of --seconds spent in the open loop
P50_ROUND_S = 2.0            # open-loop rounds for the median latency
TAIL_ROUND_S = 1.0           # and for the tail: ~160 decisions, p93 with ten beyond


@dataclass
class StreamState:
    ckpt: Path
    closed: tuple         # (session, eye)
    feeds: list           # [(session, eye)]
    offsets: np.ndarray
    closed_samples: int
    open_s: float
    seed: int
    paths: list


def _feed(work: Path, seed: int, idx: int, length_s: float):
    cfg = synth.SynthConfig(seed=seed, n_subjects=1, session_len=length_s)
    path = _write(synth.generate_session(cfg, idx, ("text", "webpage")[idx % 2]),
                  work / f"feed{idx:02d}.session")
    session = dataio.parse_session(path)
    return path, session, dataio.select_eye(session.gaze)


def stream_setup(work: Path, seed: int, closed_samples: int, open_s: float,
                 feeds: int = STREAM_FEEDS) -> StreamState:
    work.mkdir(parents=True, exist_ok=True)
    closed_path, closed, closed_eye = _feed(work, seed, 0,
                                            math.ceil(closed_samples / GAZE_HZ) + 1.0)
    opened = [_feed(work, seed, k + 1, math.ceil(open_s) + 1.0) for k in range(feeds)]
    windows = [w for _, s, eye in [(closed_path, closed, closed_eye)] + opened
               for w in dataio.windowize(s, STRIDE, "labeled", eye=eye)]
    stats = dataio.compute_stats(windows, closed.meta)
    params = model.init_params(model.ModelConfig(), seed, head_kind=model.CLASSIFIER_HEAD)
    ckpt = work / "checkpoint"
    model.save_checkpoint(params, stats, ckpt)
    warm = stream.StreamingEngine.from_checkpoint(ckpt, closed.meta.magnification,
                                                  eye=closed_eye, stride=1)
    for sample in closed.gaze[:3 * dataio.WINDOW_LEN]:
        warm.push(sample)
    offsets = start_times(np.random.default_rng([seed, 0x0f]), feeds)
    return StreamState(ckpt, (closed, closed_eye), [(s, e) for _, s, e in opened],
                       offsets, closed_samples, open_s, seed,
                       [closed_path] + [p for p, _, _ in opened])


def start_times(rng, feeds: int) -> np.ndarray:
    """Seeded start times with a fixed shape: the feeds fall into
    FEED_GROUPS groups that start (and so emit) at the same instant,
    spread evenly over one stride period. The seed picks which feed joins
    which group and shifts the whole pattern, so every seed queues the same
    way: sizes 3, 3, 2 for 8 feeds."""
    period = STRIDE / GAZE_HZ
    group = rng.permutation(np.arange(feeds) % FEED_GROUPS)
    return (rng.uniform(0.0, period) + group * period / FEED_GROUPS) % period


def _engine(state: StreamState, session, eye, stride):
    return stream.StreamingEngine.from_checkpoint(state.ckpt, session.meta.magnification,
                                                  eye=eye, stride=stride)


class ClosedLoop:
    """Phase (a): one stride-1 engine pushed as fast as it takes samples;
    records the time of every push that emitted a decision."""

    def __init__(self, state: StreamState, clock=time.perf_counter):
        session, eye = state.closed
        self.engine = _engine(state, session, eye, 1)
        self.gaze = session.gaze[:state.closed_samples]
        self.clock = clock
        self.emit_s = []
        self.decisions = []     # (t_end, p_reading, open_gap)
        self.raised = 0

    def push(self, lo: int, hi: int) -> None:
        for sample in self.gaze[lo:hi]:
            t0 = self.clock()
            try:
                d = self.engine.push(sample)
            except Exception:
                self.raised += 1
                continue
            if d is not None:
                self.emit_s.append(self.clock() - t0)
                self.decisions.append((d.t_end, d.p_reading, self.engine.has_open_gap()))


def stream_run(state: StreamState, clock=time.perf_counter, sleep=time.sleep):
    """Phase (a) in two halves around phase (b), so that the closed-loop
    rounds are spread over the whole run. Returns (closed, opened)."""
    closed = ClosedLoop(state, clock)
    half = len(closed.gaze) // 2
    closed.push(0, half)
    opened = stream_open(state, clock, sleep)
    closed.push(half, len(closed.gaze))
    return closed, opened


def stream_open(state: StreamState, clock=time.perf_counter, sleep=time.sleep) -> dict:
    """Phase (b): every feed at 120 Hz from its seeded start, stride 6."""
    engines = [_engine(state, s, eye, STRIDE) for s, eye in state.feeds]
    events = harness.schedule(state.offsets, [len(s.gaze) for s, _ in state.feeds],
                              GAZE_HZ, state.open_s)
    decisions = [[] for _ in engines]
    gaze = [s.gaze for s, _ in state.feeds]

    def push(k, i):
        d = engines[k].push(gaze[k][i])
        if d is None:
            return False
        decisions[k].append((d.t_end, d.p_reading, engines[k].has_open_gap()))
        return True

    res = harness.open_loop(events, push, clock=clock, sleep=sleep)
    pushed = [0] * len(engines)
    for _, k, _ in events:
        pushed[k] += 1
    points = sum(max(0, (n - dataio.WINDOW_LEN) // STRIDE + 1) for n in pushed)
    made = sum(len(d) for d in decisions)
    return {"result": res, "decisions": decisions, "emission_points": points,
            "decisions_made": made, "silent_missing": points - made - res.failed}


def _offline_probs(params, stats, session, eye, t_ends) -> dict:
    """Batch-path probabilities of the windows ending at t_ends."""
    wanted = {round(t, 6) for t in t_ends}
    out = {}
    for w in dataio.windowize(session, 1, "labeled", eye=eye):
        key = round(w.t_end, 6)
        if key in wanted:
            nw = dataio.normalize([w], stats)[0]
            batch = {k: getattr(nw, k)[None].astype(np.float32) for k in params.config.streams}
            out[key] = float(model.predict_proba(params, batch)[0, 0])
    return out


def check_stream(state: StreamState, closed: ClosedLoop, opened: dict, checks: Checks) -> dict:
    """Every decision must be a probability; a seeded sample of those whose
    window has no open gap must equal the batch path within 1e-6."""
    params, stats = model.load_checkpoint(state.ckpt)
    for _ in range(closed.raised + opened["result"].failed):
        checks.record(False, "push raised")
    phases = [(state.closed, closed.decisions)] + list(zip(state.feeds, opened["decisions"]))
    eligible = [(j, i) for j, (_, ds) in enumerate(phases)
                for i, (_, _, gap) in enumerate(ds) if not gap]
    rng = np.random.default_rng([state.seed, 0x7])
    pick = rng.choice(len(eligible), size=min(STREAM_CHECK_SAMPLE, len(eligible)), replace=False)
    sampled = {eligible[x] for x in pick}
    worst = 0.0
    compared = 0
    for j, ((session, eye), ds) in enumerate(phases):
        ref = _offline_probs(params, stats, session, eye,
                             [ds[i][0] for jj, i in sampled if jj == j])
        for i, (t_end, p, _) in enumerate(ds):
            ok = math.isfinite(p) and 0.0 <= p <= 1.0
            if (j, i) in sampled:
                want = ref.get(round(t_end, 6))
                ok = ok and want is not None and abs(p - want) <= STREAM_MATCH_TOL
                if want is not None:
                    worst = max(worst, abs(p - want))
                    compared += 1
            checks.record(ok, f"decision feed {j} t_end {t_end}")
    return {"compared": compared, "worst_abs_diff": worst}


# ---------------------------------------------------------------------------
# end-to-end figures; each metric is (value, unit, sample count, meaning)
#
# The host's speed swings by up to 1.6x for seconds at a time. On 2 x 10
# runs per workload the steadiest figures were: medians over repeated
# passes or LOSO runs for the long units (ingest, train_loso), the fastest
# of thousands of ~2 ms pushes for the stream rate, and the best round of
# the open loop for its latencies.


def _ms(seconds) -> dict:
    return harness.summarize([1000.0 * x for x in seconds])


def setup_repeated(make):
    """Set up SETUP_REPEATS times; the median is setup_s, the last is used."""
    times = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = make(r)
        times.append(time.perf_counter() - t0)
    return state, {"setup_s": (statistics.median(times), "s", len(times),
                               "set-up: synth, files, model, warm-up")}


def ingest_e2e(work: Path, seed: int, seconds: int, checks: Checks):
    passes = max(1, round(seconds / INGEST_PASS_S))
    state, m = setup_repeated(lambda r: ingest_setup(work / f"setup{r}", seed, passes=passes))
    res = ingest_run(state, checks)
    # per session, its median pass
    per_session = {k: statistics.median(np.sum(v, axis=1)) for k, v in res["call_s"].items()}
    pass_s = statistics.median(np.sum([np.sum(v, axis=1) for v in res["call_s"].values()], axis=0))
    lat = _ms(per_session.values())
    m.update({
        "throughput_per_s": (sum(res["samples"].values()) / pass_s, "1/s", passes,
                             "ingest_samples_per_s, median pass"),
        "latency_p50_ms": (lat["p50"], "ms", lat["n"], "one session file to normalized windows"),
        "latency_tail_ms": (lat["tail"], "ms", lat["n"], f"p{lat['tail_p']:g} of the same"),
    })
    extra = {"pass_s": (pass_s, "s", passes, "one pass over every session, median")}
    return state.paths, m, {"extra_metrics": extra, "windows_per_session": res["counts"],
                            "call_s": {k: np.asarray(v).tolist() for k, v in res["call_s"].items()}}


def train_e2e(work: Path, seed: int, seconds: int, checks: Checks):
    n_runs = max(1, round(seconds / LOSO_RUN_S))
    state, m = setup_repeated(lambda r: train_setup(work / f"setup{r}", seed, runs=n_runs))
    runs = train_run(state, checks)
    # the runs repeat identical work: medians over runs, per fold
    step_s = statistics.median(sum(r["step_s"]) for r in runs)
    fold_s = np.median([r["fold_s"] for r in runs], axis=0)
    lat = _ms(fold_s)
    m.update({
        "throughput_per_s": (sum(runs[0]["batch"]) / step_s, "1/s", len(runs),
                             "train_windows_per_s, median run"),
        "latency_p50_ms": (lat["p50"], "ms", lat["n"], "one LOSO fold"),
        "latency_tail_ms": (lat["tail"], "ms", lat["n"], f"p{lat['tail_p']:g} of the same"),
    })
    extra = {"loso_s": (statistics.median(r["loso_s"] for r in runs), "s", len(runs),
                        "the whole LOSO run, median")}
    return state.paths, m, {"extra_metrics": extra, "runs": runs}


def _full_rounds(res: harness.OpenLoopResult, round_s: float) -> list:
    """Latency summaries of the open loop's rounds, leaving out the partial
    first and last ones (feeds warming up, schedule ending)."""
    rounds = [_ms(lat) for lat in res.decision_rounds(round_s)]
    most = max(r["n"] for r in rounds)
    return [r for r in rounds if r["n"] >= 0.9 * most]


def stream_e2e(work: Path, seed: int, seconds: int, checks: Checks):
    closed_n = int(seconds * CLOSED_SAMPLES_PER_S)
    open_s = seconds * OPEN_SHARE
    state, m = setup_repeated(lambda r: stream_setup(work / f"setup{r}", seed, closed_n, open_s))
    closed, opened = stream_run(state)
    detail = check_stream(state, closed, opened, checks)
    res = opened["result"]
    p50_round = min(_full_rounds(res, P50_ROUND_S), key=lambda r: r["p50"])
    tail_round = min(_full_rounds(res, TAIL_ROUND_S), key=lambda r: r["tail"])
    m.update({
        "throughput_per_s": (1.0 / min(closed.emit_s), "1/s", len(closed.emit_s),
                             "stream_decisions_per_s, at the fastest push"),
        "latency_p50_ms": (p50_round["p50"], "ms", p50_round["n"],
                           f"decision_p50_ms from due time, best {P50_ROUND_S:g} s round"),
        "latency_tail_ms": (tail_round["tail"], "ms", tail_round["n"],
                            f"decision_p{tail_round['tail_p']:g}_ms, best {TAIL_ROUND_S:g} s round"),
    })
    lat = _ms(res.decision_latency_s)
    n = lat["n"] + res.failed
    over = int((1000.0 * res.decision_latency_s > DECISION_LIMIT_MS).sum()) + res.failed
    extra = {
        "decisions_per_s.whole_run": (len(closed.emit_s) / sum(closed.emit_s), "1/s",
                                      len(closed.emit_s), "phase (a), all pushes"),
        "decision_p50_ms.whole_run": (lat["p50"], "ms", lat["n"], "phase (b), all rounds"),
        f"decision_p{lat['tail_p']:g}_ms.whole_run": (lat["tail"], "ms", lat["n"],
                                                      "phase (b), all rounds"),
        "decision_over_limit_frac": (over / max(n, 1), "ratio", n,
                                     "slower than one stride period, or failed"),
    }
    decided = [i for i, d in enumerate(res.decided) if d]
    return state.paths, m, {**detail, "extra_metrics": extra,
                            "open_loop_busy_frac": float((res.end - res.start).sum()) / res.wall_s,
                            "emit_push_s": closed.emit_s,
                            "decision_due_s": (res.due[decided] - res.t0).tolist(),
                            "decision_latency_s": res.decision_latency_s.tolist()}


E2E = {"ingest": ingest_e2e, "train_loso": train_e2e, "stream": stream_e2e}
