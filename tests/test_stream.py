import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import dataio, model, stream, synth, train
from gazeintent.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = synth.SynthConfig(n_subjects=3, session_len=10.0, seed=5)
    sessions = [synth.generate_session(cfg, i, "text") for i in range(3)]
    tcfg = train.TrainConfig(stride=12, batch_size=128, max_epochs=1)
    params, stats, _ = train.supervised_train(sessions, tcfg)
    ckpt = tmp_path_factory.mktemp("stream") / "ckpt"
    model.save_checkpoint(params, stats, ckpt)
    return params, stats, ckpt, sessions


def clean_sample(i, x=500.0, y=400.0):
    return dataio.GazeSample(t=i / 120, lx=x, ly=y, rx=x, ry=y, vx=10.0, vy=5.0)


def missing_sample(i):
    return dataio.GazeSample(t=i / 120, lx=None, ly=None, rx=None, ry=None,
                             vx=10.0, vy=5.0)


class TestWarmup:
    def test_no_decision_before_full_window(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        for i in range(23):
            assert engine.push(clean_sample(i)) is None
        assert engine.push(clean_sample(23)) is not None

    def test_stride_cadence(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=6)
        emitted = [i for i in range(60) if engine.push(clean_sample(i)) is not None]
        assert emitted == [23, 29, 35, 41, 47, 53, 59]

    def test_decision_fields(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        d = None
        for i in range(24):
            d = engine.push(clean_sample(i))
        assert d.label in dataio.LABELS
        assert 0.0 <= d.p_reading <= 1.0
        assert d.t_end == pytest.approx(23 / 120)


class TestDiagnostics:
    def test_decision_reports_missing_and_open_gap(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        for i in range(21):
            d = engine.push(clean_sample(i))
        for i in range(21, 24):
            d = engine.push(missing_sample(i))
        assert (d.n_missing, d.open_gap) == (3, True)
        d = engine.push(clean_sample(24))
        assert (d.n_missing, d.open_gap) == (3, False)
        for i in range(25, 49):
            d = engine.push(clean_sample(i))
        assert (d.n_missing, d.open_gap) == (0, False)

    def test_silent_pushes_counted_by_reason(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=6)
        assert engine.silent_counts() == {"warmup": 0, "stride": 0, "missing": 0}
        decided = 0
        for i in range(60):
            # the windows ending at samples 47 and 53 miss more than half
            s = missing_sample(i) if 30 <= i < 43 else clean_sample(i)
            decided += engine.push(s) is not None
        # emission points at 23, 29, ..., 59: seven, two of them silent
        assert decided == 5
        assert engine.silent_counts() == {"warmup": 23, "stride": 30, "missing": 2}
        engine.reset()
        assert engine.silent_counts() == {"warmup": 0, "stride": 0, "missing": 0}


class TestMissingness:
    def test_half_missing_emits_more_suppresses(self, trained):
        params, stats, _, _ = trained
        for n_missing, expect in ((12, True), (13, False)):
            engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
            d = None
            for i in range(24):
                s = missing_sample(i) if i < n_missing else clean_sample(i)
                d = engine.push(s)
            assert (d is not None) is expect, n_missing

    def test_recovers_once_gap_scrolls_out(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        decisions = []
        for i in range(80):
            s = missing_sample(i) if i < 20 else clean_sample(i)
            decisions.append(engine.push(s))
        assert decisions[23] is None
        assert decisions[-1] is not None

    def test_interior_gap_backfilled_linearly(self, trained):
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        for i in range(10):
            engine.push(clean_sample(i, x=100.0))
        for i in range(10, 14):
            engine.push(missing_sample(i))
        engine.push(clean_sample(14, x=200.0))
        # samples 10-13 sit at positions 19-22 of the window ending at sample 14
        np.testing.assert_allclose(engine._window()[0].g[0, 19:23],
                                   [120.0, 140.0, 160.0, 180.0])


class TestBatchEquivalence:
    def test_matches_offline_on_closed_gap_windows(self, trained):
        params, stats, _, sessions = trained
        session = sessions[0]
        offline = dataio.windowize(session, 1, "labeled", eye="left")
        offline_n = dataio.normalize(offline, stats)
        offline_p = {}
        for w, nw in zip(offline, offline_n):
            batch = {k: getattr(nw, k)[None].astype(np.float32)
                     for k in params.config.streams}
            offline_p[round(w.t_end, 6)] = model.predict_proba(params, batch)[0, 0]

        engine = stream.StreamingEngine(params, stats,
                                        session.meta.magnification,
                                        eye="left", stride=1)
        compared = 0
        for s in session.gaze:
            d = engine.push(s)
            if d is None or engine.has_open_gap():
                continue
            key = round(d.t_end, 6)
            if key in offline_p:
                assert abs(d.p_reading - offline_p[key]) <= 1e-6
                compared += 1
        assert compared > 500

    def test_open_gap_windows_use_nearest_fill(self, trained):
        # a still-open trailing gap is the documented divergence case:
        # the engine holds the last valid sample instead of interpolating
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        for i in range(23):
            engine.push(clean_sample(i, x=100.0 + i))
        engine.push(missing_sample(23))
        assert engine.has_open_gap()
        assert engine._window()[0].g[0, 23] == 122.0  # last valid x


@st.composite
def gappy_sessions(draw):
    """Sessions of 24..300 samples whose eyes drop out in bursts of up to 40
    samples, so that some gaps start before a window and close inside it. A
    burst blanks both coordinates of an eye, or x alone, or y alone."""
    W = dataio.WINDOW_LEN
    q = dataio.q9
    n = draw(st.integers(W, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meta = dataio.SessionMeta("S00", "text", draw(st.sampled_from([1.0, 1.5, 3.0])),
                              1000.0, 800.0)
    missing = np.zeros((4, n), dtype=bool)   # rows lx, ly, rx, ry
    for eye in range(2):
        for start, length, coords in draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(1, 40),
                st.sampled_from([[0, 1], [0], [1]])), max_size=6)):
            missing[[2 * eye + c for c in coords], start:start + length] = True
    walk = np.clip(np.cumsum(rng.normal(0, 20, size=(n, 4)), axis=0) + [500, 400, 500, 400],
                   0, [1000, 800, 1000, 800])
    vmax = (1 - 1 / meta.magnification) * np.array([1000.0, 800.0])
    gaze = []
    for i in range(n):
        lx, ly, rx, ry = (None if missing[k, i] else q(float(walk[i, k])) for k in range(4))
        gaze.append(dataio.GazeSample(t=q(i / dataio.GAZE_RATE), lx=lx, ly=ly, rx=rx, ry=ry,
                                      vx=q(rng.uniform(0, vmax[0])),
                                      vy=q(rng.uniform(0, vmax[1]))))
    labels = [dataio.LabelInterval(0.0, q(n / dataio.GAZE_RATE + 1.0), "reading")]
    return dataio.Session(meta, gaze, [], labels)


def _bytes(a):
    return a.dtype.str, a.shape, a.tobytes()


class TestOnePath:
    """The engine prepares windows with `windowize`'s gap fill and
    compensation, so stride-1 streaming reproduces the batch windows."""

    params = model.init_params(model.ModelConfig(), 0)
    stats = dataio.NormStats(1000.0, 800.0, {k: (np.zeros(2), np.ones(2)) for k in "gc"})

    @given(session=gappy_sessions(), eye=st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_stride1_windows_equal_windowize(self, session, eye):
        W = dataio.WINDOW_LEN
        batch = {w.t_end: w for w in dataio.windowize(session, 1, "labeled", eye=eye)}
        engine = stream.StreamingEngine(self.params, self.stats, session.meta.magnification,
                                        eye=eye, stride=1)
        emitted = []
        last_valid = last_idx = None
        for i, s in enumerate(session.gaze):
            xy = tuple(getattr(s, f) for f in dataio.eye_fields(eye))
            if None not in xy:
                last_valid, last_idx = xy, i
            if engine.push(s) is None:
                continue
            w = engine._window()[0]
            emitted.append(w.t_end)
            if engine.has_open_gap():
                gap = i - last_idx
                assert 0 < gap < W
                assert (w.g[:, W - gap:] == np.array(last_valid)[:, None]).all()
            else:
                assert last_idx == i
                assert _bytes(w.g) == _bytes(batch[w.t_end].g)
                assert _bytes(w.c) == _bytes(batch[w.t_end].c)
        assert emitted == list(batch)


class TestReset:
    def test_replay_is_identical(self, trained):
        params, stats, _, sessions = trained
        engine = stream.StreamingEngine(params, stats,
                                        sessions[0].meta.magnification, stride=6)
        first = [d.p_reading for s in sessions[0].gaze[:600]
                 if (d := engine.push(s)) is not None]
        engine.reset()
        second = [d.p_reading for s in sessions[0].gaze[:600]
                  if (d := engine.push(s)) is not None]
        assert first == second
        assert len(first) > 0


class TestValidation:
    def test_velocity_head_rejected(self, trained):
        _, stats, _, _ = trained
        p = model.init_params(model.ModelConfig(), 0,
                              head_kind=model.VELOCITY_HEAD)
        with pytest.raises(ConfigError, match="classifier"):
            stream.StreamingEngine(p, stats, 2.0)

    def test_mouse_mode_rejected(self, trained):
        _, stats, _, _ = trained
        p = model.init_params(model.ModelConfig(input_mode="mouse_gaze_comp"), 0)
        with pytest.raises(ConfigError, match="gaze-only"):
            stream.StreamingEngine(p, stats, 2.0)

    def test_bad_engine_args(self, trained):
        params, stats, _, _ = trained
        with pytest.raises(ConfigError):
            stream.StreamingEngine(params, stats, 0.5)
        with pytest.raises(ConfigError):
            stream.StreamingEngine(params, stats, 2.0, eye="middle")
        with pytest.raises(ConfigError):
            stream.StreamingEngine(params, stats, 2.0, stride=0)

    def test_eye_checked_where_it_is_set(self, trained):
        # the right eye is missing throughout: an eye read as the right one
        # would leave the engine silent instead of failing
        params, stats, _, _ = trained
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        engine.eye = "Left"
        with pytest.raises(ConfigError, match="eye must be 'left' or 'right', got 'Left'"):
            engine.push(dataio.GazeSample(t=0.0, lx=500.0, ly=400.0, rx=None, ry=None,
                                          vx=10.0, vy=5.0))
        assert engine.count == 0

    def test_checkpoint_without_stats_rejected(self, trained, tmp_path):
        # every checkpoint carries stats: a manifest whose stats are null is malformed
        params, stats, _, _ = trained
        model.save_checkpoint(params, stats, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "stats": None}))
        with pytest.raises(DataError, match="malformed checkpoint manifest: stats must be an "
                                            "object, got None"):
            stream.StreamingEngine.from_checkpoint(tmp_path / "ckpt", 2.0)

    def test_non_finite_decision_rejected(self, trained):
        # a std > 0 so small that the normalized window overflows float32
        params, stats, _, _ = trained
        channels = {**stats.channels, "g": (stats.channels["g"][0], np.full(2, 1e-300))}
        tiny = dataio.NormStats(stats.screen_w, stats.screen_h, channels)
        engine = stream.StreamingEngine(params, tiny, 2.0, stride=1)
        for i in range(23):
            engine.push(clean_sample(i))
        with pytest.raises(DataError, match="t=0.19"):
            engine.push(clean_sample(23))

    def test_non_finite_probabilities_rejected(self, trained):
        # finite inputs, but a non-finite weight (the loader rejects one on disk)
        params, stats, _, _ = trained
        params = params.copy()
        params.tensors["head.b"].data[0] = np.nan
        engine = stream.StreamingEngine(params, stats, 2.0, stride=1)
        for i in range(23):
            engine.push(clean_sample(i))
        with pytest.raises(DataError, match="t=0.19.*non-finite probabilities"):
            engine.push(clean_sample(23))

    def test_from_checkpoint_round_trip(self, trained):
        params, _, ckpt, _ = trained
        engine = stream.StreamingEngine.from_checkpoint(ckpt, 2.0, stride=3)
        assert engine.stride == 3
        assert engine.params.checksum() == params.checksum()
