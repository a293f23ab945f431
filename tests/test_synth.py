import io
from dataclasses import fields
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest

from gazeintent import dataio, synth
from gazeintent.errors import ConfigError, DataError
from test_dataio import assert_writes_like_reference, label_at


def short_cfg(**kw):
    kw.setdefault("session_len", 20.0)
    return synth.SynthConfig(**kw)


def mouse_speeds_by_label(session):
    """Per-interval mean cursor speed, split into (reading, scanning) pools."""
    mt = np.array([m.t for m in session.mouse])
    sp = np.hypot(np.diff([m.mx for m in session.mouse]),
                  np.diff([m.my for m in session.mouse])) / np.diff(mt)
    mid = (mt[:-1] + mt[1:]) / 2
    read, scan = [], []
    for iv in session.labels:
        sel = (mid >= iv.start) & (mid < iv.end)
        (read if iv.label == "reading" else scan).extend(sp[sel])
    return read, scan


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            dataio.write_session(
                synth.generate_session(short_cfg(seed=7), 2, "text"),
                tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_different_seed_differs(self):
        a = synth.generate_session(short_cfg(seed=0), 0, "text")
        b = synth.generate_session(short_cfg(seed=1), 0, "text")
        assert a.gaze != b.gaze

    def test_subjects_and_tasks_differ(self):
        base = synth.generate_session(short_cfg(), 0, "text")
        assert synth.generate_session(short_cfg(), 1, "text").gaze != base.gaze
        assert synth.generate_session(short_cfg(), 0, "webpage").gaze != base.gaze

    def test_dataset_layout(self, tmp_path):
        paths = synth.generate_dataset(short_cfg(n_subjects=2, session_len=5.0),
                                       tmp_path)
        assert [p.name for p in paths] == [
            "S00_text.session", "S00_webpage.session",
            "S01_text.session", "S01_webpage.session"]
        for p in paths:
            session = dataio.parse_session(p)  # validates on parse
            assert session.labels[0].start == 0.0
            assert session.labels[-1].end == pytest.approx(5.0)


class TestContracts:
    def test_output_parses_cleanly(self, tmp_path):
        session = synth.generate_session(short_cfg(), 0, "text")
        p = tmp_path / "s.session"
        dataio.write_session(session, p)
        back = dataio.parse_session(p)
        assert back.gaze == session.gaze
        assert back.labels == session.labels

    def test_sample_counts(self):
        session = synth.generate_session(short_cfg(session_len=10.0), 0, "text")
        assert len(session.gaze) == 10 * dataio.GAZE_RATE
        assert len(session.mouse) == 10 * dataio.MOUSE_RATE
        assert session.labels[0].label == "reading"

    def test_mouse_faster_during_scanning(self):
        # behavioral contract, aggregated to tame per-session variance
        read, scan = [], []
        for seed in range(20):
            r, s = mouse_speeds_by_label(
                synth.generate_session(short_cfg(seed=seed), 0, "text"))
            read.extend(r)
            scan.extend(s)
        assert np.mean(scan) > 2.0 * np.mean(read)

    def test_reading_majority_of_time(self):
        fracs = []
        for seed in range(20):
            session = synth.generate_session(short_cfg(seed=seed), 0, "text")
            total = sum(iv.end - iv.start for iv in session.labels)
            rd = sum(iv.end - iv.start for iv in session.labels
                     if iv.label == "reading")
            fracs.append(rd / total)
        assert 0.65 <= np.mean(fracs) <= 0.85

    def test_missing_rate_tracks_config(self):
        # expected fraction = burst rate x mean burst length / sample rate
        cfg0 = short_cfg()
        expected = (cfg0.dropout_burst_rate
                    * (cfg0.dropout_burst_len_ms / 1000.0 * dataio.GAZE_RATE)
                    / dataio.GAZE_RATE)
        fracs = []
        for seed in range(20):
            session = synth.generate_session(short_cfg(seed=seed), 0, "text")
            n = len(session.gaze)
            miss = sum(1 for g in session.gaze if g.lx is None)
            miss += sum(1 for g in session.gaze if g.rx is None)
            fracs.append(miss / (2 * n))
        assert np.mean(fracs) == pytest.approx(expected, rel=0.20)

    def test_reading_sweeps_back_left(self):
        # compensated gaze during reading is a sawtooth: many small rightward
        # steps, occasional large leftward return sweeps
        session = synth.generate_session(short_cfg(seed=3), 0, "text")
        m = session.meta.magnification
        cx = np.array([g.vx + (g.lx if g.lx is not None else g.rx or 0.0) / m
                       for g in session.gaze])
        t = np.array([g.t for g in session.gaze])
        labels = np.array([label_at(session.labels, ti) for ti in t])
        dx = np.diff(cx)[labels[:-1] == dataio.READING]
        moves = dx[np.abs(dx) > 10.0]  # above the tracker-noise floor
        assert (moves > 0).mean() > 0.6
        assert moves.min() < -100.0  # at least one return sweep

    def test_no_magnification_pins_viewport(self):
        session = synth.generate_session(short_cfg(magnification=1.0), 0, "text")
        assert all(g.vx == 0.0 and g.vy == 0.0 for g in session.gaze)

    def test_coordinates_stay_on_screen(self):
        session = synth.generate_session(short_cfg(seed=5), 0, "webpage")
        w, h = session.meta.screen_w, session.meta.screen_h
        for g in session.gaze:
            for c, dim in ((g.lx, w), (g.ly, h), (g.rx, w), (g.ry, h)):
                assert c is None or 0.0 <= c <= dim

    @pytest.mark.parametrize("kw", [{"magnification": 2.2}, {"screen_w": 1920.123456789}])
    def test_coordinates_at_a_bound_survive_quantization(self, tmp_path, kw):
        # a viewport or gaze coordinate clipped to a bound of more than 9
        # significant digits must not round above it in the file
        for task in ("text", "webpage"):
            session = synth.generate_session(short_cfg(session_len=10.0, **kw), 0, task)
            dataio.write_session(session, tmp_path / "s.session")
            assert dataio.parse_session(tmp_path / "s.session").gaze == session.gaze

    def test_webpage_uses_shorter_reading_segments(self):
        reads = {"text": [], "webpage": []}
        for seed in range(10):
            for task in ("text", "webpage"):
                session = synth.generate_session(short_cfg(seed=seed), 0, task)
                reads[task].extend(iv.end - iv.start for iv in session.labels
                                   if iv.label == "reading")
        assert np.mean(reads["webpage"]) < np.mean(reads["text"])


class TestValidation:
    def test_bad_magnification(self):
        with pytest.raises(ConfigError):
            synth.generate_session(short_cfg(magnification=0.9), 0)

    def test_too_short_session(self):
        with pytest.raises(ConfigError):
            synth.generate_session(short_cfg(session_len=0.5), 0)

    @pytest.mark.parametrize("kw", [
        {"session_len": 1e9}, {"n_subjects": 0}, {"dropout_burst_len_ms": 1e300},
        {"dropout_burst_rate": -3.0}, {"screen_w": 160.0}, {"screen_h": 100.0},
        {"screen_w": -1920.0}, {"screen_h": float("nan")}, {"seed": -1},
        {"dropout_burst_rate": float("inf")}])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ConfigError):
            short_cfg(**kw)

    def test_smallest_screen_past_twice_the_margin(self):
        # a webpage column must also hold its two 5 px line insets: 2 x 80 + 2 x 2 x 5 px
        assert synth.MIN_SCREEN_W == 180.0
        with pytest.raises(ConfigError, match="screen_w must exceed 180 px: .* line inset"):
            short_cfg(screen_w=180.0, screen_h=161.0)
        session = synth.generate_session(short_cfg(screen_w=181.0, screen_h=161.0), 0, "webpage")
        assert (session.meta.screen_w, session.meta.screen_h) == (181.0, 161.0)

    def test_unknown_task(self):
        with pytest.raises(DataError, match="unknown task 'poster'"):
            synth.generate_session(short_cfg(), 0, "poster")

    def test_config_sets_runs_magnification_screen_and_dropout_only(self):
        assert [f.name for f in fields(synth.SynthConfig)] == [
            "seed", "n_subjects", "session_len", "magnification", "screen_w", "screen_h",
            "dropout_burst_rate", "dropout_burst_len_ms"]

    def test_webpage_layout_scales_the_text_layout(self):
        # 0.6 x the mean reading and 1.5 x the mean scanning segment of text, as float products
        text = synth.LAYOUTS["text"]
        assert synth.LAYOUTS["webpage"] == (2, 0.6 * text.read_seg_s, 1.5 * text.scan_seg_s)


# ---------------------------------------------------------------------------
# generator against the per-sample reference


def reference_session(cfg, subject_idx, task="text"):
    """`generate_session` with the per-sample viewport and cursor loops on
    2-vectors and the per-value `q9` that the scalar followers and
    `format_rows` replaced: the same draws in the same order."""
    layout = synth.LAYOUTS[task]
    rng = np.random.default_rng([cfg.seed, subject_idx, 0 if task == "text" else 1])
    n = int(round(cfg.session_len * dataio.GAZE_RATE))
    w, h, m = cfg.screen_w, cfg.screen_h, cfg.magnification
    segs = synth._segments(cfg, layout, rng)
    content = synth._content_path(cfg, layout, segs, n, rng)

    vmax = np.array([w * (1 - 1 / m), h * (1 - 1 / m)])
    center = np.array([w / (2 * m), h / (2 * m)])
    viewport = np.empty((2, n))
    v = np.clip(content[:, 0] - center, 0.0, vmax)
    for i in range(n):
        target = np.clip(content[:, i] - center, 0.0, vmax)
        v = v + synth.VIEWPORT_GAIN * (target - v)
        viewport[:, i] = v

    phys_clean = np.clip((content - viewport) * m, [[0.0], [0.0]], [[w], [h]])
    mouse_path = np.empty((2, n))
    mp = phys_clean[:, 0].copy()
    for i in range(n):
        mp = mp + synth.MOUSE_GAIN * (phys_clean[:, i] - mp)
        mouse_path[:, i] = mp

    def noisy_eye():
        e = phys_clean + rng.normal(0.0, synth.TRACKER_NOISE_PX, size=(2, n))
        return np.clip(e, [[0.0], [0.0]], [[w], [h]])

    left, right = noisy_eye(), noisy_eye()

    def dropout_mask():
        mask = np.zeros(n, dtype=bool)
        mean_len = max(1.0, cfg.dropout_burst_len_ms / 1000.0 * dataio.GAZE_RATE)
        for i in np.flatnonzero(rng.random(n) < cfg.dropout_burst_rate / dataio.GAZE_RATE):
            mask[i:i + rng.geometric(1.0 / mean_len)] = True
        return mask

    left_missing, right_missing = dropout_mask(), dropout_mask()

    def q9_block(a, hi=()):
        out = np.array([float(f"{v:.9g}") for v in a.ravel().tolist()]).reshape(a.shape)
        for row, bound in zip(out, hi):
            d = Decimal(bound)
            row[row > bound] = float(d.quantize(Decimal(1).scaleb(d.adjusted() - 8), ROUND_FLOOR))
        return out

    meta = dataio.SessionMeta(subject_id=f"S{subject_idx:02d}", task=task,
                              magnification=m, screen_w=w, screen_h=h)
    eyes = q9_block(np.concatenate([left, right]), [w, h, w, h])
    eyes[0:2, left_missing] = np.nan
    eyes[2:4, right_missing] = np.nan
    gaze = dataio.GazeColumns(np.concatenate([q9_block(np.arange(n) / dataio.GAZE_RATE)[None],
                                              eyes, q9_block(viewport, vmax)]))
    idx = np.arange(0, n, dataio.GAZE_RATE // dataio.MOUSE_RATE)
    mouse = dataio.MouseColumns(q9_block(np.concatenate([(idx / dataio.GAZE_RATE)[None],
                                                         mouse_path[:, idx]])))
    labels = [dataio.LabelInterval(dataio.q9(s.start), dataio.q9(s.end), s.label) for s in segs]
    return dataio.Session(meta, gaze, mouse, labels)


ORACLE_CASES = {
    "text": ({}, "text"),
    "webpage": ({}, "webpage"),
    "pinned_viewport": ({"magnification": 1.0}, "text"),
    "magnification_4": ({"magnification": 4.0}, "webpage"),
    "heavy_dropout": ({"dropout_burst_rate": 3.0, "dropout_burst_len_ms": 400.0}, "text"),
    "one_second": ({"session_len": 1.0}, "webpage"),
    "at_screen_bound": ({"magnification": 2.2, "screen_w": 1920.123456789}, "text"),
    # gaze and cursor coordinates of 1e9 px and more, which q9 takes through the text
    "giga_screen": ({"screen_w": 2e9, "magnification": 1e9}, "webpage"),
}


class TestAgainstPerSampleReference:
    """Arrays and file bytes equal those of the per-sample generator and the
    row-by-row writer (20 s sessions span two PARSE_ROWS chunks)."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_arrays_and_bytes(self, tmp_path, case):
        kw, task = ORACLE_CASES[case]
        cfg = short_cfg(seed=3, **kw)
        got = synth.generate_session(cfg, 1, task)
        want = reference_session(cfg, 1, task)
        for cols in ("gaze", "mouse"):
            a, b = getattr(got, cols).data, getattr(want, cols).data
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), cols
        assert got.labels == want.labels and got.meta == want.meta
        assert_writes_like_reference(got, tmp_path)

    @pytest.mark.parametrize("gain", [0.05, 0.08, 0.5, 1.0, 0])
    def test_follower_equals_per_sample_loop(self, gain):
        # unquantized, so a change of operation order shows in the last bit
        targets = np.random.default_rng(5).normal(500.0, 300.0, (2, 3000))
        want = np.empty_like(targets)
        v = targets[:, 0].copy()
        for i in range(targets.shape[1]):
            v = v + gain * (targets[:, i] - v)
            want[:, i] = v
        assert synth._follow(targets, gain).tobytes() == want.tobytes()

    def test_case_coverage(self):
        heavy = synth.generate_session(short_cfg(seed=3, **ORACLE_CASES["heavy_dropout"][0]), 1)
        assert np.isnan(heavy.gaze.lx).mean() > 0.5
        pinned = synth.generate_session(short_cfg(seed=3, magnification=1.0), 1)
        assert not pinned.gaze.vx.any() and not pinned.gaze.vy.any()
        # values clipped to a bound of more than 9 digits take the clamp below
        # it: screen_w 1920.123456789 and vmax_x 1047.3400673394544
        at_bound = synth.generate_session(short_cfg(seed=3, **ORACLE_CASES["at_screen_bound"][0]), 1)
        assert (at_bound.gaze.lx == 1920.12345).any() or (at_bound.gaze.rx == 1920.12345).any()
        assert (at_bound.gaze.vx == 1047.34006).any()
        giga = synth.generate_session(short_cfg(seed=3, **ORACLE_CASES["giga_screen"][0]), 1,
                                      "webpage")
        assert (giga.gaze.lx >= 1e9).sum() > 100 and (giga.mouse.mx >= 1e9).sum() > 10
        assert (giga.gaze.lx[giga.gaze.lx < 2e9] >= 1e9).any()

    def test_empty_mouse_and_no_labels(self, tmp_path):
        session = synth.generate_session(short_cfg(session_len=1.0), 0)
        session.mouse = []
        session.labels = []
        assert_writes_like_reference(session, tmp_path)
        text = (tmp_path / "block.session").read_text()
        assert text.endswith("\n#mouse\nt,mx,my\n#labels\nstart,end,label\n")
        assert "\n\n" not in text
