"""Seeded simulator of magnified-reading sessions.

Content-space gaze is a fixation/saccade staircase along text lines
(reading) or a sequence of large erratic jumps (scanning). The mouse
drags the viewport to keep gaze in a preferred region; physical gaze is
the content point seen through the magnifier plus tracker noise.
Behavioral defaults are loosely anchored to classical reading
psychophysics and are config-exposed, not dataset claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np

from gazeintent.dataio import (
    GAZE_RATE,
    MOUSE_RATE,
    GazeColumns,
    LabelInterval,
    MouseColumns,
    Session,
    SessionMeta,
    check_fields,
    format_rows,
    q9,
    write_session,
)
from gazeintent.errors import ConfigError, DataError

DAY_S = 86400.0


@dataclass
class SynthConfig:
    seed: int = 0
    n_subjects: int = 8
    session_len: float = 60.0        # seconds
    magnification: float = 2.0
    screen_w: float = 1920.0
    screen_h: float = 1080.0
    fixation_ms_mean: float = 220.0  # reading fixation duration
    fixation_ms_std: float = 60.0
    saccade_px_mean: float = 35.0    # content px, rightward reading saccades
    saccade_px_std: float = 10.0
    scan_jump_px: float = 280.0      # scale of scanning jumps
    tracker_noise_px: float = 3.0
    dropout_burst_rate: float = 0.25   # bursts per second per eye
    dropout_burst_len_ms: float = 60.0
    read_seg_s: float = 4.5          # mean reading segment length
    scan_seg_s: float = 1.5          # mean scanning segment length
    line_height_px: float = 30.0
    margin_px: float = 80.0
    columns: int = 1                 # 2 for webpage-style layouts
    viewport_gain: float = 0.08      # per-sample viewport tracking rate
    mouse_gain: float = 0.05         # per-sample cursor smoothing rate

    def __post_init__(self):
        # a day caps durations (webpages scale scan segments by 1.5); a gain above 1 overshoots
        check_fields(self, seed=0, n_subjects=1, session_len=(1.0, DAY_S), magnification=1,
                     columns=1, fixation_ms_std=0, saccade_px_std=0, tracker_noise_px=0,
                     read_seg_s=(0, DAY_S), scan_seg_s=(0, DAY_S), viewport_gain=(0, 1),
                     mouse_gain=(0, 1), dropout_burst_len_ms=(0, 1000 * DAY_S))
        for name in ("fixation_ms_mean", "saccade_px_mean", "scan_jump_px",
                     "read_seg_s", "scan_seg_s", "screen_w", "screen_h"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= 2 * self.margin_px < min(self.screen_w, self.screen_h):
            raise ConfigError("margin_px must be >= 0 and leave room on the screen")


def _segments(cfg: SynthConfig, rng) -> list:
    """Alternating reading/scanning segments tiling the session."""
    segs = []
    t = 0.0
    kind = "reading"
    while t < cfg.session_len:
        mean = cfg.read_seg_s if kind == "reading" else cfg.scan_seg_s
        dur = max(0.5, rng.normal(mean, 0.3 * mean))
        end = min(t + dur, cfg.session_len)
        segs.append(LabelInterval(t, end, kind))
        t = end
        kind = "scanning" if kind == "reading" else "reading"
    return segs


def _content_path(cfg: SynthConfig, segs, n, rng) -> np.ndarray:
    """Content-space gaze trajectory, one point per 120 Hz sample."""
    w, h = cfg.screen_w, cfg.screen_h
    col_w = (w - 2 * cfg.margin_px) / cfg.columns
    col = 0

    def line_bounds(column):
        x0 = cfg.margin_px + column * col_w
        return x0 + 5.0, x0 + col_w - 5.0

    x0, x1 = line_bounds(col)
    pos = np.empty((2, n))
    x, y = x0, cfg.margin_px
    kinds = np.empty(n, dtype=object)
    for seg in segs:
        i0 = int(round(seg.start * GAZE_RATE))
        i1 = min(int(round(seg.end * GAZE_RATE)), n)
        kinds[i0:i1] = seg.label

    i = 0
    while i < n:
        reading = kinds[i] == "reading"
        if reading:
            dur_ms = max(50.0, rng.normal(cfg.fixation_ms_mean, cfg.fixation_ms_std))
        else:
            dur_ms = max(30.0, rng.normal(0.5 * cfg.fixation_ms_mean, 0.5 * cfg.fixation_ms_std))
        hold = max(1, int(round(dur_ms / 1000.0 * GAZE_RATE)))
        j = min(i + hold, n)
        pos[0, i:j] = x
        pos[1, i:j] = y
        i = j
        if i >= n:
            break
        if kinds[i] == "reading":
            x += max(5.0, rng.normal(cfg.saccade_px_mean, cfg.saccade_px_std))
            y += rng.normal(0.0, 1.5)
            if x > x1:
                # return sweep to the next line (or next column / page top)
                y += cfg.line_height_px
                if y > h - cfg.margin_px:
                    col = (col + 1) % cfg.columns
                    y = cfg.margin_px
                x0, x1 = line_bounds(col)
                x = x0 + abs(rng.normal(0.0, 5.0))
            y = min(max(y, 0.0), h)
        else:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            mag = abs(rng.normal(cfg.scan_jump_px, 0.3 * cfg.scan_jump_px))
            x = min(max(x + mag * math.cos(ang), 0.0), w)
            y = min(max(y + mag * math.sin(ang), 0.0), h)
    return pos


def _q9(a: np.ndarray, hi=()) -> np.ndarray:
    """The (k, n) block `a` as a session file stores it (its `format_rows`
    text, parsed back); a value of row i that rounds above `hi[i]` takes the
    largest 9-digit value below it, which the session file's range checks accept."""
    values = (float(f) for text in format_rows(a) for f in text[:-1].replace("\n", ",").split(","))
    out = np.fromiter(values, np.float64, a.size).reshape(a.shape[::-1]).T.copy()
    for row, bound in zip(out, hi):
        d = Decimal(bound)
        row[row > bound] = float(d.quantize(Decimal(1).scaleb(d.adjusted() - 8), ROUND_FLOOR))
    return out


def _follow(targets: np.ndarray, gain: float) -> np.ndarray:
    """A first-order follower of each row of `targets`, starting at the row's
    first target: v[i] = v[i-1] + gain * (targets[i] - v[i-1]). Each row is
    one plain float recurrence, so there is no numpy call per sample."""
    out = np.empty_like(targets)
    for row, series in zip(out, targets.tolist()):
        v = series[0]
        path = []
        for t in series:
            v = v + gain * (t - v)
            path.append(v)
        row[:] = path
    return out


def generate_session(cfg: SynthConfig, subject_idx: int, task: str = "text") -> Session:
    if task == "webpage" and cfg.columns == 1:
        cfg = replace(cfg, columns=2,
                      read_seg_s=0.6 * cfg.read_seg_s,
                      scan_seg_s=1.5 * cfg.scan_seg_s)
    rng = np.random.default_rng([cfg.seed, subject_idx, 0 if task == "text" else 1])
    n = int(round(cfg.session_len * GAZE_RATE))
    w, h, m = cfg.screen_w, cfg.screen_h, cfg.magnification

    segs = _segments(cfg, rng)
    content = _content_path(cfg, segs, n, rng)

    # viewport follows gaze with a preferred region at the lens center
    vmax = np.array([w * (1 - 1 / m), h * (1 - 1 / m)])
    center = np.array([w / (2 * m), h / (2 * m)])
    viewport = _follow(np.clip(content - center[:, None], 0.0, vmax[:, None]), cfg.viewport_gain)

    # physical gaze through the lens; cursor is a smoothed pursuit of it
    phys_clean = np.clip((content - viewport) * m, [[0.0], [0.0]], [[w], [h]])
    mouse_path = _follow(phys_clean, cfg.mouse_gain)

    def noisy_eye():
        e = phys_clean + rng.normal(0.0, cfg.tracker_noise_px, size=(2, n))
        return np.clip(e, [[0.0], [0.0]], [[w], [h]])

    left = noisy_eye()
    right = noisy_eye()

    def dropout_mask():
        mask = np.zeros(n, dtype=bool)
        p_start = cfg.dropout_burst_rate / GAZE_RATE
        mean_len = max(1.0, cfg.dropout_burst_len_ms / 1000.0 * GAZE_RATE)
        starts = rng.random(n) < p_start
        for i in np.flatnonzero(starts):
            length = rng.geometric(1.0 / mean_len)
            mask[i:i + length] = True
        return mask

    left_missing = dropout_mask()
    right_missing = dropout_mask()

    meta = SessionMeta(subject_id=f"S{subject_idx:02d}", task=task,
                       magnification=m, screen_w=w, screen_h=h)
    eyes = _q9(np.concatenate([left, right]), [w, h, w, h])
    eyes[0:2, left_missing] = np.nan
    eyes[2:4, right_missing] = np.nan
    gaze = GazeColumns(np.concatenate([_q9((np.arange(n) / GAZE_RATE)[None]), eyes,
                                       _q9(viewport, vmax)]))
    step = GAZE_RATE // MOUSE_RATE
    idx = np.arange(0, n, step)
    mouse = MouseColumns(_q9(np.concatenate([(idx / GAZE_RATE)[None], mouse_path[:, idx]])))
    labels = [LabelInterval(q9(s.start), q9(s.end), s.label) for s in segs]
    return Session(meta, gaze, mouse, labels)


def generate_dataset(cfg: SynthConfig, out_dir) -> list:
    """One session file per subject x {text, webpage} in the existing
    directory `out_dir`; returns written paths."""
    paths = []
    for subject_idx in range(cfg.n_subjects):
        for task in ("text", "webpage"):
            session = generate_session(cfg, subject_idx, task)
            path = Path(out_dir, f"{session.meta.subject_id}_{task}.session")
            try:
                write_session(session, path)
            except OSError as e:
                raise DataError(f"cannot write {path}: {e}") from e
            paths.append(path)
    return paths
