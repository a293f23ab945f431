"""Seeded simulator of magnified-reading sessions.

Content-space gaze is a fixation/saccade staircase along text lines
(reading) or a sequence of large erratic jumps (scanning). The mouse
drags the viewport to keep gaze in a preferred region; physical gaze is
the content point seen through the magnifier plus tracker noise.
The reader is fixed: module constants, loosely anchored to classical
reading psychophysics (not dataset claims), and one LAYOUTS row per task.
A `SynthConfig` sets only the runs, magnification, screen and dropout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
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
    q9,
    write_session,
)
from gazeintent.errors import ConfigError

DAY_S = 86400.0            # caps a session and a dropout burst
FIXATION_MS_MEAN = 220.0   # reading fixation duration
FIXATION_MS_STD = 60.0
SACCADE_PX_MEAN = 35.0     # content px, rightward reading saccades
SACCADE_PX_STD = 10.0
SCAN_JUMP_PX = 280.0       # scale of scanning jumps
TRACKER_NOISE_PX = 3.0
LINE_HEIGHT_PX = 30.0
MARGIN_PX = 80.0
LINE_INSET_PX = 5.0        # a text line starts and ends this far inside its column
VIEWPORT_GAIN = 0.08       # per-sample viewport tracking rate
MOUSE_GAIN = 0.05          # per-sample cursor smoothing rate

# a task's page: text columns, and mean reading and scanning segment lengths (s)
Layout = namedtuple("Layout", "columns read_seg_s scan_seg_s")
LAYOUTS = {"text": Layout(1, 4.5, 1.5), "webpage": Layout(2, 0.6 * 4.5, 1.5 * 1.5)}
# narrower, a column has no room for a line between its insets: every reading
# saccade would sweep to the next line
MIN_SCREEN_W = 2 * MARGIN_PX + 2 * LINE_INSET_PX * max(lay.columns for lay in LAYOUTS.values())


@dataclass
class SynthConfig:
    seed: int = 0
    n_subjects: int = 8
    session_len: float = 60.0        # seconds
    magnification: float = 2.0
    screen_w: float = 1920.0
    screen_h: float = 1080.0
    dropout_burst_rate: float = 0.25   # bursts per second per eye
    dropout_burst_len_ms: float = 60.0

    def __post_init__(self):
        check_fields(self, seed=0, n_subjects=1, session_len=(1.0, DAY_S), magnification=1,
                     dropout_burst_rate=0, dropout_burst_len_ms=(0, 1000 * DAY_S))
        if self.screen_h <= 2 * MARGIN_PX:
            raise ConfigError(f"screen_h must exceed twice the {MARGIN_PX:g} px margin, "
                              f"got {self.screen_h!r}")
        if self.screen_w <= MIN_SCREEN_W:
            raise ConfigError(f"screen_w must exceed {MIN_SCREEN_W:g} px: twice the {MARGIN_PX:g} px "
                              f"margin plus a line inset of {LINE_INSET_PX:g} px on each side of "
                              f"each column, got {self.screen_w!r}")


def _segments(cfg: SynthConfig, layout: Layout, rng) -> list:
    """Alternating reading/scanning segments tiling the session."""
    segs = []
    t = 0.0
    kind = "reading"
    while t < cfg.session_len:
        mean = layout.read_seg_s if kind == "reading" else layout.scan_seg_s
        dur = max(0.5, rng.normal(mean, 0.3 * mean))
        end = min(t + dur, cfg.session_len)
        segs.append(LabelInterval(t, end, kind))
        t = end
        kind = "scanning" if kind == "reading" else "reading"
    return segs


def _content_path(cfg: SynthConfig, layout: Layout, segs, n, rng) -> np.ndarray:
    """Content-space gaze trajectory, one point per 120 Hz sample."""
    w, h = cfg.screen_w, cfg.screen_h
    col_w = (w - 2 * MARGIN_PX) / layout.columns
    col = 0

    def line_bounds(column):
        x0 = MARGIN_PX + column * col_w
        return x0 + LINE_INSET_PX, x0 + col_w - LINE_INSET_PX

    x0, x1 = line_bounds(col)
    pos = np.empty((2, n))
    x, y = x0, MARGIN_PX
    kinds = np.empty(n, dtype=object)
    for seg in segs:
        i0 = int(round(seg.start * GAZE_RATE))
        i1 = min(int(round(seg.end * GAZE_RATE)), n)
        kinds[i0:i1] = seg.label

    i = 0
    while i < n:
        if kinds[i] == "reading":
            dur_ms = max(50.0, rng.normal(FIXATION_MS_MEAN, FIXATION_MS_STD))
        else:
            dur_ms = max(30.0, rng.normal(0.5 * FIXATION_MS_MEAN, 0.5 * FIXATION_MS_STD))
        hold = max(1, int(round(dur_ms / 1000.0 * GAZE_RATE)))
        j = min(i + hold, n)
        pos[0, i:j] = x
        pos[1, i:j] = y
        i = j
        if i >= n:
            break
        if kinds[i] == "reading":
            x += max(5.0, rng.normal(SACCADE_PX_MEAN, SACCADE_PX_STD))
            y += rng.normal(0.0, 1.5)
            if x > x1:
                # return sweep to the next line (or next column / page top)
                y += LINE_HEIGHT_PX
                if y > h - MARGIN_PX:
                    col = (col + 1) % layout.columns
                    y = MARGIN_PX
                x0, x1 = line_bounds(col)
                x = x0 + abs(rng.normal(0.0, 5.0))
            y = min(max(y, 0.0), h)
        else:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            mag = abs(rng.normal(SCAN_JUMP_PX, 0.3 * SCAN_JUMP_PX))
            x = min(max(x + mag * math.cos(ang), 0.0), w)
            y = min(max(y + mag * math.sin(ang), 0.0), h)
    return pos


def _q9(a: np.ndarray, hi=()) -> np.ndarray:
    """`q9` of the (k, n) block `a`, the values its session file holds; a
    value of row i that rounds above `hi[i]` takes the largest 9-digit value
    below it, which the session file's range checks accept."""
    out = q9(a)
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
    w, h, m = cfg.screen_w, cfg.screen_h, cfg.magnification
    # built first: an unknown task raises DataError here, before the layout lookup
    meta = SessionMeta(subject_id=f"S{subject_idx:02d}", task=task,
                       magnification=m, screen_w=w, screen_h=h)
    layout = LAYOUTS[task]
    rng = np.random.default_rng([cfg.seed, subject_idx, 0 if task == "text" else 1])
    n = int(round(cfg.session_len * GAZE_RATE))

    segs = _segments(cfg, layout, rng)
    content = _content_path(cfg, layout, segs, n, rng)

    # viewport follows gaze with a preferred region at the lens center
    vmax = np.array([w * (1 - 1 / m), h * (1 - 1 / m)])
    center = np.array([w / (2 * m), h / (2 * m)])
    viewport = _follow(np.clip(content - center[:, None], 0.0, vmax[:, None]), VIEWPORT_GAIN)

    # physical gaze through the lens; cursor is a smoothed pursuit of it
    # the clip maps a product past the float range (a huge magnification) to the screen bound
    with np.errstate(over="ignore"):
        phys_clean = np.clip((content - viewport) * m, [[0.0], [0.0]], [[w], [h]])
    mouse_path = _follow(phys_clean, MOUSE_GAIN)

    def noisy_eye():
        e = phys_clean + rng.normal(0.0, TRACKER_NOISE_PX, size=(2, n))
        return np.clip(e, [[0.0], [0.0]], [[w], [h]])

    left, right = noisy_eye(), noisy_eye()

    def dropout_mask():
        mask = np.zeros(n, dtype=bool)
        p_start = cfg.dropout_burst_rate / GAZE_RATE
        mean_len = max(1.0, cfg.dropout_burst_len_ms / 1000.0 * GAZE_RATE)
        starts = rng.random(n) < p_start
        for i in np.flatnonzero(starts):
            length = rng.geometric(1.0 / mean_len)
            mask[i:i + length] = True
        return mask

    left_missing, right_missing = dropout_mask(), dropout_mask()

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
    directory `out_dir`; returns written paths. A `*.session` file there
    that this run would not write raises ConfigError before any is written:
    a directory holds one dataset."""
    paths = {Path(out_dir, f"S{subject_idx:02d}_{task}.session"): (subject_idx, task)
             for subject_idx in range(cfg.n_subjects) for task in ("text", "webpage")}
    stray = sorted(p for p in Path(out_dir).glob("*.session") if p.is_file() and p not in paths)
    if stray:
        raise ConfigError(f"{stray[0]}: a session file this run would not write; "
                          "one directory holds one dataset")
    for path, (subject_idx, task) in paths.items():
        write_session(generate_session(cfg, subject_idx, task), path)
    return list(paths)
