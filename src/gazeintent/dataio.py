"""Session data model, the v1 session container format, and preprocessing
from raw recordings to model-ready 24-step windows.

A session file is UTF-8 text: a `#meta {json}` line, then `#gaze`,
`#mouse` and `#labels` CSV sections. Missing gaze coordinates are empty
fields. Floats are serialized with 9 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gazeintent.errors import ConfigError, DataError

GAZE_RATE = 120
MOUSE_RATE = 10
WINDOW_LEN = 24
WINDOW_SPAN_S = 0.2
MAX_MISSING = WINDOW_LEN // 2  # strictly more than this -> window excluded

GAZE_HEADER = "t,lx,ly,rx,ry,vx,vy"

LABELS = ("reading", "scanning")
READING, SCANNING = 0, 1


def fmt9(x: float) -> str:
    return f"{x:.9g}"


def q9(x: float) -> float:
    """Quantize to 9 significant digits (the container's serialized precision)."""
    return float(fmt9(x))


@dataclass
class SessionMeta:
    subject_id: str
    task: str  # "text" | "webpage"
    magnification: float
    screen_w: float
    screen_h: float
    gaze_rate: int = GAZE_RATE
    mouse_rate: int = MOUSE_RATE

    def validate(self):
        if self.task not in ("text", "webpage"):
            raise DataError(f"unknown task {self.task!r}")
        if self.magnification < 1:
            raise ConfigError(f"magnification must be >= 1, got {self.magnification}")
        if self.screen_w <= 0 or self.screen_h <= 0:
            raise DataError("screen dimensions must be positive")
        if self.gaze_rate != GAZE_RATE or self.mouse_rate != MOUSE_RATE:
            raise DataError(f"v1 files are fixed at {GAZE_RATE}/{MOUSE_RATE} Hz")


@dataclass
class GazeSample:
    t: float
    lx: float | None
    ly: float | None
    rx: float | None
    ry: float | None
    vx: float
    vy: float


@dataclass
class MouseSample:
    t: float
    mx: float
    my: float


@dataclass
class LabelInterval:
    start: float
    end: float
    label: str


@dataclass
class Session:
    meta: SessionMeta
    gaze: list
    mouse: list
    labels: list


@dataclass
class Window:
    g: np.ndarray            # (2, 24) raw gaze, pixels until normalized
    c: np.ndarray            # (2, 24) compensated gaze
    t_end: float
    subject_id: str
    label: int | None = None
    vel_target: np.ndarray | None = None   # (2,) px/s
    m: np.ndarray | None = None            # (2, 24) mouse position stream


# ---------------------------------------------------------------------------
# container I/O


def write_session(session: Session, path) -> None:
    meta = session.meta
    lines = ["#meta " + json.dumps({
        "subject_id": meta.subject_id, "task": meta.task,
        "magnification": meta.magnification,
        "screen_w": meta.screen_w, "screen_h": meta.screen_h,
        "gaze_rate": meta.gaze_rate, "mouse_rate": meta.mouse_rate,
    }, sort_keys=True)]
    lines.append("#gaze")
    lines.append(GAZE_HEADER)
    for s in session.gaze:
        coords = ",".join("" if c is None else fmt9(c) for c in (s.lx, s.ly, s.rx, s.ry))
        lines.append(f"{fmt9(s.t)},{coords},{fmt9(s.vx)},{fmt9(s.vy)}")
    lines.append("#mouse")
    lines.append("t,mx,my")
    for s in session.mouse:
        lines.append(f"{fmt9(s.t)},{fmt9(s.mx)},{fmt9(s.my)}")
    lines.append("#labels")
    lines.append("start,end,label")
    for iv in session.labels:
        lines.append(f"{fmt9(iv.start)},{fmt9(iv.end)},{iv.label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_row(row: list, prev_t: float | None) -> None:
    """Row check shared by session files and live feeds: every number in
    `row` (None marks an empty field) must be finite, and its timestamp,
    the first field, must rise strictly above `prev_t` (None: no earlier
    row). Raises ValueError; callers add the line number."""
    for v in row:
        if v is not None and not math.isfinite(v):
            raise ValueError(f"non-finite value {v}")
    if prev_t is not None and not row[0] > prev_t:
        raise ValueError(f"non-monotonic timestamp {row[0]}")


def parse_gaze_row(fields: list, prev_t: float | None) -> GazeSample:
    """One `t,lx,ly,rx,ry,vx,vy` row of a session file or a live feed,
    split into fields; an empty eye coordinate marks it missing. Raises
    ValueError on a malformed row or one that fails `check_row`."""
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}")
    row = [None if f == "" else float(f) for f in fields]
    if row[0] is None or row[5] is None or row[6] is None:
        raise ValueError("missing t or viewport")
    check_row(row, prev_t)
    return GazeSample(*row)


def parse_session(path) -> Session:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read session file {path}: {e}") from e
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#meta "):
        raise DataError(f"{path}:1: expected '#meta {{json}}' header")
    try:
        meta = SessionMeta(**json.loads(lines[0][len("#meta "):]))
    except (TypeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}:1: malformed meta: {e}") from e
    meta.validate()

    vmax_x = meta.screen_w * (1 - 1 / meta.magnification)
    vmax_y = meta.screen_h * (1 - 1 / meta.magnification)
    section = None
    gaze, mouse, labels = [], [], []
    expect_header = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#"):
            section = line.strip()
            if section not in ("#gaze", "#mouse", "#labels"):
                raise DataError(f"{path}:{lineno}: unknown section {section}")
            expect_header = {"#gaze": GAZE_HEADER,
                             "#mouse": "t,mx,my",
                             "#labels": "start,end,label"}[section]
            continue
        if expect_header is not None:
            if line != expect_header:
                raise DataError(f"{path}:{lineno}: expected header {expect_header!r}")
            expect_header = None
            continue
        fields = line.split(",")
        try:
            if section == "#gaze":
                gaze.append(parse_gaze_row(fields, gaze[-1].t if gaze else None))
            elif section == "#mouse":
                if len(fields) != 3:
                    raise ValueError("expected 3 fields")
                row = [float(f) for f in fields]
                check_row(row, mouse[-1].t if mouse else None)
                mouse.append(MouseSample(*row))
            elif section == "#labels":
                if len(fields) != 3:
                    raise ValueError("expected 3 fields")
                if fields[2] not in LABELS:
                    raise ValueError(f"unknown label {fields[2]!r}")
                row = [float(fields[0]), float(fields[1])]
                check_row(row, None)
                labels.append(LabelInterval(*row, fields[2]))
            else:
                raise ValueError("data row outside any section")
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e

        # per-row range validation with line numbers
        if section == "#gaze":
            s = gaze[-1]
            for c, dim in ((s.lx, meta.screen_w), (s.ly, meta.screen_h),
                           (s.rx, meta.screen_w), (s.ry, meta.screen_h)):
                if c is not None and not (0 <= c <= dim):
                    raise DataError(f"{path}:{lineno}: coordinate {c} out of range [0, {dim}]")
            for v, name, vmax in ((s.vx, "x", vmax_x), (s.vy, "y", vmax_y)):
                if not (-1e-9 <= v <= vmax + 1e-9):
                    raise DataError(f"{path}:{lineno}: viewport {name} {v} outside [0, {vmax}]")
        elif section == "#labels":
            iv = labels[-1]
            if iv.start >= iv.end:
                raise DataError(f"{path}:{lineno}: empty label interval")
            if len(labels) > 1 and iv.start < labels[-2].end:
                raise DataError(f"{path}:{lineno}: overlapping label intervals")
    return Session(meta, gaze, mouse, labels)


# ---------------------------------------------------------------------------
# preprocessing


def select_eye(gaze: list) -> str:
    """Eye with the lower missing ratio over the first ceil(10%) of samples."""
    if not gaze:
        raise DataError("empty session")
    n = math.ceil(0.1 * len(gaze))
    head = gaze[:n]
    left_missing = sum(1 for s in head if s.lx is None or s.ly is None)
    right_missing = sum(1 for s in head if s.rx is None or s.ry is None)
    if left_missing == n and right_missing == n:
        raise DataError("both eyes fully missing in the calibration span")
    return "left" if left_missing <= right_missing else "right"


def eye_series(gaze: list, eye: str):
    """Return (x, y, missing) arrays for one eye; missing where either coord absent."""
    if eye == "left":
        xs = [s.lx for s in gaze]
        ys = [s.ly for s in gaze]
    else:
        xs = [s.rx for s in gaze]
        ys = [s.ry for s in gaze]
    missing = np.array([x is None or y is None for x, y in zip(xs, ys)])
    # a sample with either coordinate absent counts as missing as a whole,
    # so interpolation and the exclusion mask agree
    x = np.array([v if v is not None else np.nan for v in xs], dtype=np.float64)
    y = np.array([v if v is not None else np.nan for v in ys], dtype=np.float64)
    x[missing] = np.nan
    y[missing] = np.nan
    return x, y, missing


def interpolate_missing(values: np.ndarray, pos: np.ndarray | None = None):
    """Fill NaN gaps along the last axis: linear between valid neighbors,
    nearest at the edges.

    `pos` holds each sample's index in the recording (default 0..n-1); the
    streaming engine passes global indices, so that a gap's left neighbour
    may lie before its window and the fill still equals the batch one.

    Returns (filled, missing_mask); an all-missing row comes back
    unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.isnan(values)
    if pos is None:
        pos = np.arange(values.shape[-1])
    filled = values.copy()
    for row, miss in zip(np.atleast_2d(filled), np.atleast_2d(mask)):
        if miss.any() and not miss.all():
            row[miss] = np.interp(pos[miss], pos[~miss], row[~miss])
    return filled, mask


def compensate(g: np.ndarray, view: np.ndarray, magnification: float,
               screen_w: float, screen_h: float) -> np.ndarray:
    """Vectorized `remap_to_screen`: gaze rows (x, y) with viewport rows
    (vx, vy) back into content coordinates, clamped to the screen."""
    return np.clip(view + g / magnification, 0.0, [[screen_w], [screen_h]])


def remap_to_screen(px: float, py: float, vx: float, vy: float, meta: SessionMeta):
    """Compensate a physical-screen gaze point back into content coordinates."""
    m = meta.magnification
    if m < 1:
        raise ConfigError(f"magnification must be >= 1, got {m}")
    cx = vx + px / m
    cy = vy + py / m
    cx = min(max(cx, 0.0), meta.screen_w)
    cy = min(max(cy, 0.0), meta.screen_h)
    return cx, cy


def mouse_velocity(mouse: list, t_start: float, t_end: float):
    """Mean cursor velocity (px/s) over [t_start, t_end]; None when the window
    falls outside the mouse record."""
    if not mouse:
        return None
    mt = np.array([s.t for s in mouse])
    if t_start < mt[0] or t_end > mt[-1]:
        return None
    mx = np.array([s.mx for s in mouse])
    my = np.array([s.my for s in mouse])
    x0, x1 = np.interp([t_start, t_end], mt, mx)
    y0, y1 = np.interp([t_start, t_end], mt, my)
    dt = t_end - t_start
    return np.array([(x1 - x0) / dt, (y1 - y0) / dt])


def label_at(labels: list, t: float) -> int | None:
    """Class id of the interval covering t (half-open [start, end)), else None."""
    for iv in labels:
        if iv.start <= t < iv.end:
            return LABELS.index(iv.label)
    return None


def _label_ids(labels: list, t: np.ndarray) -> np.ndarray:
    """Vectorized `label_at`: class id of the interval covering each t
    (half-open [start, end)), -1 where none does.

    One binary search over the intervals sorted by start; the interval with
    the largest start <= t is the only candidate because intervals do not
    overlap.
    """
    if not labels:
        return np.full(t.shape, -1)
    ivs = sorted(labels, key=lambda iv: iv.start)
    start = np.array([iv.start for iv in ivs])
    end = np.array([iv.end for iv in ivs])
    cls = np.array([LABELS.index(iv.label) for iv in ivs])
    j = np.searchsorted(start, t, side="right") - 1
    hit = (j >= 0) & (t < end[j])
    return np.where(hit, cls[j], -1)


def windowize(session: Session, stride: int, mode: str, *,
              eye: str | None = None, with_mouse: bool = False) -> list:
    """Slice a session into 24-step windows.

    mode "labeled": attach the annotation at each window's final time
    point, dropping unannotated windows. mode "pretext": attach the mean
    mouse velocity over the trailing 0.2 s and ignore labels. Windows
    with strictly more than 50% missing source samples are dropped.

    Every per-window quantity is computed for all window starts at once,
    so the cost is linear in session length. Labels are found by binary
    search over the label intervals, which is exact because
    `parse_session` guarantees they do not overlap. Results equal the
    per-window `label_at` / `mouse_velocity` reference bit for bit. The
    streams of all kept windows live in one block; each window holds
    disjoint views of it, so no two windows share memory.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if mode not in ("labeled", "pretext"):
        raise ConfigError(f"unknown windowize mode {mode!r}")
    gaze = session.gaze
    n = len(gaze)
    if n < WINDOW_LEN:
        return []
    eye = eye or select_eye(gaze)
    x, y, missing = eye_series(gaze, eye)
    g, _ = interpolate_missing(np.stack([x, y]))
    t = np.array([s.t for s in gaze])
    view = np.array([[s.vx for s in gaze], [s.vy for s in gaze]])
    meta = session.meta
    c = compensate(g, view, meta.magnification, meta.screen_w, meta.screen_h)

    mouse_t = np.array([s.t for s in session.mouse])
    mouse_x = np.array([s.mx for s in session.mouse])
    mouse_y = np.array([s.my for s in session.mouse])
    has_mouse = mouse_t.size > 0

    starts = np.arange(0, n - WINDOW_LEN + 1, stride)
    n_missing = np.concatenate(([0], np.cumsum(missing)))
    starts = starts[n_missing[starts + WINDOW_LEN] - n_missing[starts] <= MAX_MISSING]
    t_end = t[starts + WINDOW_LEN - 1]
    if mode == "labeled":
        label = _label_ids(session.labels, t_end)
        keep = label >= 0
    elif has_mouse:
        keep = ~((t_end - WINDOW_SPAN_S < mouse_t[0]) | (t_end > mouse_t[-1]))
    else:
        keep = np.zeros(starts.shape, dtype=bool)
    if with_mouse:
        if has_mouse:
            keep &= (mouse_t[0] <= t[starts]) & (t_end <= mouse_t[-1])
        else:
            keep[:] = False
    starts, t_end = starts[keep], t_end[keep]
    if starts.size == 0:
        return []

    series = [*g, *c]
    if with_mouse:
        series += [np.interp(t, mouse_t, mouse_x), np.interp(t, mouse_t, mouse_y)]
    idx = starts[:, None] + np.arange(WINDOW_LEN)
    block = np.empty((starts.size, len(series), WINDOW_LEN))
    for j, s in enumerate(series):
        block[:, j] = s[idx]
    gs = list(block[:, 0:2])
    cs = list(block[:, 2:4])
    ms = list(block[:, 4:6]) if with_mouse else [None] * starts.size

    if mode == "labeled":
        labels = label[keep].tolist()
        vels = [None] * starts.size
    else:
        t_start = t_end - WINDOW_SPAN_S
        dt = t_end - t_start
        vel = np.empty((starts.size, 2))
        vel[:, 0] = (np.interp(t_end, mouse_t, mouse_x) - np.interp(t_start, mouse_t, mouse_x)) / dt
        vel[:, 1] = (np.interp(t_end, mouse_t, mouse_y) - np.interp(t_start, mouse_t, mouse_y)) / dt
        labels = [None] * starts.size
        vels = list(vel)
    subject = session.meta.subject_id
    return [Window(g=g, c=c, t_end=te, subject_id=subject, label=lab, vel_target=v, m=mm)
            for g, c, te, lab, v, mm in zip(gs, cs, t_end.tolist(), labels, vels, ms)]


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormStats:
    """Per-channel mean/std of screen-normalized coordinates, plus velocity stats.

    Keys: "g", "c", optionally "m" -> (mean[2], std[2]); "vel" -> (mean[2], std[2])
    in normalized screen units per second. Also carries the screen dims the
    normalization divides by.
    """
    screen_w: float
    screen_h: float
    channels: dict = field(default_factory=dict)
    vel: tuple | None = None

    def to_json(self) -> dict:
        d = {"screen_w": self.screen_w, "screen_h": self.screen_h,
             "channels": {k: [list(mu), list(sd)] for k, (mu, sd) in self.channels.items()}}
        if self.vel is not None:
            d["vel"] = [list(self.vel[0]), list(self.vel[1])]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "NormStats":
        stats = cls(screen_w=d["screen_w"], screen_h=d["screen_h"])
        for k, (mu, sd) in d["channels"].items():
            stats.channels[k] = (np.array(mu), np.array(sd))
        if d.get("vel") is not None:
            stats.vel = (np.array(d["vel"][0]), np.array(d["vel"][1]))
        return stats


def _safe_std(sd: np.ndarray) -> np.ndarray:
    out = sd.copy()
    zero = out == 0
    if zero.any():
        import logging
        logging.getLogger(__name__).warning("zero std in normalization stats; using 1")
        out[zero] = 1.0
    return out


def compute_stats(windows: list, meta: SessionMeta) -> NormStats:
    """Per-feature normalization statistics; call on training windows only."""
    if not windows:
        raise DataError("cannot compute normalization stats from zero windows")
    dims = np.array([meta.screen_w, meta.screen_h])[:, None]
    stats = NormStats(screen_w=meta.screen_w, screen_h=meta.screen_h)
    for key in ("g", "c", "m"):
        arrays = [getattr(w, key) for w in windows if getattr(w, key) is not None]
        if not arrays:
            continue
        stacked = np.stack(arrays) / dims  # (N, 2, 24)
        mu = stacked.mean(axis=(0, 2))
        sd = _safe_std(stacked.std(axis=(0, 2)))
        stats.channels[key] = (mu, sd)
    vels = [w.vel_target for w in windows if w.vel_target is not None]
    if vels:
        v = np.stack(vels) / dims[:, 0]
        stats.vel = (v.mean(axis=0), _safe_std(v.std(axis=0)))
    return stats


def _standardize(windows: list, key: str, dims, mu, sd) -> None:
    """Replace `key` on every window that has it by (v / dims - mu) / sd,
    computed in place on one stacked array; each window gets a view of it."""
    owners = [w for w in windows if getattr(w, key) is not None]
    if not owners:
        return
    block = np.array([getattr(w, key) for w in owners], dtype=np.float64)
    block /= dims
    block -= mu
    block /= sd
    for w, arr in zip(owners, block):
        setattr(w, key, arr)


def normalize(windows: list, stats: NormStats) -> list:
    """Standardize window streams (and velocity targets) with training-split stats.

    Returns new windows; the input windows are left untouched.
    """
    out = [replace(w) for w in windows]
    dims = np.array([stats.screen_w, stats.screen_h])
    dims_col = dims[:, None]
    for key in ("g", "c", "m"):
        if key in stats.channels:
            mu, sd = stats.channels[key]
            _standardize(out, key, dims_col, mu[:, None], sd[:, None])
    if stats.vel is not None:
        _standardize(out, "vel_target", dims, *stats.vel)
    return out
