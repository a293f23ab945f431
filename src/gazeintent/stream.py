"""Gaze-only streaming inference: sliding-window classification over a
live feed.

The engine keeps only raw samples in its ring buffers (NaN where the eye
is missing) and prepares each window when it emits, with the gap fill
and compensation `dataio.windowize` uses. A gap that has closed by the
emission point is filled linearly, so that window is byte-identical to
the batch window ending at the same sample. A gap still open at the
emission point is nearest-filled with the last valid value, which can
differ from offline interpolation if the gap later closes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gazeintent import dataio, model
from gazeintent.errors import ConfigError, DataError

W = dataio.WINDOW_LEN


@dataclass
class Decision:
    t_end: float
    label: str
    p_reading: float


class StreamingEngine:
    """Single-producer engine over one gaze feed; consumes no mouse data."""

    def __init__(self, params: model.ModelParams, stats: dataio.NormStats,
                 magnification: float, eye: str = "left", stride: int = 6):
        if params is None or stats is None:
            raise ConfigError("engine requires a loaded checkpoint with normalization stats")
        if params.head_kind != model.CLASSIFIER_HEAD:
            raise ConfigError("streaming inference needs a classifier-head checkpoint")
        if "m" in params.config.streams:
            raise ConfigError("streaming inference is gaze-only")
        if not np.isfinite(magnification) or magnification < 1:
            raise ConfigError(f"magnification must be a finite number >= 1, got {magnification}")
        if eye not in ("left", "right"):
            raise ConfigError(f"eye must be 'left' or 'right', got {eye!r}")
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        self.params = params
        self.stats = stats
        self.magnification = magnification
        self.eye = eye
        self.stride = stride
        self.reset()

    @classmethod
    def from_checkpoint(cls, path, magnification: float, eye: str = "left",
                        stride: int = 6) -> "StreamingEngine":
        params, stats = model.load_checkpoint(path)
        if stats is None:
            raise DataError(f"checkpoint at {path} carries no normalization stats")
        return cls(params, stats, magnification, eye=eye, stride=stride)

    def reset(self) -> None:
        """Clear buffers and counters; the model and stats are retained."""
        self.count = 0
        # one ring of raw samples, rows x, y (NaN where the eye is
        # missing), vx, vy, t; slot = global index % W
        self._ring = np.full((5, W), np.nan)
        # (global index, [x, y]) of the last valid sample that has left the
        # ring, the left neighbour of a gap that starts before the window;
        # NaN (no neighbour) until one has
        self._evicted = (-1, np.full(2, np.nan))

    def push(self, sample: dataio.GazeSample):
        """Append one sample; returns a Decision at emission points, else None."""
        i = self.count % W
        if not np.isnan(self._ring[0, i]):
            self._evicted = (self.count - W, self._ring[:2, i].copy())
        if self.eye == "left":
            x, y = sample.lx, sample.ly
        else:
            x, y = sample.rx, sample.ry
        if x is None or y is None:
            x = y = np.nan
        self._ring[:, i] = (x, y, sample.vx, sample.vy, sample.t)
        self.count += 1

        if self.count < W:
            return None
        if (self.count - W) % self.stride != 0:
            return None
        if np.count_nonzero(np.isnan(self._ring[0])) > dataio.MAX_MISSING:
            return None
        return self._emit()

    def has_open_gap(self) -> bool:
        """True when the current window ends in a not-yet-closed gap (the
        case where streaming and offline interpolation may disagree)."""
        return bool(np.isnan(self._ring[0, (self.count - 1) % W]))

    def _window(self) -> dataio.Window:
        """The window ending at the newest sample, gap-filled over global
        sample indices and compensated as `dataio.windowize` does it."""
        pos = np.arange(self.count - W - 1, self.count)
        win = self._ring[:, pos[1:] % W]
        pos[0] = self._evicted[0]
        g, _ = dataio.interpolate_missing(np.column_stack((self._evicted[1], win[:2])), pos)
        g = g[:, 1:]
        c = dataio.compensate(g, win[2:4], self.magnification,
                              self.stats.screen_w, self.stats.screen_h)
        return dataio.Window(g=g, c=c, t_end=float(win[4, -1]), subject_id="stream")

    def _emit(self) -> Decision:
        w = dataio.normalize([self._window()], self.stats)
        probs = model.predict_proba(self.params, w.batch(self.params.config.streams))[0]
        label = dataio.LABELS[int(probs.argmax())]
        return Decision(t_end=float(w.t_end[0]), label=label, p_reading=float(probs[0]))
