"""Gaze-only streaming inference: sliding-window classification over a
live feed.

The engine reads its eye's fields through `dataio.eye_fields` on every
push, so an eye set after construction is checked too; as in
`dataio.eye_series`, a sample missing either coordinate is missing. It
keeps only raw samples in its ring buffers (NaN where the eye is
missing) and prepares each window when it emits, with the gap fill and
compensation `dataio.windowize` uses. A gap that has closed by the
emission point is filled linearly, so that window is byte-identical to
the batch window ending at the same sample. A gap still open at the
emission point is nearest-filled with the last valid value, which can
differ from offline interpolation if the gap later closes.

A push that gives no decision is silent for one of three reasons, which
`StreamingEngine.silent_counts` tallies: warm-up (fewer samples than a
window so far), stride (between emission points) and missing (an emission
point whose window misses more than half its samples).
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
    n_missing: int        # gaze samples of the window that were gap-filled
    open_gap: bool        # the window ends in a gap that has not closed yet


class StreamingEngine:
    """Single-producer engine over one gaze feed; consumes no mouse data."""

    def __init__(self, params: model.ModelParams, stats: dataio.NormStats,
                 magnification: float, eye: str = next(iter(dataio.EYES)), stride: int = 6):
        if params is None or stats is None:
            raise ConfigError("engine requires a loaded checkpoint with normalization stats")
        if params.head_kind != model.CLASSIFIER_HEAD:
            raise ConfigError("streaming inference needs a classifier-head checkpoint")
        if "m" in params.config.streams:
            raise ConfigError("streaming inference is gaze-only")
        if not np.isfinite(magnification) or magnification < 1:
            raise ConfigError(f"magnification must be a finite number >= 1, got {magnification}")
        dataio.eye_fields(eye)
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        self.params = params
        self.stats = stats
        self.magnification = magnification
        self.eye = eye
        self.stride = stride
        self.reset()

    @classmethod
    def from_checkpoint(cls, path, magnification: float, **options) -> "StreamingEngine":
        """The engine of a saved checkpoint; `options` are `eye` and `stride`."""
        params, stats = model.load_checkpoint(path)
        if stats is None:
            raise DataError(f"checkpoint at {path} carries no normalization stats")
        return cls(params, stats, magnification, **options)

    def reset(self) -> None:
        """Clear buffers and counters; the model and stats are retained."""
        self.count = 0
        self._silent_missing = 0
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
        fx, fy = dataio.eye_fields(self.eye)   # checked here too: `eye` may be set at any time
        x, y = getattr(sample, fx), getattr(sample, fy)
        if x is None or y is None:
            x = y = np.nan
        self._ring[:, i] = (x, y, sample.vx, sample.vy, sample.t)
        self.count += 1

        if self.count < W:
            return None
        if (self.count - W) % self.stride != 0:
            return None
        n_missing = np.count_nonzero(np.isnan(self._ring[0]))
        if n_missing > dataio.MAX_MISSING:
            self._silent_missing += 1
            return None
        return self._emit(n_missing)

    def silent_counts(self) -> dict:
        """Pushes since the last reset that gave no decision, by reason.
        Warm-up and stride counts follow from the push count, so only the
        rare missing case costs a push anything."""
        warmup = min(self.count, W - 1)
        points = max(0, (self.count - W) // self.stride + 1)
        return {"warmup": warmup, "stride": self.count - warmup - points,
                "missing": self._silent_missing}

    def has_open_gap(self) -> bool:
        """True when the current window ends in a not-yet-closed gap (the
        case where streaming and offline interpolation may disagree)."""
        return bool(np.isnan(self._ring[0, (self.count - 1) % W]))

    def _window(self) -> dataio.Windows:
        """The window ending at the newest sample as a 1-row block, gap-filled
        over global sample indices and compensated as `dataio.windowize` does it."""
        pos = np.arange(self.count - W - 1, self.count)
        win = self._ring[:, pos[1:] % W]
        g = win[:2]
        if np.isnan(g[0]).any():       # a window without a gap needs no fill
            pos[0] = self._evicted[0]
            g = dataio.interpolate_missing(np.column_stack((self._evicted[1], g)), pos)[:, 1:]
        c = dataio.compensate(g, win[2:4], self.magnification,
                              self.stats.screen_w, self.stats.screen_h)
        return dataio.Windows(g=g[None], c=c[None], t_end=win[4, -1:], label=np.array([-1]),
                              vel_target=np.full((1, 2), np.nan),
                              subject_id=np.array(["stream"], dtype=object))

    def _emit(self, n_missing: int) -> Decision:
        w = dataio.normalize(self._window(), self.stats)
        try:
            x = w.batch(self.params.config.streams)
        except DataError as e:
            raise DataError(f"window ending at t={w.t_end[0]}: {e}") from e
        probs = model.predict_proba(self.params, x)[0]
        if not np.isfinite(probs).all():
            raise DataError(f"window ending at t={w.t_end[0]}: the model gives "
                            f"non-finite probabilities {probs.tolist()}")
        return Decision(t_end=float(w.t_end[0]), label=dataio.LABELS[int(probs.argmax())],
                        p_reading=float(probs[0]), n_missing=n_missing,
                        open_gap=self.has_open_gap())
