"""Measurement helpers shared by the workloads: summary statistics, the
span tracer, the open-loop scheduler and the environment record.

Nothing here imports gazeintent, so the helpers can be tested without the
package and reused by any workload.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIN_BEYOND = 10      # samples a reported tail percentile must leave above it
TAIL_CAP = 99.0      # never report beyond p99, however many samples there are


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> float | None:
    """Highest percentile (capped at p99) that falls on a sample with at
    least MIN_BEYOND of the n samples above it; None when fewer than
    MIN_BEYOND + 1 samples exist.

    Below the cap this is the rank of order statistic n-1-MIN_BEYOND under
    numpy's linear interpolation: 100 * (n - 1 - MIN_BEYOND) / (n - 1).
    """
    if n < MIN_BEYOND + 1:
        return None
    return min(TAIL_CAP, 100.0 * (n - 1 - MIN_BEYOND) / (n - 1))


def summarize(values) -> dict:
    """Count, median and tail of a sample. The tail is the tail_percentile
    value, or the maximum (tail_p 100) when that percentile would not be
    above the median, i.e. with fewer than 2 * MIN_BEYOND + 1 samples."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    p = tail_percentile(arr.size)
    if p is None or p < 50.0:
        p = 100.0
    return {"n": int(arr.size), "p50": float(np.median(arr)),
            "tail_p": round(p, 2), "tail": float(np.percentile(arr, p))}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Patches:
    """Attributes replaced on modules or classes, until restore()."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Tracer(Patches):
    """Spans recorded around wrapped calls, kept in memory until written.

    `wrap` replaces an attribute on the module (or class) that looks the
    name up, so calls from inside the package are caught as well as the
    benchmark's own. `restore` puts every original back.
    """

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.layer_of: dict = {}  # span name -> package module defining the call

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, owner, attr: str, name) -> None:
        """Trace every call of owner.attr. `name` is the span name, or a
        function of the call's arguments returning it."""
        orig = getattr(owner, attr)
        layer = _layer(orig)

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            self.layer_of.setdefault(span_name, layer)
            idx = self.open(span_name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        self.replace(owner, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(f'{{"id": {i}, "name": "{s.name}", "start": {s.start!r}, '
                        f'"end": {s.end!r}, "parent": {s.parent}}}\n')


def _layer(fn) -> str:
    """Second component of the defining module: gazeintent.numerics.ops ->
    numerics, so a call is charged to the layer that implements it."""
    parts = getattr(fn, "__module__", "").split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def self_time_by(spans, key) -> dict:
    """Sum of self time grouped by key(span.name); names mapping to None are
    skipped."""
    out: dict = {}
    for s, st in zip(spans, self_times(spans)):
        k = key(s.name)
        if k is not None:
            out[k] = out.get(k, 0.0) + st
    return out


# ---------------------------------------------------------------------------
# open loop


@dataclass
class OpenLoopResult:
    """Per pushed sample: due time, start and end of its push, and whether
    the push produced a decision (None when it raised)."""
    due: np.ndarray
    start: np.ndarray
    end: np.ndarray
    decided: list
    late_after_sleep: list = field(default_factory=list)
    t0: float = 0.0       # the schedule's time zero on the clock
    wall_s: float = 0.0

    @property
    def decision_latency_s(self) -> np.ndarray:
        """Completion minus due time of each sample that closed a window."""
        idx = [i for i, d in enumerate(self.decided) if d]
        return self.end[idx] - self.due[idx]

    @property
    def failed(self) -> int:
        return sum(1 for d in self.decided if d is None)

    def decision_rounds(self, round_s: float) -> list:
        """Decision latencies grouped by the round of round_s seconds of the
        schedule in which their closing sample was due."""
        idx = np.array([i for i, d in enumerate(self.decided) if d], dtype=int)
        rnd = ((self.due[idx] - self.t0) // round_s).astype(int)
        lat = self.end[idx] - self.due[idx]
        return [lat[rnd == r] for r in range(int(rnd.max()) + 1)] if idx.size else []


def schedule(offsets, counts, rate_hz: float, duration_s: float) -> list:
    """(due_s, feed, sample_index) for every sample of every feed due before
    duration_s, feed k starting at offsets[k], in due order."""
    events = []
    for k, (off, n) in enumerate(zip(offsets, counts)):
        for i in range(n):
            due = off + i / rate_hz
            if due >= duration_s:
                break
            events.append((due, k, i))
    return sorted(events)


def open_loop(events, push, clock=time.perf_counter, sleep=time.sleep,
              lead_s: float = 0.05) -> OpenLoopResult:
    """Push each event when it falls due, late if the previous push overran.

    push(feed, index) returns True when the sample closed a decision and
    False otherwise; an exception counts as a failed decision. Every
    sample is pushed, so a stall delays every later sample and shows up in
    their latency, which is measured from the due time.
    """
    n = len(events)
    due = np.empty(n)
    start = np.empty(n)
    end = np.empty(n)
    decided = [False] * n
    late = []
    t0 = clock() + lead_s
    for j, (due_s, k, i) in enumerate(events):
        d = t0 + due_s
        now = clock()
        if now < d:
            sleep(d - now)
            now = clock()
            late.append(now - d)
        due[j] = d
        start[j] = now
        try:
            decided[j] = bool(push(k, i))
        except Exception:  # a failed push is a failed decision, not a crash
            decided[j] = None
        end[j] = clock()
    wall = (end[-1] - t0) if n else 0.0
    return OpenLoopResult(due, start, end, decided, late, t0, wall)


# ---------------------------------------------------------------------------
# environment record


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its pool size; None if it is not OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path, seed: int, inputs_sha256: str | None) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = sorted((root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "src_sha256": sha256_files(src) if src else None,
        "seed": seed,
        "inputs_sha256": inputs_sha256,
        "argv": sys.argv[1:],
    }
