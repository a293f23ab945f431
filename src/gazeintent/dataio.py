"""Session data model, the v1 session container format, and preprocessing
from raw recordings to model-ready 24-step windows.

A session file is UTF-8 text: a `#meta {json}` line, then `#gaze`,
`#mouse` and `#labels` CSV sections. Missing gaze coordinates are empty
fields. Floats are serialized with 9 significant digits: `fmt9` and
`format_rows` write them, and `q9` is the one quantizer that gives the
value a float or an array of floats has once written and parsed back.
`write_file` writes every file of the package, atomically.

A parsed `Session` stores its gaze and mouse records as float64 columns
(`GazeColumns`: t, lx, ly, rx, ry, vx, vy with NaN for a missing eye
coordinate; `MouseColumns`: t, mx, my) and its label intervals as a short
list. `parse_session` converts a section in fixed PARSE_ROWS chunks, one
`float` per field, never holding all of its fields as Python objects.
Each row rule of `#gaze`, `#mouse` and `#labels` (an empty mouse or label
number breaks one) is written once, as a predicate on a whole block of
rows with its message; the first bad row gets the message of the first
rule it breaks. A live feed's gaze rows pass the same rules as a file's.

`windowize` cuts a session into 24-step windows and returns them as a
`Windows` container: one contiguous float64 (N, 2, 24) block per stream
(`g` raw gaze, `c` compensated gaze, `m` mouse position when asked for),
the columns `t_end`, `label` (-1 for none), `vel_target` (N, 2; a NaN row
for none) and `subject_id`, and the session's window accounting (`counts`).
It reads as a sequence of `Window` records holding views of the blocks.
`compute_stats` and `normalize` work on whole blocks; both also accept a
plain list of `Window`s, which they stack into a container first.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from gazeintent.errors import ConfigError, DataError, GazeIntentError

GAZE_RATE = 120
MOUSE_RATE = 10
WINDOW_LEN = 24
WINDOW_SPAN_S = 0.2
MAX_MISSING = WINDOW_LEN // 2  # strictly more than this -> window excluded
PARSE_ROWS = 2048  # rows per `float` conversion pass of a section: bounds the parse's working set
_F9 = "%.9g"  # the container's float format: 9 significant digits

GAZE_HEADER = "t,lx,ly,rx,ry,vx,vy"
MOUSE_HEADER = "t,mx,my"
LABEL_HEADER = "start,end,label"
_SECTIONS = {"#gaze": GAZE_HEADER, "#mouse": MOUSE_HEADER, "#labels": LABEL_HEADER}
_VIEW_SLACK = 1e-9  # viewport range tolerance for values written with 9 digits
_GAZE_REQUIRED = np.array([True, False, False, False, False, True, True])  # t, vx, vy

LABELS = ("reading", "scanning")
READING, SCANNING = 0, 1


def fmt9(x: float) -> str:
    return _F9 % x


def format_rows(block: np.ndarray):
    """The CSV rows of a (k, n) column block, as the container writes them:
    every value through `fmt9`, NaN as an empty field, each row ending in a
    newline. Yields one string per PARSE_ROWS rows, made by one `%` format,
    so only one chunk's `float` and `str` objects are alive at once."""
    k, n = block.shape
    row = ",".join([_F9] * k) + "\n"
    for a in range(0, n, PARSE_ROWS):
        chunk = block[:, a:a + PARSE_ROWS]
        yield (row * chunk.shape[1] % tuple(chunk.T.ravel().tolist())).replace("nan", "")


_POW10 = np.array([float(10 ** k) for k in range(23)])  # 10**0 .. 10**22, each exact in float64
_TIE = 1e-6  # how near |x| * 10**k may come to a half-integer and still skip the text


def q9(x):
    """Quantize to 9 significant digits, the container's serialized precision:
    `float(fmt9(x))` for a number, and that value for each element of an
    array (a new float64 array of the same shape).

    An array element is quantized without text. With k = 8 - floor(log10|x|),
    moved by one where |x| * 10**k falls outside [1e8, 1e9), it is
    +-m / 10**k for m = rint(|x| * 10**k). For 0 <= k <= 22, 10**k is exact;
    unless |x| * 10**k lies within _TIE of a half-integer, the product's
    rounding error (below 1.2e-7) cannot move the rint, so m is the digits
    `%.9g` prints, and one correctly rounded division of exact operands is
    what `float` returns for them (Clinger's fast path). Every other element
    (a near tie, |x| >= 1e9 or < 1e-14, a zero or a non-finite value) goes
    through `float(fmt9(x))`. Columns are done PARSE_ROWS at a time, so the
    temporaries stay the size of one chunk."""
    if np.ndim(x) == 0:
        return float(fmt9(x))
    a = np.asarray(x, dtype=np.float64)
    out = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(0, a.shape[-1], PARSE_ROWS):
            v, o = a[..., c:c + PARSE_ROWS], out[..., c:c + PARSE_ROWS]
            ax = np.abs(v)
            k = 8 - np.floor(np.log10(ax))
            fast = (k >= 0) & (k <= 22)
            k = np.where(fast, k, 0).astype(np.intp)
            y = ax * _POW10[k]
            k += y < 1e8
            k -= y >= 1e9
            fast &= (k >= 0) & (k <= 22)
            np.clip(k, 0, 22, out=k)
            np.multiply(ax, _POW10[k], out=y)
            m = np.rint(y)
            fast &= np.abs(y - m) < 0.5 - _TIE
            np.divide(m, _POW10[k], out=o)
            np.copysign(o, v, out=o)
            slow = ~fast
            if slow.any():
                o[slow] = [float(fmt9(s)) for s in v[slow].tolist()]
    return out


def _real(x) -> bool:
    """A finite int or float (not a bool) that a float64 holds exactly, so
    that checks on float64 columns compare against the same number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x) and float(x) == x
    except OverflowError:
        return False


_KINDS = {"int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
          "float": ("a finite number", _real), "str": ("a string", lambda v: isinstance(v, str))}


def check_fields(obj, error=ConfigError, **bounds) -> None:
    """Raise `error` unless each field of dataclass `obj` annotated (as a string)
    `int`, `float` or `str` holds an int that is not a bool, a `_real` or a str,
    and each field named in `bounds` lies in its bound: `low` or `(low, high)`."""
    for f in fields(obj):
        kind, ok = _KINDS.get(f.type, (None, None))
        if ok and not ok(getattr(obj, f.name)):
            raise error(f"{f.name} must be {kind}, got {getattr(obj, f.name)!r}")
    for name, bound in bounds.items():
        low, high = bound if isinstance(bound, tuple) else (bound, math.inf)
        if not low <= getattr(obj, name) <= high:
            raise error(f"{name} must be in [{low}, {high}], got {getattr(obj, name)!r}")


@dataclass
class SessionMeta:
    subject_id: str
    task: str  # "text" | "webpage"
    magnification: float
    screen_w: float
    screen_h: float
    gaze_rate: int | float = GAZE_RATE  # a file may hold 120 or 120.0
    mouse_rate: int | float = MOUSE_RATE

    def __post_init__(self):
        # task first and rates last keep the messages of the checks they replace
        if self.task not in ("text", "webpage"):
            raise DataError(f"unknown task {self.task!r}")
        check_fields(self, DataError)
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


EYES = {"left": ("lx", "ly"), "right": ("rx", "ry")}  # (x, y) fields of a GazeSample, GazeColumns


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


def _column(k: int) -> property:
    return property(lambda self: self.data[k])


class _Columns:
    """A recording stored as float64 columns: row k of `data`, shape
    (fields, n), is field k of `row_type` for all n samples.

    It reads as a sequence of `row_type` records: `len`, an int index gives
    one record, a slice gives the same columns' view, and iteration gives
    the records in order. Columns are also named attributes (`gaze.t`);
    writing into one writes the recording.
    """

    row_type: type

    def __init__(self, data: np.ndarray):
        self.data = data

    @classmethod
    def from_rows(cls, rows) -> "_Columns":
        """Columns from an iterable of `row_type` records (None -> NaN)."""
        names = [f.name for f in fields(cls.row_type)]
        table = np.array([[getattr(r, k) for k in names] for r in rows], dtype=np.float64)
        return cls(table.reshape(-1, len(names)).T.copy())

    def _record(self, values: list):
        return self.row_type(*values)

    def __len__(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(self.data[:, i])
        return self._record(self.data[:, i].tolist())

    def __iter__(self):
        # PARSE_ROWS records' Python floats at a time, not the whole recording's
        for a in range(0, len(self), PARSE_ROWS):
            yield from map(self._record, self.data[:, a:a + PARSE_ROWS].T.tolist())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self.data, other.data,
                                                            equal_nan=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)})"


class GazeColumns(_Columns):
    """Gaze columns t, lx, ly, rx, ry, vx, vy; NaN marks a missing eye
    coordinate, which a `GazeSample` record gives as None."""

    row_type = GazeSample
    t, lx, ly, rx, ry, vx, vy = map(_column, range(7))

    def _record(self, values: list) -> GazeSample:
        t, lx, ly, rx, ry, vx, vy = values
        # NaN, the one float unequal to itself, is a missing coordinate
        return GazeSample(t, None if lx != lx else lx, None if ly != ly else ly,
                          None if rx != rx else rx, None if ry != ry else ry, vx, vy)


class MouseColumns(_Columns):
    """Mouse columns t, mx, my."""

    row_type = MouseSample
    t, mx, my = map(_column, range(3))


_RECORDS = {"gaze": GazeColumns, "mouse": MouseColumns}


@dataclass
class Session:
    meta: SessionMeta
    gaze: GazeColumns
    mouse: MouseColumns
    labels: list

    def __setattr__(self, name, value):
        # gaze and mouse records given as a sequence of samples (for
        # example `session.mouse = []`) are stored as columns
        kind = _RECORDS.get(name)
        if kind is not None and not isinstance(value, kind):
            value = kind.from_rows(value)
        super().__setattr__(name, value)


@dataclass
class Window:
    """One window, as a `Windows` container gives it (views of its blocks)."""
    g: np.ndarray            # (2, 24) raw gaze, pixels until normalized
    c: np.ndarray            # (2, 24) compensated gaze
    t_end: float
    subject_id: str
    label: int | None = None
    vel_target: np.ndarray | None = None   # (2,) px/s
    m: np.ndarray | None = None            # (2, 24) mouse position stream


COUNTS = ("kept", "dropped_missing", "dropped_unlabeled", "dropped_no_mouse")


def _stack(arrays: list, shape: tuple) -> np.ndarray:
    """The arrays of one column as one float64 block, None -> a NaN row."""
    nan = np.full(shape, np.nan)
    return np.array([nan if a is None else a for a in arrays],
                    dtype=np.float64).reshape(-1, *shape)


def _absent(block: np.ndarray) -> np.ndarray:
    """Rows of a block that are all NaN: the value is absent there."""
    return np.isnan(block).all(axis=tuple(range(1, block.ndim)))


class Windows:
    """Windows stored as columns: one contiguous float64 (N, 2, 24) block
    per stream (`g`, `c`, and `m` when present, else None), and the columns
    `t_end` (N,), `label` (N,) with -1 for none, `vel_target` (N, 2) with a
    NaN row for none, and `subject_id` (N,).

    It reads as a sequence of `Window` records: `len`, an int index gives
    one record, a slice or an integer-array index gives a `Windows` of
    those rows, and iteration gives the records in order. A record holds
    views of the blocks, so building one copies nothing and writing into
    one writes the container. A record gives None where the label is -1,
    where the `vel_target` row is NaN and where the `m` row is NaN or there
    is no `m` block.

    `a + b` concatenates the columns; a stream that one side lacks becomes
    NaN rows there, the same "absent" rule as `vel_target`.

    `counts` is the window accounting of `windowize`: of the window
    positions of a session, how many were kept and how many were dropped
    for more than 50 % missing samples, for no label at the final time
    point, or for a mouse record that does not cover the window. `+` sums
    the counts; a container made any other way counts all its rows as kept.
    """

    def __init__(self, g, c, t_end, label, vel_target, subject_id, m=None, counts=None):
        self.g, self.c, self.m = g, c, m
        self.t_end, self.label, self.vel_target = t_end, label, vel_target
        self.subject_id = subject_id
        self.counts = counts or dict.fromkeys(COUNTS, 0) | {"kept": len(t_end)}

    @classmethod
    def from_rows(cls, windows) -> "Windows":
        """A container of `Window` records, stacked column by column."""
        ws = list(windows)
        ms = [w.m for w in ws]
        stream = (2, WINDOW_LEN)
        return cls(g=_stack([w.g for w in ws], stream),
                   c=_stack([w.c for w in ws], stream),
                   m=None if all(m is None for m in ms) else _stack(ms, stream),
                   t_end=np.array([w.t_end for w in ws], dtype=np.float64),
                   label=np.array([-1 if w.label is None else w.label for w in ws],
                                  dtype=np.int64),
                   vel_target=_stack([w.vel_target for w in ws], (2,)),
                   subject_id=np.array([w.subject_id for w in ws], dtype=object))

    @classmethod
    def concat(cls, parts: list) -> "Windows":
        """The parts one after another, with one concatenation per column."""
        if not parts:
            return cls.from_rows([])
        if len(parts) == 1:
            return parts[0]
        if all(p.m is None for p in parts):
            m = None
        else:
            m = np.concatenate([np.full(p.g.shape, np.nan) if p.m is None else p.m
                                for p in parts])
        return cls(**{k: np.concatenate([getattr(p, k) for p in parts])
                      for k in ("g", "c", "t_end", "label", "vel_target", "subject_id")},
                   m=m, counts={k: sum(p.counts[k] for p in parts) for k in COUNTS})

    def __add__(self, other):
        if not isinstance(other, Windows):
            return NotImplemented
        return Windows.concat([self, other])

    def __len__(self) -> int:
        return len(self.t_end)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            i = range(len(self))[i]
            return next(self._records(slice(i, i + 1)))
        return Windows(g=self.g[i], c=self.c[i], m=None if self.m is None else self.m[i],
                       t_end=self.t_end[i], label=self.label[i],
                       vel_target=self.vel_target[i], subject_id=self.subject_id[i])

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice):
        has_vel = ~_absent(self.vel_target[rows])
        has_m = (np.zeros(has_vel.shape, dtype=bool) if self.m is None
                 else ~_absent(self.m[rows]))
        for i, t_end, label, subject, hv, hm in zip(
                range(len(self))[rows], self.t_end[rows].tolist(),
                self.label[rows].tolist(), self.subject_id[rows].tolist(),
                has_vel.tolist(), has_m.tolist()):
            yield Window(g=self.g[i], c=self.c[i], t_end=t_end, subject_id=subject,
                         label=None if label < 0 else label,
                         vel_target=self.vel_target[i] if hv else None,
                         m=self.m[i] if hm else None)

    def batch(self, keys) -> dict:
        """The model data: each named block (a stream, or `vel_target`) as
        float32. A block that is not finite as float32 (a value past its
        range or NaN) raises DataError naming it; the cast's overflow
        warning is off."""
        with np.errstate(over="ignore"):
            out = {k: getattr(self, k).astype(np.float32) for k in keys}
        for k, block in out.items():
            if not np.isfinite(block).all():
                raise DataError(f"model input stream {k} is not finite as float32")
        return out

    def __repr__(self) -> str:
        return f"Windows(n={len(self)}, m={self.m is not None})"


def _as_windows(windows) -> Windows:
    return windows if isinstance(windows, Windows) else Windows.from_rows(windows)


# ---------------------------------------------------------------------------
# container I/O


def _open_temp(path: Path):
    """The writer's first step: (name, open binary file) of a temporary file
    beside `path`, named `.<name>.<pid>.tmp` so no `*.session` glob finds it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    return tmp, open(tmp, "wb")


def write_file(path, content) -> None:
    """Every file the package writes: `content` is a JSON document (dict or
    list, as `json.dumps(doc, indent=1, sort_keys=True)`) or an iterator of
    str (as UTF-8) or bytes chunks. A temporary file beside `path` replaces
    it when complete and is removed on any failure, so `path` keeps its old
    bytes or has all the new ones. OSError: ConfigError `cannot write ...`."""
    path = Path(path)
    if isinstance(content, (dict, list)):
        content = [json.dumps(content, indent=1, sort_keys=True)]
    try:
        tmp, f = _open_temp(path)
        try:
            with f:
                f.writelines(c if isinstance(c, bytes) else c.encode() for c in content)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def writable_dir(path) -> Path:
    """`path`, once the writer's first step has made a temporary file there
    (and it is removed): a directory it cannot use fails before any work."""
    path = Path(path)
    try:
        tmp, f = _open_temp(path / "probe")
        f.close()
        tmp.unlink()
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e
    return path


def write_session(session: Session, path) -> None:
    """The session as a container file: each section's rows in `format_rows`'
    chunks, the label intervals through `fmt9`, all through `write_file`."""
    head = "#meta " + json.dumps(asdict(session.meta), sort_keys=True)
    labels = "".join(f"{fmt9(iv.start)},{fmt9(iv.end)},{iv.label}\n" for iv in session.labels)
    write_file(path, chain([f"{head}\n#gaze\n{GAZE_HEADER}\n"],
                           format_rows(session.gaze.data),
                           [f"#mouse\n{MOUSE_HEADER}\n"],
                           format_rows(session.mouse.data),
                           [f"#labels\n{LABEL_HEADER}\n{labels}"]))


# -- section parsing


def _sections(lines: list):
    """Data rows of each section as runs (first, stop) of indices into
    `lines` (line 0 is the meta line), and the (line number, message) of
    the first structural fault: an unknown section, a wrong column header
    or a data row outside any section. Nothing after it is collected."""
    runs = {name: [] for name in _SECTIONS}
    marks = [i for i in range(1, len(lines))
             if not lines[i].strip() or lines[i][0] == "#"]   # blank or section lines
    section = header = None
    first = 1
    for i in marks + [len(lines)]:
        if first < i and header is not None:
            if lines[first] != header:
                return runs, (first + 1, f"expected header {header!r}")
            header = None
            first += 1
        if first < i:
            if section is None:
                return runs, (first + 1, "data row outside any section")
            runs[section].append((first, i))
        if i < len(lines) and lines[i].strip():
            section = lines[i].strip()
            if section not in _SECTIONS:
                return runs, (i + 1, f"unknown section {section}")
            header = _SECTIONS[section]
        first = i + 1
    return runs, None


def _line_number(runs: list, k: int) -> int:
    for first, stop in runs:
        if k < stop - first:
            return first + k + 1
        k -= stop - first
    raise IndexError(k)


def _numbers(rows: list, width: int):
    """The rows' fields through `float`, as an (n, width) array with NaN for
    an empty field, and the mask of empty fields. Parsing stops before the
    first row whose field count is not `width` or that has a field `float`
    rejects, so n is that row's index (len(rows) when there is none).
    Rows are converted PARSE_ROWS at a time, so only one chunk's `str` and
    `float` objects are alive at once. The array is the transpose of a
    C-contiguous (width, n) block: its `.T` is the columns, uncopied."""
    # the final -1 stands for a wrong row after the last, so argmax finds n
    commas = np.fromiter(chain(map(str.count, rows, repeat(",")), [-1]), np.intp, len(rows) + 1)
    n = int((commas != width - 1).argmax())
    values = np.empty((width, n), dtype=np.float64)
    empty = np.zeros((n, width), dtype=bool)
    a = 0
    while a < n:   # a row `float` rejects lowers n, which ends the loop
        texts = ",".join(rows[a:min(a + PARSE_ROWS, n)]).split(",")
        try:
            chunk = [float(f) if f else math.nan for f in texts]
        except ValueError:
            chunk = []
            for f in texts:
                try:
                    chunk.append(float(f) if f else math.nan)
                except ValueError:
                    break
            n = a + len(chunk) // width
            del chunk[(n - a) * width:]
        block = np.array(chunk, dtype=np.float64).reshape(-1, width)
        values[:, a:a + len(block)] = block.T
        nan_at = np.flatnonzero(np.isnan(block))
        empty[a:].reshape(-1)[nan_at] = [not texts[k] for k in nan_at.tolist()]
        a += PARSE_ROWS
    return values[:, :n].T, empty[:n]


# -- row rules, each written once as a predicate on a block of rows with
# its message; session sections and live feeds share them


def _float_fault(fields) -> str:
    """The message of `float` on the first of `fields` that it rejects."""
    try:
        list(map(float, fields))
    except ValueError as e:
        return str(e)


def _finite_rule(v: np.ndarray, empty: np.ndarray) -> tuple:
    return ~(np.isfinite(v) | empty), lambda k, j: f"non-finite value {float(v[k, j])}"


def _rising_rule(t: np.ndarray, prev_t: float | None) -> tuple:
    """Timestamps t, shape (n, 1), rise strictly; `prev_t` is the one
    before the first (None: there is none)."""
    before = np.empty_like(t)
    before[:1] = -math.inf if prev_t is None else prev_t
    before[1:] = t[:-1]
    return ~(t > before), lambda k, j: f"non-monotonic timestamp {float(t[k, 0])}"


def _first_fault(rows: list, n: int, rules: list, stopped) -> tuple | None:
    """(index, message) of the first row of `rows` that breaks a rule, or
    None. Rows before n were parsed: the first of them that a rule flags
    gets the message of the first rule that flags it, at its first flagged
    field. Row n, where parsing stopped, is worded from its own fields by
    `stopped`. `rules` holds, in rule order, pairs of an (n, k) mask of the
    fields a rule rejects and a function of (row, field) giving its message."""
    if n:
        bad = np.concatenate([flagged for flagged, _ in rules], axis=1).any(axis=1)
        k = int(bad.argmax())
        if bad[k]:
            for flagged, word in rules:
                if flagged[k].any():
                    return k, word(k, int(flagged[k].argmax()))
    return (n, stopped(rows[n].split(","))) if n < len(rows) else None


def parse_gaze_rows(rows: list, prev_t: float | None, screen: tuple, magnification: float):
    """Gaze rows `t,lx,ly,rx,ry,vx,vy` of a session file or a live feed
    (text; an empty eye coordinate marks it missing) through every gaze
    row rule, in this order: 7 fields, each empty or a number `float`
    accepts; t and the viewport present; every number finite; t rising
    strictly above the row before (`prev_t` for the first row, None when
    there is none); coordinates on the screen (w, h); the viewport within
    what `magnification` allows.

    Returns the (n, 7) block of `_numbers` and the (index, message) of the
    first row that breaks a rule, or None when every row passes."""
    v, empty = _numbers(rows, 7)
    coords, view = v[:, 1:5], v[:, 5:7]
    dims = screen * 2
    vmax = tuple(d * (1 - 1 / magnification) for d in screen)
    rules = [
        (empty & _GAZE_REQUIRED, lambda k, j: "missing t or viewport"),
        _finite_rule(v, empty),
        _rising_rule(v[:, :1], prev_t),
        ((coords < 0) | (coords > dims),
         lambda k, j: f"coordinate {float(coords[k, j])} out of range [0, {dims[j]}]"),
        # cli._read_feed keys on this message's "viewport " prefix
        ((view < -_VIEW_SLACK) | (view > np.add(vmax, _VIEW_SLACK)),
         lambda k, j: f"viewport {'xy'[j]} {float(view[k, j])} outside [0, {vmax[j]}]"),
    ]
    return v, _first_fault(rows, len(v), rules, lambda fields: (
        f"expected 7 fields, got {len(fields)}" if len(fields) != 7
        else _float_fault(filter(None, fields))))


def _parse_mouse_rows(rows: list):
    """Mouse rows `t,mx,my` of a session file through every mouse row rule,
    in this order: 3 fields, each a number `float` accepts (an empty field
    is not one); every number finite; t rising strictly. Returns what
    `parse_gaze_rows` returns, with an (n, 3) block."""
    v, empty = _numbers(rows, 3)
    rules = [(empty, lambda k, j: _float_fault([""])), _finite_rule(v, empty),
             _rising_rule(v[:, :1], None)]
    return v, _first_fault(rows, len(v), rules, lambda fields: (
        "expected 3 fields" if len(fields) != 3 else _float_fault(fields)))


def _parse_label_rows(rows: list):
    """Label rows `start,end,label` of a session file through every label
    row rule, in this order: 3 fields; a label of LABELS; start and end each
    a number `float` accepts (an empty field is not one); both finite; start
    before end; start not before the end of the row before. Returns the
    `LabelInterval`s and what `_first_fault` returns."""
    split = [row.rpartition(",") for row in rows]   # the label split off the two numbers
    v, empty = _numbers([head for head, _, _ in split], 2)
    names = [name for _, _, name in split[:len(v)]]
    (start, end), overlap = v.T, np.zeros((len(v), 1), dtype=bool)
    overlap[1:, 0] = start[1:] < end[:-1]
    rules = [(np.array([name not in LABELS for name in names], dtype=bool)[:, None],
              lambda k, j: f"unknown label {names[k]!r}"),
             (empty, lambda k, j: _float_fault([""])), _finite_rule(v, empty),
             (~(start < end)[:, None], lambda k, j: "empty label interval"),
             (overlap, lambda k, j: "overlapping label intervals")]
    labels = [LabelInterval(a, b, name) for (a, b), name in zip(v.tolist(), names)]
    return labels, _first_fault(rows, len(v), rules, lambda fields: (
        "expected 3 fields" if len(fields) != 3 else f"unknown label {fields[2]!r}"
        if fields[2] not in LABELS else _float_fault(fields[:2])))


def parse_session(path) -> Session:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read session file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#meta "):
        raise DataError(f"{path}:1: expected '#meta {{json}}' header")
    try:
        meta = SessionMeta(**json.loads(lines[0][len("#meta "):]))
    except (GazeIntentError, TypeError, ValueError, RecursionError) as e:
        # ValueError: JSONDecodeError; GazeIntentError: a SessionMeta field rule
        raise DataError(f"{path}:1: malformed meta: {e}") from e

    runs, fault = _sections(lines)
    rows = {name: list(chain.from_iterable(lines[a:b] for a, b in r))
            for name, r in runs.items()}
    parsed = {"#gaze": parse_gaze_rows(rows["#gaze"], None, (meta.screen_w, meta.screen_h),
                                       meta.magnification),
              "#mouse": _parse_mouse_rows(rows["#mouse"]),
              "#labels": _parse_label_rows(rows["#labels"])}
    faults = [fault] if fault else []
    faults += [(_line_number(runs[name], f[0]), f[1]) for name, (_, f) in parsed.items() if f]
    if faults:
        lineno, message = min(faults)
        raise DataError(f"{path}:{lineno}: {message}")
    (gaze, _), (mouse, _), (labels, _) = parsed.values()
    return Session(meta, GazeColumns(gaze.T), MouseColumns(mouse.T), labels)


# ---------------------------------------------------------------------------
# preprocessing


def calibration_rows(n: int) -> int:
    """The samples of an n-sample session that `select_eye` reads by default."""
    return math.ceil(0.1 * n)


def select_eye(gaze: GazeColumns, n: int | None = None) -> str:
    """Eye with the fewest missing samples over the first `n` samples (by
    default the first ceil(10%), `calibration_rows`); on a tie, the first
    of `EYES`, the left one."""
    if not len(gaze):
        raise DataError("empty session")
    head = gaze[:calibration_rows(len(gaze)) if n is None else n]
    missing = {eye: np.count_nonzero(eye_series(head, eye)[2]) for eye in EYES}
    if min(missing.values()) == len(head):
        raise DataError("both eyes fully missing in the calibration span")
    return min(missing, key=missing.get)


def eye_fields(eye: str) -> tuple:
    """The (x, y) field names of an eye, a key of `EYES`."""
    if not isinstance(eye, str) or eye not in EYES:
        raise ConfigError(f"eye must be {' or '.join(map(repr, EYES))}, got {eye!r}")
    return EYES[eye]


def eye_series(gaze: GazeColumns, eye: str):
    """Return (x, y, missing) arrays for one eye; missing where either
    coordinate is absent."""
    x, y = (getattr(gaze, f) for f in eye_fields(eye))
    # a sample with either coordinate absent counts as missing as a whole,
    # so interpolation and the exclusion mask agree
    missing = np.isnan(x) | np.isnan(y)
    x, y = (np.where(missing, np.nan, v) for v in (x, y))
    return x, y, missing


def interpolate_missing(values: np.ndarray, pos: np.ndarray | None = None):
    """Fill NaN gaps along the last axis: linear between valid neighbors,
    nearest at the edges.

    `pos` holds each sample's index in the recording (default 0..n-1); the
    streaming engine passes global indices, so that a gap's left neighbour
    may lie before its window and the fill still equals the batch one.

    Returns the filled copy; an all-missing row comes back unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    if pos is None:
        pos = np.arange(values.shape[-1])
    filled = values.copy()
    for row, miss in zip(np.atleast_2d(filled), np.atleast_2d(np.isnan(values))):
        if miss.any() and not miss.all():
            row[miss] = np.interp(pos[miss], pos[~miss], row[~miss])
    return filled


def compensate(g: np.ndarray, view: np.ndarray, magnification: float,
               screen_w: float, screen_h: float) -> np.ndarray:
    """Gaze rows (x, y) with viewport rows (vx, vy) back into content
    coordinates, clamped to the screen: the one statement of gaze
    compensation, for batch windows, the stream and `remap_to_screen`. The
    clamp gives `np.clip`'s bytes without its Python wrapper, NaN and
    infinities included; a clamped -0.0 becomes +0.0 at every size, where
    `np.clip` keeps it beyond 8,192 elements."""
    bounds = np.empty((2, 1))
    bounds[0], bounds[1] = screen_w, screen_h
    return np.minimum(np.maximum(view + g / magnification, 0.0), bounds)


def remap_to_screen(px: float, py: float, vx: float, vy: float, meta: SessionMeta):
    """Compensate a physical-screen gaze point back into content
    coordinates: `compensate` on one sample."""
    if meta.magnification < 1:
        raise ConfigError(f"magnification must be >= 1, got {meta.magnification}")
    cx, cy = compensate(np.array([[px], [py]]), np.array([[vx], [vy]]), meta.magnification,
                        meta.screen_w, meta.screen_h)[:, 0]
    return float(cx), float(cy)


def _label_ids(labels: list, t: np.ndarray) -> np.ndarray:
    """Class id of the interval covering each t (half-open [start, end)),
    -1 where none does.

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
              eye: str | None = None, with_mouse: bool = False) -> Windows:
    """Slice a session into 24-step windows.

    mode "labeled": attach the annotation at each window's final time
    point. mode "pretext": attach the mean mouse velocity over the
    trailing 0.2 s and ignore labels.

    Each window position gets one fate, the first reason that applies, in
    `COUNTS` order: dropped for strictly more than 50% missing source
    samples; dropped as unannotated (labeled mode); dropped because the
    mouse record, the closed interval from its first to its last sample,
    does not cover the window (the pretext span, and the whole window when
    `with_mouse` asks for the mouse stream); else kept. `counts` is the
    bincount of those fates, and the kept positions come back as one
    `Windows` container.

    Every per-window quantity is computed for all window starts at once,
    so the cost is linear in session length. Labels are found by binary
    search over the label intervals, which is exact because
    `parse_session` guarantees they do not overlap. Results equal, bit for
    bit, a per-window loop over scalar references that the tests keep.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if mode not in ("labeled", "pretext"):
        raise ConfigError(f"unknown windowize mode {mode!r}")
    gaze, meta = session.gaze, session.meta
    n, t = len(gaze), gaze.t
    starts = np.arange(0, n - WINDOW_LEN + 1, stride)
    if eye is None:  # select_eye rejects an empty session; without a position any eye will do
        eye = select_eye(gaze) if starts.size else "left"
    x, y, missing = eye_series(gaze, eye)
    n_missing = np.concatenate(([0], np.cumsum(missing)))
    t_end = t[starts + WINDOW_LEN - 1]
    label = (_label_ids(session.labels, t_end) if mode == "labeled"
             else np.full(starts.size, -1, dtype=np.int64))

    mouse_t, mouse_x, mouse_y = session.mouse.data
    lo, hi = (mouse_t[0], mouse_t[-1]) if mouse_t.size else (np.inf, -np.inf)
    covered = np.ones(starts.size, dtype=bool)
    if mode == "pretext":
        covered &= (lo <= t_end - WINDOW_SPAN_S) & (t_end <= hi)
    if with_mouse:
        covered &= (lo <= t[starts]) & (t_end <= hi)

    fate = np.select([n_missing[starts + WINDOW_LEN] - n_missing[starts] > MAX_MISSING,
                      (mode == "labeled") & (label < 0), ~covered], [1, 2, 3], 0)
    counts = dict(zip(COUNTS, np.bincount(fate, minlength=len(COUNTS)).tolist()))
    keep = fate == 0
    starts, t_end, label = starts[keep], t_end[keep], label[keep]
    if not starts.size:
        return Windows(g=np.empty((0, 2, WINDOW_LEN)), c=np.empty((0, 2, WINDOW_LEN)),
                       m=np.empty((0, 2, WINDOW_LEN)) if with_mouse else None,
                       t_end=t_end, label=label, vel_target=np.empty((0, 2)),
                       subject_id=np.empty(0, dtype=object), counts=counts)

    g = interpolate_missing(np.stack([x, y]))
    c = compensate(g, gaze.data[5:7], meta.magnification, meta.screen_w, meta.screen_h)
    idx = starts[:, None] + np.arange(WINDOW_LEN)

    def block(rows) -> np.ndarray:
        """(2, n) series -> the (N, 2, 24) block of the kept windows."""
        out = np.empty((starts.size, 2, WINDOW_LEN))
        out[:, 0] = rows[0][idx]
        out[:, 1] = rows[1][idx]
        return out

    m = None
    if with_mouse:
        m = block((np.interp(t, mouse_t, mouse_x), np.interp(t, mouse_t, mouse_y)))
    vel = np.full((starts.size, 2), np.nan)
    if mode == "pretext":
        t_start = t_end - WINDOW_SPAN_S
        # a span that rounds to 0 s or a mouse step past float64 gives a
        # target that is not finite; `Windows.batch` reports it, not numpy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, pos in enumerate((mouse_x, mouse_y)):
                vel[:, k] = np.interp(t_end, mouse_t, pos) - np.interp(t_start, mouse_t, pos)
            vel /= (t_end - t_start)[:, None]
    return Windows(g=block(g), c=block(c), m=m, t_end=t_end, label=label, vel_target=vel,
                   subject_id=np.full(starts.size, meta.subject_id, dtype=object),
                   counts=counts)


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
        """Inverse of `to_json`; raises ValueError naming the key and field it
        rejects unless the screen size and every std are positive and every
        mean and std is a pair of finite numbers."""
        w, h = d["screen_w"], d["screen_h"]
        if not (_real(w) and _real(h) and w > 0 and h > 0):
            raise ValueError(f"stats: screen size must be positive numbers, got {w!r} x {h!r}")
        stats = cls(screen_w=w, screen_h=h)
        for k, (mu, sd) in d["channels"].items():
            stats.channels[k] = (_pair(mu, f"stats.channels.{k}: mean"),
                                 _pair(sd, f"stats.channels.{k}: std", positive=True))
        if d.get("vel") is not None:
            stats.vel = (_pair(d["vel"][0], "stats.vel: mean"),
                         _pair(d["vel"][1], "stats.vel: std", positive=True))
        return stats


def _pair(values, what: str, positive: bool = False) -> np.ndarray:
    a = np.array(values, dtype=np.float64)
    if a.shape != (2,) or not np.isfinite(a).all() or (positive and not (a > 0).all()):
        raise ValueError(f"{what} must be two finite{' positive' * positive} numbers, "
                         f"got {values!r}")
    return a


def _safe_std(sd: np.ndarray) -> np.ndarray:
    out = sd.copy()
    zero = out == 0
    if zero.any():
        import logging
        logging.getLogger(__name__).warning("zero std in normalization stats; using 1")
        out[zero] = 1.0
    return out


def _present(block: np.ndarray | None) -> np.ndarray | None:
    """The rows of a block that are not absent (all NaN)."""
    if block is None:
        return None
    absent = _absent(block)
    return block[~absent] if absent.any() else block


def one_screen(items):
    """The first of `items` (session metas or stats), after checking that
    all of them have one screen size: a run normalizes every window by it,
    so a second size raises DataError."""
    items = list(items)
    sizes = sorted({(x.screen_w, x.screen_h) for x in items})
    if len(sizes) > 1:
        raise DataError("screen sizes differ (" + ", ".join(f"{w:g}x{h:g}" for w, h in sizes)
                        + "); a run normalizes by one screen size")
    return items[0]


def compute_stats(windows, meta: SessionMeta) -> NormStats:
    """Per-feature normalization statistics over the rows where each stream
    is present; call on training windows only. `windows` is a `Windows`
    container or a list of `Window` records."""
    if not len(windows):
        raise DataError("cannot compute normalization stats from zero windows")
    windows = _as_windows(windows)
    dims = np.array([meta.screen_w, meta.screen_h])[:, None]
    stats = NormStats(screen_w=meta.screen_w, screen_h=meta.screen_h)
    for key in ("g", "c", "m"):
        block = _present(getattr(windows, key))
        if block is None or not len(block):
            continue
        mu, sd = _mean_std(block / dims, axis=(0, 2))  # (N, 2, 24)
        stats.channels[key] = (mu, _safe_std(sd))
    vel = _present(windows.vel_target)
    if len(vel):
        mu, sd = _mean_std(vel / dims[:, 0], axis=0)
        stats.vel = (mu, _safe_std(sd))
    return stats


def _mean_std(x: np.ndarray, axis) -> tuple:
    """(x.mean(axis), x.std(axis)) with the same bytes, the std taken from
    the mean already computed instead of a second one; x is overwritten."""
    mu = x.mean(axis=axis, keepdims=True)
    x -= mu
    x *= x
    return mu.reshape(-1), np.sqrt(np.add.reduce(x, axis=axis) / (x.size // mu.size))


def normalize(windows, stats: NormStats) -> Windows:
    """Standardize window streams (and velocity targets) with training-split
    stats: (v / screen dims - mean) / std on a copy of each block. Absent
    rows stay NaN; a stream the stats do not cover is passed through. An
    overflow (a subnormal std) gives inf silently; `Windows.batch` reports it.

    `windows` is a `Windows` container or a list of `Window` records.
    Returns a new container; the input is left untouched.
    """
    windows = _as_windows(windows)
    dims = np.array([stats.screen_w, stats.screen_h])
    scale = {k: (dims[:, None], mu[:, None], sd[:, None])
             for k, (mu, sd) in stats.channels.items()}
    if stats.vel is not None:
        scale["vel_target"] = (dims, *stats.vel)
    out = {}
    with np.errstate(over="ignore"):
        for key in ("g", "c", "m", "vel_target"):
            block = getattr(windows, key)
            if block is not None and key in scale:
                d, mu, sd = scale[key]
                block = block / d
                block -= mu
                block /= sd
            out[key] = block
    return Windows(**out, t_end=windows.t_end.copy(), label=windows.label.copy(),
                   subject_id=windows.subject_id.copy(), counts=dict(windows.counts))
