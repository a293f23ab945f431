import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import dataio, synth
from gazeintent.errors import ConfigError, DataError


def make_meta(magnification=2.0, screen_w=1000.0, screen_h=800.0):
    return dataio.SessionMeta(subject_id="S00", task="text",
                              magnification=magnification,
                              screen_w=screen_w, screen_h=screen_h)


def make_session(n=120, magnification=2.0, missing_idx=(), label="reading",
                 mouse=True):
    """Flat synthetic session: gaze on a gentle diagonal, zero-ish viewport."""
    meta = make_meta(magnification)
    q = dataio.q9
    gaze = []
    for i in range(n):
        t = q(i / dataio.GAZE_RATE)
        if i in missing_idx:
            lx = ly = None
        else:
            lx = 100.0 + i * 0.5
            ly = 200.0 + i * 0.25
        gaze.append(dataio.GazeSample(t=t, lx=lx, ly=ly, rx=110.0, ry=210.0,
                                      vx=10.0 if magnification > 1 else 0.0,
                                      vy=5.0 if magnification > 1 else 0.0))
    mice = []
    if mouse:
        for j in range(int(n / 12) + 1):
            t = j / dataio.MOUSE_RATE
            mice.append(dataio.MouseSample(
                t=q(t), mx=q(50.0 + 30.0 * t + 20.0 * math.sin(2.0 * t)),
                my=q(60.0 + 10.0 * t + 15.0 * math.cos(3.0 * t))))
    labels = [dataio.LabelInterval(0.0, q(n / dataio.GAZE_RATE + 1.0), label)]
    return dataio.Session(meta, gaze, mice, labels)


VELOCITY_FAULTS = ("collapsed_span", "mouse_overflow")


def break_velocity(session, fault: str) -> None:
    """Edit a session in place so that its pretext velocities are not
    finite. "collapsed_span": sample k at 1e16 + 1e8 k s, where
    t_end - 0.2 == t_end; "mouse_overflow": every mouse x step 3.4e308 px,
    past float64."""
    if fault == "collapsed_span":
        for record in (session.gaze, session.mouse):
            record.t[:] = 1e16 + 1e8 * np.round(record.t * dataio.GAZE_RATE)
    else:
        session.mouse.mx[:] = np.where(np.arange(len(session.mouse)) % 2, 1.7e308, -1.7e308)


class TestContainer:
    def test_round_trip(self, tmp_path):
        session = make_session(48, missing_idx=(5, 6))
        p = tmp_path / "a.session"
        dataio.write_session(session, p)
        back = dataio.parse_session(p)
        assert back.meta == session.meta
        assert back.gaze == session.gaze
        assert back.mouse == session.mouse
        assert back.labels == session.labels

    def test_write_is_deterministic(self, tmp_path):
        session = make_session(48)
        dataio.write_session(session, tmp_path / "a")
        dataio.write_session(session, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_columns_iterate_in_blocks(self):
        # records are made PARSE_ROWS rows at a time: the first one does not
        # wait for the whole recording as Python floats (288 B a row)
        n = 20 * dataio.PARSE_ROWS
        gaze = dataio.GazeColumns(np.arange(7.0 * n).reshape(7, n))
        tracemalloc.start()
        try:
            first = next(iter(gaze))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * dataio.PARSE_ROWS * 288
        assert first == gaze[0]
        assert list(gaze) == [gaze[i] for i in range(n)]

    def test_error_carries_line_number(self, tmp_path):
        session = make_session(48)
        p = tmp_path / "bad.session"
        dataio.write_session(session, p)
        lines = p.read_text().splitlines()
        lines[10] = "not,a,gaze,row"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"bad\.session:11:"):
            dataio.parse_session(p)

    def test_non_monotonic_gaze_rejected(self, tmp_path):
        session = make_session(10)
        session.gaze.t[5] = session.gaze.t[4]
        p = tmp_path / "a.session"
        dataio.write_session(session, p)
        with pytest.raises(DataError, match="non-monotonic"):
            dataio.parse_session(p)

    @pytest.mark.parametrize("section,row,col,bad", [
        ("#gaze", 2, 0, "nan"),     # t
        ("#gaze", 0, 0, "inf"),     # t on the first row
        ("#gaze", 3, 6, "nan"),     # vy
        ("#gaze", 3, 6, "-5000"),   # vy below the viewport range
        ("#gaze", 3, 6, "500"),     # vy above screen_h * (1 - 1/m) = 400
        ("#mouse", 1, 0, "nan"),    # t
        ("#mouse", 1, 1, "nan"),    # mx
        ("#mouse", 1, 2, "-inf"),   # my
        ("#labels", 0, 1, "nan"),   # end
        ("#labels", 0, 2, "writing"),  # unknown label
        ("#labels", 0, 1, "0"),     # empty label interval: end == start
        ("#gaze", 0, 0, ""),        # t missing on the first row
        ("#gaze", 3, 5, ""),        # vx missing
    ])
    def test_bad_numeric_field_rejected(self, tmp_path, section, row, col, bad):
        p = tmp_path / "bad.session"
        dataio.write_session(make_session(48), p)
        lines = p.read_text().splitlines()
        i = lines.index(section) + 2 + row   # past the section's column header
        fields = lines[i].split(",")
        fields[col] = bad
        lines[i] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"bad\.session:{i + 1}:"):
            dataio.parse_session(p)

    def test_range_bounds_are_inclusive(self, tmp_path):
        # screen 1000 x 800 at magnification 2: coordinates in [0, 1000] and
        # [0, 800], the viewport in [0, 500] and [0, 400] with 1e-9 slack
        p = tmp_path / "a.session"
        for lx, vx, ok in (("1000", "500", True), ("0", "-0.0000000005", True),
                           ("1000.0000001", "500", False), ("1", "500.0000000005", True),
                           ("1", "500.000000002", False), ("-0.0000001", "1", False)):
            dataio.write_session(make_session(10), p)
            lines = p.read_text().splitlines()
            i = lines.index("#gaze") + 4
            fields = lines[i].split(",")
            fields[1], fields[5] = lx, vx
            lines[i] = ",".join(fields)
            p.write_text("\n".join(lines) + "\n")
            if ok:
                assert dataio.parse_session(p).gaze.vx[2] == float(vx)
            else:
                with pytest.raises(DataError, match=rf"a\.session:{i + 1}: (coordinate|viewport)"):
                    dataio.parse_session(p)

    @pytest.mark.parametrize("subject_id", [[1], 1, None, {}])
    def test_non_string_subject_id_rejected(self, tmp_path, subject_id):
        p = tmp_path / "a.session"
        dataio.write_session(make_session(10), p)
        lines = p.read_text().splitlines()
        meta = json.loads(lines[0][len("#meta "):])
        lines[0] = "#meta " + json.dumps({**meta, "subject_id": subject_id})
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="subject_id must be a string"):
            dataio.parse_session(p)

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        session = make_session(10)
        session.gaze.lx[3] = 5000.0
        p = tmp_path / "a.session"
        dataio.write_session(session, p)
        with pytest.raises(DataError, match="out of range"):
            dataio.parse_session(p)

    def test_overlapping_labels_rejected(self, tmp_path):
        session = make_session(10)
        session.labels = [dataio.LabelInterval(0.0, 1.0, "reading"),
                          dataio.LabelInterval(0.5, 2.0, "scanning")]
        p = tmp_path / "a.session"
        dataio.write_session(session, p)
        with pytest.raises(DataError, match="overlapping"):
            dataio.parse_session(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "a.session"
        p.write_text("#gaze\n")
        with pytest.raises(DataError, match="#meta"):
            dataio.parse_session(p)

    def test_bad_magnification_rejected(self, tmp_path):
        session = make_session(10)
        session.meta.magnification = 0.5
        p = tmp_path / "a.session"
        dataio.write_session(session, p)
        with pytest.raises(DataError, match="a.session:1: malformed meta: magnification"):
            dataio.parse_session(p)

    @pytest.mark.parametrize("field,value,message", [
        ("task", "book", "unknown task 'book'"),
        ("screen_w", 0, "screen dimensions must be positive"),
        ("gaze_rate", 60, "v1 files are fixed at 120/10 Hz")])
    def test_meta_fault_names_the_file(self, tmp_path, field, value, message):
        p = tmp_path / "a.session"
        dataio.write_session(make_session(10), p)
        meta, rest = p.read_text().split("\n", 1)
        meta = {**json.loads(meta[len("#meta "):]), field: value}
        p.write_text(f"#meta {json.dumps(meta)}\n{rest}")
        with pytest.raises(DataError) as e:
            dataio.parse_session(p)
        assert str(e.value) == f"{p}:1: malformed meta: {message}"

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_q9_is_idempotent(self, x):
        assert dataio.q9(dataio.q9(x)) == dataio.q9(x)


class TestWriter:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "a.session"
        dataio.write_session(make_session(30), p)
        old = p.read_bytes()

        def chunks():
            yield "#meta {}\n"
            raise RuntimeError("mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            dataio.write_file(p, chunks())
        assert p.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [p]

    def test_os_error_names_the_path(self, tmp_path):
        (tmp_path / "report.json").mkdir()
        with pytest.raises(ConfigError, match=f"cannot write {tmp_path / 'report.json'}: "
                                              "Is a directory"):
            dataio.write_file(tmp_path / "report.json", {"a": 1})
        assert sorted(tmp_path.iterdir()) == [tmp_path / "report.json"]

    def test_contents(self, tmp_path):
        doc = {"b": [1.5, {"d": None, "c": "x"}], "a": 2}
        dataio.write_file(tmp_path / "d" / "doc.json", doc)
        dataio.write_file(tmp_path / "rows.json", [doc])
        dataio.write_file(tmp_path / "w.bin", iter([b"\x00", b"\xff"]))
        assert (tmp_path / "d" / "doc.json").read_text() == json.dumps(doc, indent=1,
                                                                       sort_keys=True)
        assert (tmp_path / "rows.json").read_text() == json.dumps([doc], indent=1,
                                                                  sort_keys=True)
        assert (tmp_path / "w.bin").read_bytes() == b"\x00\xff"

    def test_session_is_written_in_chunks(self, tmp_path):
        # one PARSE_ROWS chunk at a time: a 300 s session is never one string
        session = synth.generate_session(synth.SynthConfig(seed=0, session_len=300.0), 0, "text")
        path = tmp_path / "s.session"
        tracemalloc.start()
        try:
            dataio.write_session(session, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


def _text_q9(values) -> np.ndarray:
    """The quantizer's oracle: each value printed with `%.9g` and parsed back."""
    return np.array([float(dataio._F9 % x) for x in values], dtype=np.float64)


def _neighbour(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _scaled(texts, exponents):
    """Each text times 10**e, as the nearest double or one of its two
    neighbours on either side, of either sign."""
    return st.builds(lambda text, e, steps, sign: sign * _neighbour(float(f"{text}e{e}"), steps),
                     texts, exponents, st.integers(-2, 2), st.sampled_from([1.0, -1.0]))


# (m + 0.5) * 10**-k for every 9-digit m and exact 10**k: the products that the
# fast path must leave to the text
NEAR_TIES = _scaled(st.integers(10**8, 10**9 - 1).map(lambda m: f"{m}.5"), st.integers(-22, 0))
EDGES = st.one_of(
    _scaled(st.just("1"), st.integers(-16, 12)),                      # powers of ten
    _scaled(st.sampled_from(["999999999.5", "99999999.5"]), st.integers(-23, 1)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320]),
    st.floats(min_value=1e9), st.floats(max_value=-1e9),
    st.floats(-1e-14, 1e-14),
    st.floats(),                                                       # NaN and inf too
)


class TestQuantizer:
    @given(st.lists(NEAR_TIES, max_size=20), st.lists(EDGES, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_array_equals_the_text_round_trip(self, ties, edges):
        values = ties + edges
        with mock.patch.object(dataio, "fmt9", wraps=dataio.fmt9) as text:
            got = dataio.q9(np.array(values, dtype=np.float64))
        assert got.view(np.int64).tolist() == _text_q9(values).view(np.int64).tolist()
        # every near tie went through the text
        assert set(ties) <= {call.args[0] for call in text.call_args_list}

    def test_block_across_chunks(self):
        rng = np.random.default_rng(3)
        n = 2 * dataio.PARSE_ROWS + 7
        block = np.stack([rng.uniform(0, 2000, n), rng.normal(0, 1, n) * 10.0 ** rng.integers(-20, 20, n),
                          np.where(rng.random(n) < 0.2, np.nan, rng.uniform(-1, 1, n))])
        before = block.copy()
        got = dataio.q9(block)
        assert got.shape == block.shape and got.dtype == np.float64
        assert got.tobytes() == _text_q9(block.ravel().tolist()).reshape(block.shape).tobytes()
        assert block.tobytes() == before.tobytes()

    def test_a_number_stays_a_number(self):
        assert type(dataio.q9(0.1 + 0.2)) is float and dataio.q9(0.1 + 0.2) == 0.3
        assert type(dataio.q9(np.float64(2.0))) is float
        assert dataio.q9(np.empty((4, 0))).shape == (4, 0)


class TestEyeSelection:
    def _gaze(self, n, left_missing, right_missing):
        out = []
        for i in range(n):
            out.append(dataio.GazeSample(
                t=i / 120, vx=0.0, vy=0.0,
                lx=None if i in left_missing else 1.0,
                ly=None if i in left_missing else 2.0,
                rx=None if i in right_missing else 3.0,
                ry=None if i in right_missing else 4.0))
        return dataio.GazeColumns.from_rows(out)

    def test_uses_ceil_of_ten_percent(self):
        # 25 samples -> head of 3; left missing only at index 3 is invisible
        gaze = self._gaze(25, left_missing={3}, right_missing={0})
        assert dataio.select_eye(gaze) == "left"

    def test_picks_cleaner_eye(self):
        gaze = self._gaze(30, left_missing={0, 1}, right_missing={0})
        assert dataio.select_eye(gaze) == "right"

    def test_tie_prefers_left(self):
        gaze = self._gaze(30, left_missing={0}, right_missing={1})
        assert dataio.select_eye(gaze) == "left"

    def test_both_eyes_dead_rejected(self):
        gaze = self._gaze(10, left_missing={0}, right_missing={0})
        with pytest.raises(DataError):
            dataio.select_eye(gaze)

    def test_single_coordinate_missing_counts_as_missing(self):
        gaze = self._gaze(10, left_missing=set(), right_missing=set())
        gaze.ly[0] = np.nan  # x present, y absent
        _, _, missing = dataio.eye_series(gaze, "left")
        assert missing[0]
        x, _, _ = dataio.eye_series(gaze, "left")
        assert np.isnan(x[0])


class TestInterpolation:
    def test_interior_gap_is_linear(self):
        arr = np.array([1.0, np.nan, np.nan, 4.0])
        filled = dataio.interpolate_missing(arr)
        np.testing.assert_allclose(filled, [1.0, 2.0, 3.0, 4.0])
        assert np.isnan(arr).tolist() == [False, True, True, False]  # the input is left as it was

    def test_edges_use_nearest(self):
        filled = dataio.interpolate_missing(
            np.array([np.nan, 5.0, 7.0, np.nan, np.nan]))
        np.testing.assert_allclose(filled, [5.0, 5.0, 7.0, 7.0, 7.0])

    def test_all_missing_passthrough(self):
        arr = np.array([np.nan, np.nan])
        filled = dataio.interpolate_missing(arr)
        assert np.isnan(filled).all()
        assert np.isnan(arr).all()

    @given(st.lists(st.one_of(st.none(), st.floats(-100, 100)),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_fill_properties(self, vals):
        arr = np.array([np.nan if v is None else v for v in vals])
        filled = dataio.interpolate_missing(arr)
        mask = np.isnan(arr)
        if mask.all():
            return
        valid = arr[~np.isnan(arr)]
        np.testing.assert_array_equal(filled[~mask], arr[~mask])
        assert not np.isnan(filled).any()
        assert filled.min() >= valid.min() - 1e-9
        assert filled.max() <= valid.max() + 1e-9


class TestRemap:
    def test_identity_without_magnification(self):
        meta = make_meta(magnification=1.0)
        assert dataio.remap_to_screen(300.0, 400.0, 0.0, 0.0, meta) == (300.0, 400.0)

    def test_hand_case(self):
        meta = make_meta(magnification=2.0)
        assert dataio.remap_to_screen(100.0, 50.0, 400.0, 300.0, meta) == (450.0, 325.0)

    def test_clamped_to_screen(self):
        meta = make_meta(magnification=2.0, screen_w=1000.0, screen_h=800.0)
        cx, cy = dataio.remap_to_screen(999.0, 799.0, 600.0, 500.0, meta)
        assert (cx, cy) == (1000.0, 800.0)

    def test_inverts_generated_view(self):
        # p = (content - viewport) * M should map back to content exactly
        meta = make_meta(magnification=3.0)
        content = (321.5, 210.25)
        view = (200.0, 100.0)
        p = ((content[0] - view[0]) * 3.0, (content[1] - view[1]) * 3.0)
        cx, cy = dataio.remap_to_screen(p[0], p[1], view[0], view[1], meta)
        assert (cx, cy) == pytest.approx(content)

    def test_compensate_bytes_equal_np_clip(self):
        # 5,000 columns: every pair of special gaze and viewport values
        # (NaN, +-inf, -0.0, 0.0, the screen edge), then random values
        # with specials sprinkled in; the same bytes as np.clip, but for
        # the sign of a clamped -0.0
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1080.0])
        rng = np.random.default_rng(11)
        g = rng.normal(900.0, 1500.0, size=(2, 5000))
        view = rng.normal(0.0, 600.0, size=(2, 5000))
        pairs = special.size ** 2
        g[:, :pairs] = np.repeat(special, special.size)
        view[:, :pairs] = np.tile(special, special.size)
        for a in (g, view):
            hit = rng.random(a.shape) < 0.05
            a[hit] = rng.choice(special, size=int(hit.sum()))
        with np.errstate(invalid="ignore"):   # inf - inf
            clamped = view + g / 1.0
            got = dataio.compensate(g, view, 1.0, 1920.0, 1080.0)
        assert np.isnan(clamped).any() and (np.signbit(clamped) & (clamped == 0)).any()
        want = np.clip(clamped, 0.0, [[1920.0], [1080.0]])
        # np.clip clamps -0.0 to +0.0 up to 8,192 elements and keeps -0.0
        # beyond; compensate gives +0.0 at every size
        assert (np.signbit(want) & (want == 0)).any()
        want[want == 0] = 0.0
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for n in (dataio.WINDOW_LEN, 5000):
            zeros = np.full((2, n), -0.0)
            assert not np.signbit(dataio.compensate(zeros, zeros, 2.0, 1920.0, 1080.0)).any()


def mouse_velocity(mouse: list, t_start: float, t_end: float):
    """Scalar reference for `windowize`'s pretext targets: mean cursor
    velocity (px/s) over [t_start, t_end]; None when the window falls
    outside the mouse record."""
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
    """Scalar reference for `windowize`'s labels: class id of the interval
    covering t (half-open [start, end)), else None."""
    for iv in labels:
        if iv.start <= t < iv.end:
            return dataio.LABELS.index(iv.label)
    return None


class TestMouseVelocity:
    def test_linear_motion_exact(self):
        mouse = [dataio.MouseSample(t=j / 10, mx=3.0 * j / 10 + 1.0, my=7.0)
                 for j in range(20)]
        v = mouse_velocity(mouse, 0.5, 0.7)
        np.testing.assert_allclose(v, [3.0, 0.0], atol=1e-9)

    def test_piecewise_oracle(self):
        # positions known at 0.1s grid; oracle interpolates the two endpoints
        ts = np.arange(0, 2.0, 0.1)
        xs = np.sin(ts)
        mouse = [dataio.MouseSample(t=float(t), mx=float(x), my=0.0)
                 for t, x in zip(ts, xs)]
        t0, t1 = 0.33, 0.53
        x0 = np.interp(t0, ts, xs)
        x1 = np.interp(t1, ts, xs)
        v = mouse_velocity(mouse, t0, t1)
        assert v[0] == pytest.approx((x1 - x0) / (t1 - t0))

    def test_outside_record_is_none(self):
        mouse = [dataio.MouseSample(t=1.0, mx=0.0, my=0.0),
                 dataio.MouseSample(t=2.0, mx=1.0, my=1.0)]
        assert mouse_velocity(mouse, 0.5, 0.7) is None
        assert mouse_velocity(mouse, 1.9, 2.1) is None

    def test_empty_record_is_none(self):
        assert mouse_velocity([], 0.0, 0.2) is None


class TestLabelAt:
    def test_half_open_intervals(self):
        labels = [dataio.LabelInterval(0.0, 1.0, "reading"),
                  dataio.LabelInterval(1.0, 2.0, "scanning")]
        assert label_at(labels, 0.0) == dataio.READING
        assert label_at(labels, 0.999) == dataio.READING
        assert label_at(labels, 1.0) == dataio.SCANNING
        assert label_at(labels, 2.0) is None

    def test_gap_is_unlabeled(self):
        labels = [dataio.LabelInterval(0.0, 1.0, "reading"),
                  dataio.LabelInterval(3.0, 4.0, "scanning")]
        assert label_at(labels, 2.0) is None


class TestWindowize:
    def test_count_formula(self):
        for n, stride in ((24, 1), (48, 1), (48, 6), (100, 7), (240, 24)):
            session = make_session(n)
            got = len(dataio.windowize(session, stride, "labeled", eye="left"))
            assert got == (n - 24) // stride + 1, (n, stride)

    def test_too_short_session_is_empty(self):
        assert len(dataio.windowize(make_session(23), 1, "labeled", eye="left")) == 0

    def test_half_missing_kept_more_dropped(self):
        kept = make_session(24, missing_idx=set(range(12)))
        dropped = make_session(24, missing_idx=set(range(13)))
        assert len(dataio.windowize(kept, 1, "labeled", eye="left")) == 1
        assert len(dataio.windowize(dropped, 1, "labeled", eye="left")) == 0

    def test_unlabeled_windows_dropped(self):
        session = make_session(48)
        # only the first 0.25 s annotated -> windows ending later are dropped
        session.labels = [dataio.LabelInterval(0.0, 0.25, "reading")]
        wins = dataio.windowize(session, 1, "labeled", eye="left")
        expected = sum(1 for start in range(0, 25)
                       if session.gaze[start + 23].t < 0.25)
        assert len(wins) == expected > 0

    def test_label_taken_at_final_timestep(self):
        session = make_session(48)
        boundary = session.gaze[30].t
        session.labels = [dataio.LabelInterval(0.0, boundary, "reading"),
                          dataio.LabelInterval(boundary, 10.0, "scanning")]
        wins = dataio.windowize(session, 1, "labeled", eye="left")
        for w in wins:
            expected = dataio.READING if w.t_end < boundary else dataio.SCANNING
            assert w.label == expected

    def test_compensation_applied(self):
        session = make_session(24, magnification=2.0)
        w = dataio.windowize(session, 1, "labeled", eye="left")[0]
        np.testing.assert_allclose(w.c[0], 10.0 + w.g[0] / 2.0)
        np.testing.assert_allclose(w.c[1], 5.0 + w.g[1] / 2.0)

    def test_pretext_velocity_matches_oracle(self):
        session = make_session(120)
        wins = dataio.windowize(session, 6, "pretext", eye="left")
        assert wins
        for w in wins:
            expected = mouse_velocity(session.mouse, w.t_end - 0.2, w.t_end)
            np.testing.assert_allclose(w.vel_target, expected)
            assert w.label is None

    @pytest.mark.parametrize("fault", VELOCITY_FAULTS)
    def test_velocity_that_is_not_finite_warns_nothing(self, fault):
        session = make_session(240)
        break_velocity(session, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            wins = dataio.windowize(session, 6, "pretext", eye="left")
        assert wins.counts["kept"] == len(wins) > 0
        assert not np.isfinite(wins.vel_target).all()

    def test_pretext_without_mouse_coverage_dropped(self):
        session = make_session(120, mouse=False)
        assert len(dataio.windowize(session, 6, "pretext", eye="left")) == 0

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError):
            dataio.windowize(make_session(48), 0, "labeled", eye="left")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            dataio.windowize(make_session(48), 1, "windowed", eye="left")

    @pytest.mark.parametrize("eye", ["Left", "RIGHT", "both", ""])
    def test_unknown_eye_rejected(self, eye):
        session = make_session(48)
        message = f"eye must be 'left' or 'right', got {eye!r}"
        with pytest.raises(ConfigError, match=message):
            dataio.eye_series(session.gaze, eye)
        with pytest.raises(ConfigError, match=message):
            dataio.windowize(session, 1, "labeled", eye=eye)

    def test_count_against_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(24, 200))
            stride = int(rng.integers(1, 25))
            missing = set(np.flatnonzero(rng.random(n) < 0.3).tolist())
            session = make_session(n, missing_idx=missing)
            expected = 0
            for start in range(0, n - 24 + 1, stride):
                if len(missing & set(range(start, start + 24))) <= 12:
                    expected += 1
            got = len(dataio.windowize(session, stride, "labeled", eye="left"))
            assert got == expected, (trial, n, stride)


class TestNormalization:
    def test_training_windows_standardized(self):
        session = make_session(240)
        wins = dataio.windowize(session, 2, "pretext", eye="left")
        stats = dataio.compute_stats(wins, session.meta)
        normed = dataio.normalize(wins, stats)
        for key in ("g", "c"):
            pooled = np.stack([getattr(w, key) for w in normed])
            np.testing.assert_allclose(pooled.mean(axis=(0, 2)), 0.0, atol=1e-9)
            np.testing.assert_allclose(pooled.std(axis=(0, 2)), 1.0, atol=1e-9)
        vels = np.stack([w.vel_target for w in normed])
        np.testing.assert_allclose(vels.mean(axis=0), 0.0, atol=1e-9)

    def test_constant_channel_uses_unit_std(self):
        session = make_session(240)
        session.gaze.ly[:] = 300.0  # freeze the y coordinate
        wins = dataio.windowize(session, 2, "labeled", eye="left")
        stats = dataio.compute_stats(wins, session.meta)
        assert stats.channels["g"][1][1] == 1.0
        normed = dataio.normalize(wins, stats)
        np.testing.assert_allclose(normed[0].g[1], 0.0, atol=1e-9)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["channels"]["g"][1].__setitem__(0, 0.0),
         "stats.channels.g: std must be two finite positive numbers, got [0.0, "),
        (lambda d: d["channels"]["c"][0].__setitem__(1, math.inf),
         "stats.channels.c: mean must be two finite numbers, got ["),
        (lambda d: d["vel"][1].append(1.0), "stats.vel: std must be two finite positive numbers"),
        (lambda d: d.update(screen_w=0), "stats: screen size must be positive numbers, got 0 x")])
    def test_stats_json_rejection_names_key_and_field(self, edit, message):
        session = make_session(240)
        doc = dataio.compute_stats(dataio.windowize(session, 2, "pretext", eye="left"),
                                   session.meta).to_json()
        edit(doc)
        with pytest.raises(ValueError) as raised:
            dataio.NormStats.from_json(doc)
        assert str(raised.value).startswith(message)

    def test_batch_rejects_a_block_not_finite_as_float32(self):
        wins = dataio.windowize(make_session(240), 2, "labeled", eye="left")
        assert wins.batch(("g", "c"))["c"].dtype == np.float32
        wins.c[0, 1, 5] = 1e39   # finite as float64, past float32's range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="model input stream c is not finite"):
                wins.batch(("g", "c"))
            wins.c[0, 1, 5] = np.nan
            with pytest.raises(DataError, match="stream c"):
                wins.batch(("c",))
            wins.batch(("g",))

    def test_stats_round_trip_json(self):
        session = make_session(240)
        wins = dataio.windowize(session, 2, "pretext", eye="left")
        stats = dataio.compute_stats(wins, session.meta)
        back = dataio.NormStats.from_json(stats.to_json())
        a = dataio.normalize(wins[:3], stats)
        b = dataio.normalize(wins[:3], back)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.g, wb.g)
            np.testing.assert_array_equal(wa.c, wb.c)
            np.testing.assert_array_equal(wa.vel_target, wb.vel_target)

    def test_stats_bytes_equal_numpy_mean_and_std(self):
        # labeled windows carry no mouse block or velocity: absent (NaN) rows
        session = make_session(600, missing_idx=set(range(100, 110)))
        mixed = (dataio.windowize(session, 3, "labeled", eye="left")
                 + dataio.windowize(session, 2, "pretext", eye="left", with_mouse=True))
        stats = dataio.compute_stats(mixed, session.meta)
        dims = np.array([session.meta.screen_w, session.meta.screen_h])
        present = {k: ~np.isnan(getattr(mixed, k)).all(axis=(1, 2)) for k in ("g", "c", "m")}
        assert present["m"].sum() not in (0, len(mixed))
        for key, rows in present.items():
            scaled = getattr(mixed, key)[rows] / dims[:, None]
            mu, sd = stats.channels[key]
            assert mu.tobytes() == np.mean(scaled, axis=(0, 2)).tobytes(), key
            assert sd.tobytes() == np.std(scaled, axis=(0, 2)).tobytes(), key
        v = mixed.vel_target[present["m"]] / dims
        assert stats.vel[0].tobytes() == np.mean(v, axis=0).tobytes()
        assert stats.vel[1].tobytes() == np.std(v, axis=0).tobytes()

    def test_empty_stats_rejected(self):
        with pytest.raises(DataError):
            dataio.compute_stats([], make_meta())


# ---------------------------------------------------------------------------
# vectorized windowize / normalize against the per-window reference


def reference_windows(session, stride, mode, eye, with_mouse):
    """Per-window loop over the scalar oracles `label_at` and
    `mouse_velocity`, with the mouse stream from `np.interp` per window.
    Returns (g, c, m, vel_target, t_end, label) tuples."""
    W = dataio.WINDOW_LEN
    x, y, missing = dataio.eye_series(session.gaze, eye)
    x = dataio.interpolate_missing(x)
    y = dataio.interpolate_missing(y)
    t = np.array([s.t for s in session.gaze])
    vx = np.array([s.vx for s in session.gaze])
    vy = np.array([s.vy for s in session.gaze])
    meta = session.meta
    cx = np.clip(vx + x / meta.magnification, 0.0, meta.screen_w)
    cy = np.clip(vy + y / meta.magnification, 0.0, meta.screen_h)
    mt = np.array([s.t for s in session.mouse])
    mx = np.array([s.mx for s in session.mouse])
    my = np.array([s.my for s in session.mouse])
    out = []
    for start in range(0, len(t) - W + 1, stride):
        end = start + W
        if missing[start:end].sum() > dataio.MAX_MISSING:
            continue
        t_end = float(t[end - 1])
        label = vel = m = None
        if mode == "labeled":
            label = label_at(session.labels, t_end)
            if label is None:
                continue
        else:
            vel = mouse_velocity(session.mouse, t_end - dataio.WINDOW_SPAN_S, t_end)
            if vel is None:
                continue
        if with_mouse:
            if not (session.mouse and mt[0] <= t[start] and t_end <= mt[-1]):
                continue
            m = np.stack([np.interp(t[start:end], mt, mx), np.interp(t[start:end], mt, my)])
        out.append((np.stack([x[start:end], y[start:end]]),
                    np.stack([cx[start:end], cy[start:end]]), m, vel, t_end, label))
    return out


def _bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


@st.composite
def hostile_sessions(draw):
    """Sessions of 24..600 samples with random dropout on both eyes,
    label lists with gaps in shuffled order, and mouse records that may
    start late, end early or be empty."""
    q = dataio.q9
    n = draw(st.integers(24, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drop_l, drop_r = draw(st.floats(0, 0.6)), draw(st.floats(0, 0.6))
    t0 = draw(st.floats(0, 5))
    meta = make_meta(magnification=draw(st.sampled_from([1.0, 1.5, 3.0])))
    t = [q(t0 + i / dataio.GAZE_RATE + rng.uniform(0, 1e-3)) for i in range(n)]
    walk = np.cumsum(rng.normal(0, 20, size=(n, 4)), axis=0) + [500, 400, 500, 400]
    gaze = []
    for i in range(n):
        lx, ly, rx, ry = (q(float(np.clip(v, 0, d)))
                          for v, d in zip(walk[i], (1000, 800, 1000, 800)))
        if rng.random() < drop_l:
            lx, ly = (None, ly) if rng.random() < 0.5 else (None, None)
        if rng.random() < drop_r:
            rx, ry = (rx, None) if rng.random() < 0.5 else (None, None)
        gaze.append(dataio.GazeSample(t=t[i], lx=lx, ly=ly, rx=rx, ry=ry,
                                      vx=q(rng.uniform(0, 200)), vy=q(rng.uniform(0, 100))))

    # label boundaries: gaze timestamps (exercises the half-open test) or
    # arbitrary times, some intervals left out as gaps, list order shuffled
    k = draw(st.integers(0, 12))
    bounds = sorted({t[int(rng.integers(n))] if rng.random() < 0.5
                     else q(rng.uniform(t0 - 0.3, t[-1] + 0.3)) for _ in range(k)})
    labels = [dataio.LabelInterval(a, b, dataio.LABELS[int(rng.integers(2))])
              for a, b in zip(bounds, bounds[1:]) if rng.random() < 0.7]
    labels = [labels[i] for i in rng.permutation(len(labels))]

    def anchor(lo, hi):
        """A gaze timestamp in [lo, hi] (exercises the coverage bounds), or any time."""
        inside = [x for x in t if lo <= x <= hi]
        if inside and rng.random() < 0.5:
            return inside[int(rng.integers(len(inside)))]
        return q(rng.uniform(lo, hi))

    coverage = draw(st.sampled_from(["full", "late", "early", "both", "empty"]))
    m_start = t0 - 0.1 if coverage in ("full", "early") else anchor(t0, t[-1])
    m_end = t[-1] + 0.1 if coverage in ("full", "late") else anchor(m_start, t[-1])
    mouse_t = [] if coverage == "empty" else sorted(
        {m_start, m_end} | {q(m_start + j / dataio.MOUSE_RATE)
                            for j in range(int((m_end - m_start) * dataio.MOUSE_RATE) + 1)
                            if q(m_start + j / dataio.MOUSE_RATE) <= m_end})
    mouse = [dataio.MouseSample(t=mt, mx=q(rng.uniform(0, 1000)), my=q(rng.uniform(0, 800)))
             for mt in mouse_t]
    return dataio.Session(meta, gaze, mouse, labels)


class TestVectorizedReference:
    @given(session=hostile_sessions(), stride=st.integers(1, 25),
           mode=st.sampled_from(["labeled", "pretext"]), with_mouse=st.booleans(),
           eye=st.sampled_from(["left", "right"]))
    @settings(max_examples=150, deadline=None)
    def test_windowize_equals_reference(self, session, stride, mode, with_mouse, eye):
        got = dataio.windowize(session, stride, mode, eye=eye, with_mouse=with_mouse)
        want = reference_windows(session, stride, mode, eye, with_mouse)
        assert len(got) == len(want)
        for w, (g, c, m, vel, t_end, label) in zip(got, want):
            assert _bytes(w.g) == _bytes(g)
            assert _bytes(w.c) == _bytes(c)
            assert _bytes(w.m) == _bytes(m)
            assert _bytes(w.vel_target) == _bytes(vel)
            assert type(w.t_end) is float and w.t_end == t_end
            assert w.label == label and type(w.label) is type(label)
            assert w.subject_id == session.meta.subject_id
        # the blocks and columns themselves, with the "absent" rule
        n = len(want)
        for key, k in (("g", 0), ("c", 1)):
            block = getattr(got, key)
            assert block.shape == (n, 2, 24) and block.flags.c_contiguous
            assert block.tobytes() == b"".join(r[k].tobytes() for r in want)
        if with_mouse:
            assert got.m.shape == (n, 2, 24) and got.m.flags.c_contiguous
            assert got.m.tobytes() == b"".join(r[2].tobytes() for r in want)
        else:
            assert got.m is None
        vel = [[np.nan] * 2 if r[3] is None else r[3] for r in want]
        np.testing.assert_array_equal(got.vel_target, np.array(vel).reshape(n, 2))
        assert got.t_end.tolist() == [r[4] for r in want]
        assert got.label.tolist() == [-1 if r[5] is None else r[5] for r in want]
        assert got.subject_id.tolist() == [session.meta.subject_id] * n

    @given(session=hostile_sessions(), stride=st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_normalize_equals_per_window_formula(self, session, stride):
        mixed = (dataio.windowize(session, stride, "labeled", eye="left")
                 + dataio.windowize(session, stride, "pretext", eye="left", with_mouse=True))
        if not mixed:
            return
        before = [(_bytes(w.g), _bytes(w.c), _bytes(w.m), _bytes(w.vel_target)) for w in mixed]
        stats = dataio.compute_stats(mixed, session.meta)
        got = dataio.normalize(mixed, stats)
        dims = np.array([stats.screen_w, stats.screen_h])[:, None]
        assert len(got) == len(mixed)
        for w, nw in zip(mixed, got):
            for key in ("g", "c", "m"):
                arr = getattr(w, key)
                if arr is None or key not in stats.channels:
                    assert getattr(nw, key) is arr
                    continue
                mu, sd = stats.channels[key]
                want = ((arr / dims) - mu[:, None]) / sd[:, None]
                assert _bytes(getattr(nw, key)) == _bytes(want)
            if w.vel_target is None or stats.vel is None:
                assert nw.vel_target is w.vel_target
            else:
                mu, sd = stats.vel
                want = ((w.vel_target / dims[:, 0]) - mu) / sd
                assert _bytes(nw.vel_target) == _bytes(want)
            assert (nw.t_end, nw.label, nw.subject_id) == (w.t_end, w.label, w.subject_id)
        assert [(_bytes(w.g), _bytes(w.c), _bytes(w.m), _bytes(w.vel_target))
                for w in mixed] == before

    def test_mouse_coverage_bounds_are_inclusive(self):
        # the mouse record starts and ends exactly on gaze timestamps
        session = make_session(120)
        t = [s.t for s in session.gaze]
        session.mouse = [dataio.MouseSample(t=mt, mx=float(k), my=2.0 * k)
                         for k, mt in enumerate([t[24], dataio.q9(t[24] + 0.1), t[60], t[95]])]
        for mode in ("labeled", "pretext"):
            for with_mouse in (False, True):
                got = dataio.windowize(session, 1, mode, eye="left", with_mouse=with_mouse)
                want = reference_windows(session, 1, mode, "left", with_mouse)
                assert [(w.t_end, _bytes(w.m), _bytes(w.vel_target)) for w in got] == \
                    [(t_end, _bytes(m), _bytes(vel)) for _, _, m, vel, t_end, _ in want]
        kept = dataio.windowize(session, 1, "labeled", eye="left", with_mouse=True)
        assert [w.t_end for w in kept] == [t[s + 23] for s in range(24, 73)]

    def test_overlapping_windows_share_no_memory(self):
        session = make_session(120)
        wins = dataio.windowize(session, 1, "pretext", eye="left", with_mouse=True)
        normed = dataio.normalize(wins, dataio.compute_stats(wins, session.meta))
        for batch in (wins, normed):
            first, second = batch[0], batch[1]
            keep = {k: getattr(second, k).copy() for k in ("g", "c", "m", "vel_target")}
            own_c = first.c.copy()
            first.g += 1.0
            first.vel_target *= 2.0
            for k, v in keep.items():
                np.testing.assert_array_equal(getattr(second, k), v)
            np.testing.assert_array_equal(first.c, own_c)


def _record(w):
    """Everything a `Window` record holds, comparable with ==."""
    return (_bytes(w.g), _bytes(w.c), _bytes(w.m), _bytes(w.vel_target),
            w.t_end, type(w.t_end), w.label, type(w.label), w.subject_id)


def _reference_records(session, stride, mode, eye, with_mouse):
    """`_record` of each window of the per-window reference list."""
    return [(_bytes(g), _bytes(c), _bytes(m), _bytes(vel), t_end, float, label, type(label),
             session.meta.subject_id)
            for g, c, m, vel, t_end, label
            in reference_windows(session, stride, mode, eye, with_mouse)]


class TestWindowsContainer:
    """A `Windows` container reads as the per-window list it replaced."""

    @given(session=hostile_sessions(), stride=st.integers(1, 25),
           mode=st.sampled_from(["labeled", "pretext"]), with_mouse=st.booleans(),
           eye=st.sampled_from(["left", "right"]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sequence_reads_equal_reference_list(self, session, stride, mode, with_mouse,
                                                 eye, data):
        got = dataio.windowize(session, stride, mode, eye=eye, with_mouse=with_mouse)
        want = _reference_records(session, stride, mode, eye, with_mouse)
        n = len(want)
        assert len(got) == n and bool(got) == bool(want)
        assert [_record(w) for w in got] == want
        if n:
            i = data.draw(st.integers(-n, n - 1), label="index")
            assert _record(got[i]) == want[i]
        with pytest.raises(IndexError):
            got[n]
        bound = st.integers(-n - 2, n + 2) | st.none()
        sl = slice(data.draw(bound), data.draw(bound),
                   data.draw(st.sampled_from([None, 1, 2, 5, -1, -3])))
        assert [_record(w) for w in got[sl]] == want[sl]
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else [],
                       dtype=np.intp)
        assert [_record(w) for w in got[idx]] == [want[k] for k in idx]
        assert [_record(w) for w in dataio.Windows.from_rows(got)] == want

    @given(session=hostile_sessions(), stride=st.integers(1, 25),
           eye=st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_add_concatenates_with_absent_streams(self, session, stride, eye):
        labeled = dataio.windowize(session, stride, "labeled", eye=eye)
        pretext = dataio.windowize(session, stride, "pretext", eye=eye, with_mouse=True)
        want_l = _reference_records(session, stride, "labeled", eye, False)
        want_p = _reference_records(session, stride, "pretext", eye, True)
        both = labeled + pretext
        assert [_record(w) for w in both] == want_l + want_p
        assert [_record(w) for w in pretext + labeled] == want_p + want_l
        assert both.counts == {k: labeled.counts[k] + pretext.counts[k] for k in dataio.COUNTS}
        if len(pretext):
            assert np.isnan(both.m[:len(labeled)]).all()
            assert np.isnan(both.vel_target[:len(labeled)]).all()
            assert (both.label[len(labeled):] == -1).all()

    @given(session=hostile_sessions(), stride=st.sampled_from([1, 6, 7]),
           mode=st.sampled_from(["labeled", "pretext"]), with_mouse=st.booleans(),
           eye=st.sampled_from(["left", "right"]))
    @settings(max_examples=100, deadline=None)
    def test_counts_add_up_to_window_positions(self, session, stride, mode, with_mouse, eye):
        got = dataio.windowize(session, stride, mode, eye=eye, with_mouse=with_mouse)
        t = session.gaze.t
        _, _, missing = dataio.eye_series(session.gaze, eye)
        mt = session.mouse.t
        want = dict.fromkeys(dataio.COUNTS, 0)
        positions = range(0, len(t) - dataio.WINDOW_LEN + 1, stride)
        for start in positions:
            t_end = float(t[start + dataio.WINDOW_LEN - 1])
            if missing[start:start + dataio.WINDOW_LEN].sum() > dataio.MAX_MISSING:
                reason = "dropped_missing"
            elif mode == "labeled" and label_at(session.labels, t_end) is None:
                reason = "dropped_unlabeled"
            elif (mode == "pretext" and mouse_velocity(
                    session.mouse, t_end - dataio.WINDOW_SPAN_S, t_end) is None) or (
                    with_mouse and not (mt.size and mt[0] <= t[start] and t_end <= mt[-1])):
                reason = "dropped_no_mouse"
            else:
                reason = "kept"
            want[reason] += 1
        assert got.counts == want
        assert sum(got.counts.values()) == len(positions)
        assert got.counts["kept"] == len(got)


# ---------------------------------------------------------------------------
# bulk parser against the row-by-row reference


def check_row(row: list, prev_t: float | None) -> None:
    """Row check of the reference parser: every number in `row` (None
    marks an empty field) must be finite, and its timestamp, the first
    field, must rise strictly above `prev_t` (None: no earlier row).
    Raises ValueError; callers add the line number."""
    for v in row:
        if v is not None and not math.isfinite(v):
            raise ValueError(f"non-finite value {v}")
    if prev_t is not None and not row[0] > prev_t:
        raise ValueError(f"non-monotonic timestamp {row[0]}")


def parse_gaze_row(fields: list, prev_t: float | None) -> dataio.GazeSample:
    """One `t,lx,ly,rx,ry,vx,vy` row, split into fields; an empty eye
    coordinate marks it missing. Raises ValueError on a malformed row or
    one that fails `check_row`."""
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}")
    row = [None if f == "" else float(f) for f in fields]
    if row[0] is None or row[5] is None or row[6] is None:
        raise ValueError("missing t or viewport")
    check_row(row, prev_t)
    return dataio.GazeSample(*row)


def reference_parse(path):
    """Row-by-row session parser, independent of `dataio`'s row rules: a
    per-row loop over `parse_gaze_row` and `check_row`. Returns (meta, gaze
    records, mouse records, labels) or raises its DataError/ConfigError."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#meta "):
        raise DataError(f"{path}:1: expected '#meta {{json}}' header")
    try:
        meta = dataio.SessionMeta(**json.loads(lines[0][len("#meta "):]))
    except (ConfigError, DataError, TypeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}:1: malformed meta: {e}") from e
    vmax_x = meta.screen_w * (1 - 1 / meta.magnification)
    vmax_y = meta.screen_h * (1 - 1 / meta.magnification)
    section = expect_header = None
    gaze, mouse, labels = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#"):
            section = line.strip()
            if section not in ("#gaze", "#mouse", "#labels"):
                raise DataError(f"{path}:{lineno}: unknown section {section}")
            expect_header = {"#gaze": dataio.GAZE_HEADER, "#mouse": "t,mx,my",
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
                mouse.append(dataio.MouseSample(*row))
            elif section == "#labels":
                if len(fields) != 3:
                    raise ValueError("expected 3 fields")
                if fields[2] not in dataio.LABELS:
                    raise ValueError(f"unknown label {fields[2]!r}")
                row = [float(fields[0]), float(fields[1])]
                check_row(row, None)
                labels.append(dataio.LabelInterval(*row, fields[2]))
            else:
                raise ValueError("data row outside any section")
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
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
    return meta, gaze, mouse, labels


@st.composite
def small_sessions(draw):
    """Valid sessions of 0..60 gaze rows with eye dropout (one or both
    coordinates), 0..8 mouse rows and 0..4 label intervals."""
    q = dataio.q9
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    meta = dataio.SessionMeta("S01", draw(st.sampled_from(["text", "webpage"])), m,
                              draw(st.sampled_from([1000.0, 1920, 640.5])), 800.0)
    vmax = np.array([meta.screen_w, meta.screen_h]) * (1 - 1 / m)
    n = draw(st.integers(0, 60))
    t = np.cumsum(rng.uniform(1e-3, 0.02, n)) + rng.uniform(-1, 1)
    eyes = rng.uniform(0, 1, (4, n)) * np.array([meta.screen_w, meta.screen_h] * 2)[:, None]
    eyes[rng.random((4, n)) < 0.15] = np.nan
    view = rng.uniform(0, 1, (2, n)) * vmax[:, None]
    gaze = dataio.GazeColumns(np.vstack([t, eyes, view]))
    k = draw(st.integers(0, 8))
    mouse = dataio.MouseColumns(np.vstack([np.cumsum(rng.uniform(0.01, 0.2, k)),
                                           rng.uniform(-50, 2000, (2, k))]))
    bounds = np.unique(rng.uniform(0, 2, 2 * draw(st.integers(0, 4))))
    labels = [dataio.LabelInterval(q(a), q(b), dataio.LABELS[int(rng.integers(2))])
              for a, b in zip(bounds[::2], bounds[1::2])]
    for cols in (gaze, mouse):
        cols.data[:] = [[q(v) if v == v else v for v in row] for row in cols.data.tolist()]
    return dataio.Session(meta, gaze, mouse, labels)


FIELD_EDITS = ["", "", "", " ", "abc", "1.2.3", "nan", "NaN", "inf", "-inf", "1e999", "-1", "-1e-9",
               "5000", "1e6", "0", " 2.5", "1_0", "reading", "scanning",
               # screen and viewport bounds of small_sessions, and just past them
               "1000", "1920", "800", "640.5", "1000.00001", "500", "400", "960",
               "500.0000000005", "400.000000002", "-0.0000000005", "-0.000000002"]


@st.composite
def line_edits(draw, lines):
    """1..3 single-line edits of a session file's lines: a blank line, a
    field replaced (empty, non-numeric, non-finite, out of range), a field
    dropped or added, a timestamp repeated, a line deleted or doubled."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        # any line, the meta line in about one edit out of ten
        rnd = draw(st.randoms(use_true_random=False))
        i = rnd.randrange(1, len(lines)) if len(lines) > 1 and rnd.random() > 0.1 else 0
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["blank", "field", "field", "field", "drop", "add",
                                   "repeat_t", "delete", "double"]))
        if op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
        elif op == "field":
            fields[j] = draw(st.sampled_from(FIELD_EDITS))
            lines[i] = ",".join(fields)
        elif op == "drop":
            del fields[j]
            lines[i] = ",".join(fields)
        elif op == "add":
            fields.insert(j, draw(st.sampled_from(["", "1.0"])))
            lines[i] = ",".join(fields)
        elif op == "repeat_t" and i > 0:
            fields[0] = lines[i - 1].split(",")[0]
            lines[i] = ",".join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        if not lines:
            lines = [""]
    return lines


def _outcome(parse, path):
    try:
        return "ok", parse(path)
    except (DataError, ConfigError) as e:
        return type(e).__name__, str(e)


def _equals_row_reference(tmp_path_factory, session, data):
    path = tmp_path_factory.mktemp("edit") / "s.session"
    dataio.write_session(session, path)
    lines = path.read_text().splitlines()
    if data.draw(st.integers(0, 9)):
        lines = data.draw(line_edits(lines))
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(dataio.parse_session, path)
    want = _outcome(reference_parse, path)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    meta, gaze, mouse, labels = want[1]
    back = got[1]
    assert back.meta == meta and back.labels == labels
    assert back.gaze == dataio.GazeColumns.from_rows(gaze)
    assert back.mouse == dataio.MouseColumns.from_rows(mouse)
    assert list(back.gaze) == gaze and list(back.mouse) == mouse


# one label row broken by each label rule, given its fields and those of the row before
LABEL_FAULTS = {
    "unknown": lambda f, prev: [f[0], f[1], "skimming"],
    "leading_space": lambda f, prev: [f[0], f[1], " reading"],
    "empty_start": lambda f, prev: ["", f[1], f[2]],
    "nan": lambda f, prev: ["nan", f[1], f[2]],
    "bad_number": lambda f, prev: ["1.2.3", f[1], f[2]],
    "start_not_before_end": lambda f, prev: [f[1], f[1], f[2]],
    "overlap": lambda f, prev: [prev[0], f[1], f[2]],
    "two_fields": lambda f, prev: [f[0], f[2]],
    "four_fields": lambda f, prev: f + ["1"],
}


@pytest.fixture(scope="module")
def long_session_lines(tmp_path_factory):
    """A 60 s session file (7,200 gaze rows: several PARSE_ROWS chunks)."""
    session = synth.generate_session(synth.SynthConfig(seed=0, session_len=60.0), 0, "text")
    path = tmp_path_factory.mktemp("long") / "s.session"
    dataio.write_session(session, path)
    return path.read_text().splitlines()


class TestBulkParser:
    @given(session=small_sessions(), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_equals_row_reference(self, tmp_path_factory, session, data):
        _equals_row_reference(tmp_path_factory, session, data)

    @pytest.mark.parametrize("chunk", [1, 3])
    @given(session=small_sessions(), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_equals_row_reference_in_small_chunks(self, tmp_path_factory, chunk, session, data):
        # edits fall on, before and after the chunk boundaries
        with mock.patch.object(dataio, "PARSE_ROWS", chunk):
            _equals_row_reference(tmp_path_factory, session, data)

    @pytest.mark.parametrize("row", ["last_of_chunk", "first_of_next", "mid_chunk"])
    @pytest.mark.parametrize("fault", ["bad_field", "field_count", "falling_t"])
    def test_fault_at_chunk_boundary_matches_reference(self, tmp_path, long_session_lines,
                                                       row, fault):
        lines = list(long_session_lines)
        c = dataio.PARSE_ROWS
        assert lines.count("#gaze") == 1 and len(lines) > lines.index("#gaze") + 2 + 2 * c
        k = {"last_of_chunk": c - 1, "first_of_next": c, "mid_chunk": c + c // 2}[row]
        i = lines.index("#gaze") + 2 + k
        fields = lines[i].split(",")
        if fault == "bad_field":
            fields[1] = "1.2.3"
        elif fault == "field_count":
            del fields[3]
        else:
            fields[0] = dataio.fmt9(float(lines[i - 1].split(",")[0]) - 1e-3)
        lines[i] = ",".join(fields)
        self._check_fault(tmp_path, lines, i, None)

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    @pytest.mark.parametrize("fault,row", [
        (fault, row) for fault in LABEL_FAULTS for row in ("first", "middle", "last")
        if (fault, row) != ("overlap", "first")])   # the first interval has none before it
    def test_label_fault_in_chunks_matches_reference(self, tmp_path, long_session_lines,
                                                     fault, row, chunk):
        lines = list(long_session_lines)
        first, stop = lines.index("#labels") + 2, len(lines)
        assert stop - first == 22
        i = {"first": first, "middle": (first + stop) // 2, "last": stop - 1}[row]
        lines[i] = ",".join(LABEL_FAULTS[fault](lines[i].split(","), lines[i - 1].split(",")))
        self._check_fault(tmp_path, lines, i, chunk)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("field", [0, 2])
    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    def test_empty_mouse_field_in_chunks_matches_reference(self, tmp_path, long_session_lines,
                                                           row, field, chunk):
        lines = list(long_session_lines)
        first, stop = lines.index("#mouse") + 2, lines.index("#labels")
        i = {"first": first, "middle": (first + stop) // 2, "last": stop - 1}[row]
        fields = lines[i].split(",")
        fields[field] = ""
        lines[i] = ",".join(fields)
        got = self._check_fault(tmp_path, lines, i, chunk)
        assert got[1].endswith("could not convert string to float: ''")

    def test_gaze_fault_wins_over_a_later_label_fault(self, tmp_path, long_session_lines):
        lines = list(long_session_lines)
        gaze_at, label_at = lines.index("#gaze") + 5, lines.index("#labels") + 3
        lines[gaze_at] = lines[gaze_at].replace(",", ",,", 1)
        lines[label_at] = lines[label_at].rpartition(",")[0] + ",skimming"
        got = self._check_fault(tmp_path, lines, gaze_at, None)
        assert got[1].endswith("expected 7 fields, got 8")

    @staticmethod
    def _check_fault(tmp_path, lines, i, chunk):
        """The parse of `lines` fails at line i + 1, with `PARSE_ROWS` at
        `chunk` (None: the default), exactly as the reference's does."""
        path = tmp_path / "s.session"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(dataio, "PARSE_ROWS", chunk or dataio.PARSE_ROWS):
            got = _outcome(dataio.parse_session, path)
        assert got[0] == "DataError" and f"s.session:{i + 1}: " in got[1]
        assert got == _outcome(reference_parse, path)
        return got

    def test_parse_memory_bounded_by_file_size(self, tmp_path):
        # a 300 s session: the parse holds one chunk's fields as Python
        # objects, not the whole section's (12.7x the file when it did)
        session = synth.generate_session(synth.SynthConfig(seed=0, session_len=300.0), 0, "text")
        path = tmp_path / "s.session"
        dataio.write_session(session, path)
        tracemalloc.start()
        try:
            parsed = dataio.parse_session(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed.gaze) == 36_000
        assert peak < 6 * path.stat().st_size

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # faults in a later gaze run, an earlier mouse run and a section
        # after both: the one on the lowest line is reported
        p = tmp_path / "a.session"
        dataio.write_session(make_session(30), p)
        lines = p.read_text().splitlines()
        mouse_at = lines.index("#mouse")
        row = lines[mouse_at + 3]
        lines[mouse_at + 3] = row.split(",")[0] + ",nan,1"
        lines[-1:-1] = ["#gaze", dataio.GAZE_HEADER, "9,1,1,1,1,0,0", "1,1,1,1,1,0,0",
                        "#bogus"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"a\.session:{mouse_at + 4}: non-finite value nan"):
            dataio.parse_session(p)
        lines[mouse_at + 3] = row
        p.write_text("\n".join(lines) + "\n")
        assert _outcome(dataio.parse_session, p) == _outcome(reference_parse, p)
        assert "non-monotonic timestamp 1.0" in _outcome(dataio.parse_session, p)[1]

    def test_row_view(self):
        session = make_session(30, missing_idx={2})
        gaze = session.gaze
        assert len(gaze) == 30 and len(gaze[5:9]) == 4
        assert gaze[2] == dataio.GazeSample(gaze.t[2], None, None, 110.0, 210.0, 10.0, 5.0)
        assert gaze[-1] == list(gaze)[-1] == gaze[25:][4]
        assert gaze[5:9].t.base is gaze.data  # a slice is a view of the columns
        with pytest.raises(IndexError):
            gaze[30]


class TestParserFuzz:
    @given(blob=st.binary(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, blob):
        self._check(tmp_path_factory, blob)

    @given(session=small_sessions(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_file_bytes(self, tmp_path_factory, session, data):
        path = tmp_path_factory.mktemp("fuzz") / "s.session"
        dataio.write_session(session, path)
        blob = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 6))):
            i = data.draw(st.integers(0, len(blob)))
            op = data.draw(st.sampled_from(["set", "insert", "delete"]))
            b = data.draw(st.sampled_from(b",.\n#-e0123456789naif \x00\xff"))
            if op == "set" and i < len(blob):
                blob[i] = b
            elif op == "insert":
                blob.insert(i, b)
            elif i < len(blob):
                del blob[i]
        self._check(tmp_path_factory, bytes(blob))

    @staticmethod
    def _check(tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("fuzz") / "f.session"
        path.write_bytes(blob)
        try:
            session = dataio.parse_session(path)
        except (DataError, ConfigError):
            return
        assert np.isfinite(session.gaze.t).all()
        assert np.isfinite(session.gaze.data[5:7]).all()
        assert np.isfinite(session.mouse.data).all()


# ---------------------------------------------------------------------------
# block writer against the row-by-row reference


def reference_write(session, path) -> None:
    """The row-by-row session writer that `format_rows` replaced: one
    f-string per value, an empty field for a missing eye coordinate."""
    def fmt9(x):
        return f"{x:.9g}"

    meta = session.meta
    lines = ["#meta " + json.dumps({
        "subject_id": meta.subject_id, "task": meta.task,
        "magnification": meta.magnification,
        "screen_w": meta.screen_w, "screen_h": meta.screen_h,
        "gaze_rate": meta.gaze_rate, "mouse_rate": meta.mouse_rate,
    }, sort_keys=True)]
    lines.append("#gaze")
    lines.append(dataio.GAZE_HEADER)
    for t, lx, ly, rx, ry, vx, vy in session.gaze.data.T.tolist():
        coords = ",".join("" if math.isnan(c) else fmt9(c) for c in (lx, ly, rx, ry))
        lines.append(f"{fmt9(t)},{coords},{fmt9(vx)},{fmt9(vy)}")
    lines.append("#mouse")
    lines.append(dataio.MOUSE_HEADER)
    for t, mx, my in session.mouse.data.T.tolist():
        lines.append(f"{fmt9(t)},{fmt9(mx)},{fmt9(my)}")
    lines.append("#labels")
    lines.append(dataio.LABEL_HEADER)
    for iv in session.labels:
        lines.append(f"{fmt9(iv.start)},{fmt9(iv.end)},{iv.label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_writes_like_reference(session, directory: Path) -> None:
    dataio.write_session(session, directory / "block.session")
    reference_write(session, directory / "rows.session")
    assert (directory / "block.session").read_bytes() == (directory / "rows.session").read_bytes()


class TestBlockWriter:
    @given(session=small_sessions())
    @settings(max_examples=200, deadline=None)
    def test_equals_row_reference(self, tmp_path_factory, session):
        # 0..60 gaze rows with missing eyes, empty mouse and label sections
        assert_writes_like_reference(session, tmp_path_factory.mktemp("write"))

    def test_rows_across_chunks(self, tmp_path):
        session = make_session(2 * dataio.PARSE_ROWS + 5, missing_idx={0, dataio.PARSE_ROWS})
        assert len(list(dataio.format_rows(session.gaze.data))) == 3
        assert_writes_like_reference(session, tmp_path)

    def test_special_values_format_like_an_fstring(self):
        block = np.array([[0.0, -0.0, 1e16, 1.5e-7, 123456789.5, 5e-324, math.inf, 2 / 3]])
        want = "".join(f"{x:.9g}\n" for x in block[0].tolist())
        assert "".join(dataio.format_rows(block)) == want
        assert dataio.fmt9(2 / 3) == f"{2 / 3:.9g}"

    def test_nan_is_an_empty_field(self):
        text = "".join(dataio.format_rows(np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, 4.0]])))
        assert text == "1,,3\n,2,4\n"

    def test_empty_block_writes_nothing(self):
        assert list(dataio.format_rows(np.empty((3, 0)))) == []
