"""Tests of the benchmark's own measurement helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness  # noqa: E402


# ---------------------------------------------------------------------------
# percentile helper


@pytest.mark.parametrize("n", [11, 12, 20, 21, 36, 100, 500, 1000, 1001, 1002, 5000])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n):
    values = np.arange(n, dtype=float)          # distinct, sorted
    p = harness.tail_percentile(n)
    beyond = int((values > np.percentile(values, p)).sum())
    assert beyond >= harness.MIN_BEYOND
    assert p <= harness.TAIL_CAP


@pytest.mark.parametrize("n", [11, 12, 20, 36, 100, 500, 1000])
def test_tail_percentile_is_the_highest_order_statistic_with_ten_beyond(n):
    values = np.arange(n, dtype=float)
    p = harness.tail_percentile(n)
    assert np.percentile(values, p) == pytest.approx(values[n - 1 - harness.MIN_BEYOND])
    # the next order statistic up leaves only nine samples beyond it
    p_next = 100.0 * (n - harness.MIN_BEYOND) / (n - 1)
    assert int((values > np.percentile(values, p_next)).sum()) == harness.MIN_BEYOND - 1


def test_tail_percentile_caps_at_p99_and_needs_eleven_samples():
    assert harness.tail_percentile(10) is None
    assert harness.tail_percentile(11) == 0.0
    assert harness.tail_percentile(21) == 50.0
    assert harness.tail_percentile(100_000) == 99.0


def test_summarize_reports_count_median_and_tail():
    s = harness.summarize(range(1, 22))          # 1..21
    assert s["n"] == 21 and s["p50"] == 11.0
    assert s["tail_p"] == 50.0 and s["tail"] == 11.0
    s = harness.summarize(range(1, 102))         # 1..101
    assert s["tail_p"] == 90.0 and s["tail"] == 91.0
    # too few samples for a tail above the median: the maximum stands in
    assert harness.summarize(range(1, 21))["tail"] == 20.0
    assert harness.summarize([3.0]) == {"n": 1, "p50": 3.0, "tail_p": 100.0, "tail": 3.0}


# ---------------------------------------------------------------------------
# spans and self time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    a = tr.open("a")                  # 0 .. 10
    clock.t = 1.0
    b = tr.open("b")                  # 1 .. 4
    clock.t = 2.0
    c = tr.open("c")                  # 2 .. 3
    clock.t = 3.0
    tr.close(c)
    clock.t = 4.0
    tr.close(b)
    clock.t = 6.0
    b2 = tr.open("b")                 # 6 .. 8, a second b
    clock.t = 8.0
    tr.close(b2)
    clock.t = 10.0
    tr.close(a)
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert harness.self_times(tr.spans) == [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0]
    assert harness.self_time_by(tr.spans, lambda n: n) == {"a": 5.0, "b": 4.0, "c": 1.0}


def test_wrap_traces_calls_made_through_the_module_and_restores():
    import types

    mod = types.ModuleType("gazeintent.fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2       # looked up on the module at call time

    inner.__module__ = outer.__module__ = "gazeintent.fake"
    mod.inner, mod.outer = inner, outer
    tr = harness.Tracer()
    tr.wrap(mod, "inner", "fake.inner")
    tr.wrap(mod, "outer", lambda x: f"fake.outer.{x}")
    assert mod.outer(1) == 4
    assert [(s.name, s.parent) for s in tr.spans] == [("fake.outer.1", -1), ("fake.inner", 0)]
    assert tr.layer_of["fake.inner"] == "fake"
    tr.restore()
    assert mod.inner is inner and mod.outer is outer


# ---------------------------------------------------------------------------
# open loop


class VirtualTime:
    """Clock and sleep over virtual time; a push advances it by its cost."""

    def __init__(self):
        self.t = 100.0

    def clock(self):
        return self.t

    def sleep(self, dt):
        self.t += dt


def test_open_loop_measures_latency_from_due_time_and_a_stall_delays_later_samples():
    vt = VirtualTime()
    events = harness.schedule([0.0], [20], rate_hz=100.0, duration_s=1.0)  # every 10 ms
    stall_at, stall_s, cost_s = 5, 0.045, 0.001

    def push(k, i):
        vt.t += stall_s if i == stall_at else cost_s
        return True                    # every sample closes a decision

    res = harness.open_loop(events, push, clock=vt.clock, sleep=vt.sleep, lead_s=0.0)
    lat = res.decision_latency_s
    assert lat.size == 20 and res.failed == 0
    assert np.allclose(lat[:stall_at], cost_s)
    assert lat[stall_at] == pytest.approx(stall_s)
    # samples due during the stall queue behind it and behind each other
    for j, waited in zip(range(stall_at + 1, stall_at + 5), (0.035, 0.026, 0.017, 0.008)):
        assert lat[j] == pytest.approx(waited + cost_s)
        assert res.start[j] - res.due[j] == pytest.approx(waited)
    assert np.allclose(lat[stall_at + 5:], cost_s)      # the backlog has drained
    rounds = res.decision_rounds(0.049)                 # 5 samples due per round
    assert [len(r) for r in rounds] == [5, 5, 5, 5]
    assert max(rounds[1]) == pytest.approx(stall_s)


def test_open_loop_counts_a_raising_push_as_failed():
    vt = VirtualTime()
    events = harness.schedule([0.0, 0.002], [3, 3], rate_hz=100.0, duration_s=1.0)
    assert [(k, i) for _, k, i in events] == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

    def push(k, i):
        if (k, i) == (1, 1):
            raise ValueError("bad sample")
        return i == 2

    res = harness.open_loop(events, push, clock=vt.clock, sleep=vt.sleep)
    assert res.failed == 1
    assert res.decision_latency_s.size == 2
