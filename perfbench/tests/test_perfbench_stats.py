"""The benchmark's arithmetic: percentile rule, due-time latency, generator
lag, self time and unattributed time."""

import statistics

import pytest

from perfbench.spans import SpanRecorder
from perfbench.stats import (
    due_latencies,
    generator_lags,
    percentile,
    samples_beyond,
    subwindow_median,
    summarize,
    tail_percentile,
    unattributed_seconds,
)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(1000) == 99.0
    assert samples_beyond(999, 99.0) == 9
    assert tail_percentile(999) == 98.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_reports_slowest_when_no_percentile_qualifies():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_q": 100.0, "tail": 3.0}
    summary = summarize([float(v) for v in range(1000)], cap=100.0)
    assert summary["tail_q"] == 99.0 and summary["tail"] == 989.0


def test_summarize_caps_the_tail_at_p95():
    summary = summarize([float(v) for v in range(1000)])
    assert summary["tail_q"] == 95.0 and summary["tail"] == 949.0
    assert summarize([float(v) for v in range(100)])["tail_q"] == 90.0


def test_subwindow_median_ignores_one_disturbed_subwindow():
    values = [10.0, 11.0, 500.0, 520.0, 12.0, 13.0]
    at = [0.5, 1.0, 5.5, 6.0, 11.0, 14.0]  # three 5-second sub-windows of 15 s
    assert subwindow_median(values, at, 15.0, statistics.median) == 12.5
    assert subwindow_median(values, at, 15.0, max) == 13.0


def test_latency_is_timed_from_due_time():
    # The second request was due at 1.0 but the sender stalled until 1.5.
    assert due_latencies([0.0, 1.0], [0.010, 1.520]) == pytest.approx([10.0, 520.0])


def test_generator_lag_excludes_waiting_for_a_busy_connection():
    due = [0.0, 1.0, 2.0]
    sent = [0.001, 1.300, 2.050]
    free = [0.0, 1.299, 0.0]  # the second request waited for the previous reply
    assert generator_lags(due, sent, free) == pytest.approx([1.0, 1.0, 50.0])
    assert generator_lags(due, sent) == pytest.approx([1.0, 300.0, 50.0])


def test_unattributed_is_wall_minus_self_times():
    assert unattributed_seconds(12.0, [5.0, 2.0, 3.0]) == pytest.approx(2.0)


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_span_self_time_subtracts_directly_enclosed_spans():
    # outer [0, 10] encloses inner [2, 5] which encloses leaf [3, 4].
    recorder = SpanRecorder(clock=_Clock([0.0, 2.0, 3.0, 4.0, 5.0, 10.0]))

    def leaf():
        return "leaf"

    def inner():
        return recorder.call("leaf", leaf, (), {})

    assert recorder.call("outer", lambda: recorder.call("inner", inner, (), {}), (), {}) == "leaf"
    spans = recorder.snapshot()
    assert spans["outer"]["durations"] == [10.0]
    assert spans["outer"]["self_s"] == pytest.approx(7.0)
    assert spans["inner"]["self_s"] == pytest.approx(2.0)
    assert spans["leaf"]["self_s"] == pytest.approx(1.0)


def test_install_and_uninstall_restore_the_original():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    recorder = SpanRecorder()
    recorder.install(Layer, "work", "layer", note=lambda args, kwargs, result: float(result))
    assert Layer().work(2) == 3
    recorder.uninstall()
    assert Layer.__dict__["work"] is original
    assert recorder.snapshot()["layer"]["notes"] == [3.0]
    assert Layer().work(5) == 6
    assert len(recorder.snapshot()["layer"]["durations"]) == 1
