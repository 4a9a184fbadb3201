"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import math
import statistics

import pytest

from perfbench.probe import REFERENCE_PROBE_S, host_factor, local_factors
from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.stats import (
    InsufficientSamples,
    ReadAccount,
    closed_window_account,
    min_samples,
    open_loop_samples,
    percentile,
    relative_difference,
    summarize,
)


# -- percentile with sample count ---------------------------------------


@pytest.mark.parametrize("q, need", [(50, 20), (90, 100), (99, 1000), (99.9, 10000)])
def test_min_samples_leaves_ten_beyond(q: float, need: int) -> None:
    assert min_samples(q) == need


def test_percentile_refuses_one_sample_short() -> None:
    with pytest.raises(InsufficientSamples, match="p90 needs at least 100"):
        percentile(list(range(99)), 90)


def test_percentile_is_nearest_rank() -> None:
    samples = [float(v) for v in range(1, 101)]  # 1 .. 100, shuffled below
    shuffled = samples[50:] + samples[:50]
    assert percentile(shuffled, 90) == 90.0
    assert percentile(shuffled, 50) == 50.0
    # exactly ten samples lie strictly above the reported p90
    assert sum(1 for v in samples if v > percentile(samples, 90)) == 10


def test_spread_matches_statistics_quantiles() -> None:
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = summarize({"m": values})["m"]
    assert (summary["q1"], summary["median"], summary["q3"]) == (q1, median, q3)
    assert summary["spread"] == pytest.approx((q3 - q1) / median)


# -- self time for nested spans -----------------------------------------


def test_self_time_subtracts_nested_children() -> None:
    spans = [
        Span("poll", 0, 100),
        Span("window", 10, 80, parent=0),
        Span("pmusic", 20, 40, parent=1),
        Span("localize", 50, 70, parent=1),
    ]
    assert self_times(spans) == [30, 30, 20, 20]
    assert sum(self_times(spans)) == 100  # self times add up to the root


def test_self_time_counts_overlapping_children_once() -> None:
    spans = [Span("root", 0, 100), Span("a", 10, 60, parent=0), Span("b", 40, 90, parent=0)]
    assert self_times(spans)[0] == 100 - 80


def test_self_time_subtracts_tallied_children() -> None:
    spans = [Span("poll", 0, 100, tally_ns=35), Span("window", 50, 90, parent=0)]
    assert self_times(spans) == [25, 40]


def test_recorder_nests_wrapped_calls_and_shares_window_ids() -> None:
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))

    class Layer:
        def outer(self, window: int) -> int:
            return self.inner() + self.leaf()

        def inner(self) -> int:
            return 1

        def leaf(self) -> int:
            return 2

    recorder.wrap(Layer, "outer", "outer", window=lambda args: f"w{args[1]}")
    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "leaf", "leaf", tally=True)
    try:
        assert Layer().outer(7) == 3
    finally:
        recorder.unwrap_all()
    outer, inner = recorder.spans
    assert inner.parent == 0 and inner.window == outer.window == "w7"
    # clock: outer 0..50, inner 10..20, leaf 30..40 (tallied)
    layers = recorder.layers()
    assert layers["outer"].self_ns == 50 - 10 - 10
    assert layers["leaf"].total_ns == 10
    assert recorder.self_total_ns() == 50
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


# -- failed_share accounting --------------------------------------------


def test_read_account_splits_failed_and_folded() -> None:
    account = ReadAccount(
        offered=1000, folded=950, lost={"queue_dropped": 10, "late": 30, "rejected": 10}
    )
    assert account.failed == 50
    assert account.unexplained == 0
    assert account.failed_share == pytest.approx(0.05)
    assert account.folded_share == pytest.approx(0.95)


def test_read_account_exposes_uncounted_loss() -> None:
    account = ReadAccount(offered=100, folded=97, lost={"late": 2})
    assert account.unexplained == 1


def test_closed_window_account_fails_the_reads_of_a_window_without_fix() -> None:
    # two closed windows of 4 reads; window 1 got no fix, one read was never acked
    account, without_fix = closed_window_account(
        {"d": {0: 4, 1: 4}}, {"d": {0}}, lost={"never_acked": 1}
    )
    assert without_fix == 4
    assert (account.offered, account.folded) == (8, 3)
    assert account.unexplained == 4


def test_read_account_rejects_negative_counts() -> None:
    with pytest.raises(ValueError):
        ReadAccount(offered=10, folded=10, lost={"late": -1})


# -- restored fixes against the uninterrupted pass ----------------------


def test_relative_difference_finds_a_last_bit_change() -> None:
    a = "Fix(x=3.7332016164892527, y=5.2, name='r-0')"
    b = "Fix(x=3.733201616489253, y=5.2, name='r-0')"
    assert 0 < relative_difference(a, b) < 1e-15
    assert relative_difference(a, a) == 0.0


def test_relative_difference_is_infinite_when_more_than_numbers_change() -> None:
    assert relative_difference("Fix(x=1.0, q='ok')", "Fix(x=1.0, q='degraded')") == math.inf
    assert relative_difference("Fix(p=None)", "Fix(p=1.5)") == math.inf


# -- reference-host units ------------------------------------------------


def test_host_factor_scales_to_the_reference_probe() -> None:
    assert host_factor([2 * REFERENCE_PROBE_S] * 3) == pytest.approx(0.5)
    # the median, so one probe hit by an interrupt does not move it
    assert host_factor([REFERENCE_PROBE_S] * 2 + [9.0]) == pytest.approx(1.0)


def test_local_factors_follow_a_slowdown_within_a_pass() -> None:
    fast, slow = REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S
    factors = local_factors([fast] * 4 + [slow] * 4)
    assert len(factors) == 7  # one per stretch between two probes
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(0.5)


# -- open-loop latency from due time --------------------------------------


def test_open_loop_latency_runs_from_due_time() -> None:
    # batches due every 10 ms; the server stalls 25 ms on the second one,
    # so the third is sent late and its latency includes the wait.
    due = [0.000, 0.010, 0.020]
    sent = [0.000, 0.010, 0.036]
    acked = [0.001, 0.036, 0.037]
    latency, lateness = open_loop_samples(due, sent, acked)
    assert latency == pytest.approx([1.0, 26.0, 17.0])
    assert lateness == pytest.approx([0.0, 0.0, 16.0])
    # timed from the send instead, the stall's victim would look fast
    assert (acked[2] - sent[2]) * 1000.0 == pytest.approx(1.0)


def test_open_loop_lateness_is_never_negative() -> None:
    _, lateness = open_loop_samples([1.0], [0.999], [1.002])
    assert lateness == [0.0]


def test_open_loop_samples_must_pair_up() -> None:
    with pytest.raises(ValueError):
        open_loop_samples([0.0, 1.0], [0.0], [0.1])
