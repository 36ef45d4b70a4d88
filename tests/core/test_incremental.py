"""Tests for the day-grid screen of the batched detector.

Rolling-window ticks (a trailing window re-run daily) screen every pair
on a day-aligned grid before full detection; these tests cover the grid
geometry and the screen's contract: it only ever *drops* pairs, with a
``screen:`` rejection code, and every pair it keeps gets exactly the
unscreened result.
"""

import numpy as np
import pytest

from repro.core.batch import BatchedDetector, bin_span, screen_scales
from repro.core.detector import DetectorConfig, PeriodicityDetector
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary
from repro.obs import MetricsRegistry, scoped_registry

DAY = 86_400.0


def _pairs(seed, n_pairs=24, days=5, time_scale=600.0):
    """A few slow beacons among sparse noise pairs over ``days`` days."""
    rng = np.random.default_rng(seed)
    out = []
    for pair in range(n_pairs):
        if pair < 4:
            period = 3600.0 * (1 + pair)
            ts = np.arange(0.0, days * DAY, period)
            ts = ts + rng.normal(0.0, 5.0, size=ts.size)
            ts = ts[(ts >= 0) & (ts < days * DAY)]
        else:
            ts = np.sort(rng.uniform(0, days * DAY, size=8 * days))
        out.append(
            ActivitySummary.from_timestamps(
                f"h{pair}", f"d{pair}.net", ts, time_scale=time_scale
            )
        )
    return out


def _detector(cache=True):
    return PeriodicityDetector(
        DetectorConfig(seed=0, use_gmm=False),
        threshold_cache=ThresholdCache() if cache else None,
    )


class TestBinSpan:
    def test_absolute_slots_are_window_independent(self):
        ts = np.array([10.0, 95.0, 210.0, 340.0])
        a = bin_span(ts, 60.0, 0, 8)
        b = bin_span(ts, 60.0, 2, 8)
        np.testing.assert_array_equal(a[2:], b)

    def test_binary_caps_at_one(self):
        ts = np.array([5.0, 6.0, 7.0])
        assert bin_span(ts, 60.0, 0, 4)[0] == 1.0
        assert bin_span(ts, 60.0, 0, 4, binary=False)[0] == 3.0

    def test_out_of_span_events_are_dropped(self):
        signal = bin_span(np.array([-5.0, 1e9]), 60.0, 0, 4)
        np.testing.assert_array_equal(signal, np.zeros(4))


class TestScreenScales:
    def test_rungs_divide_the_day(self):
        for scale, bins_per_day in screen_scales(
            time_scale=600.0, window_days=30
        ):
            assert bins_per_day * scale == pytest.approx(86_400.0)

    def test_finest_rung_matches_time_scale_bucket(self):
        rungs = screen_scales(time_scale=600.0, window_days=30)
        assert rungs[0][0] >= 600.0


class TestScreenPhase:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_drops_and_keeps_survivors_exact(self, seed):
        summaries = _pairs(seed)
        plain = BatchedDetector(_detector(), batch_size=8).detect_summaries(
            summaries
        )
        screened = BatchedDetector(
            _detector(), batch_size=8, screen=True
        ).detect_summaries(summaries)
        codes = set()
        for cold, warm in zip(plain, screened):
            if warm.rejection_code.startswith("screen:"):
                assert not warm.periodic
                codes.add(warm.rejection_code)
            else:
                assert repr(warm) == repr(cold)
        assert codes  # the screen dropped something on every seed
        assert any(result.periodic for result in screened)

    def test_verdicts_do_not_depend_on_batch_size(self):
        # The first five pairs are only active on the last two days, so
        # a window taken per chunk (not per call) would differ by chunk.
        late = [
            ActivitySummary.from_timestamps(
                s.source, s.destination,
                s.timestamps()[s.timestamps() >= 3 * DAY],
                time_scale=s.time_scale,
            )
            for s in _pairs(5)[:5]
        ]
        summaries = late + _pairs(3)
        by_size = [
            [
                repr(result)
                for result in BatchedDetector(
                    _detector(), batch_size=size, screen=True
                ).detect_summaries(summaries)
            ]
            for size in (1, 5, 64)
        ]
        assert by_size[0] == by_size[1] == by_size[2]

    def test_window_too_short_for_any_rung_drops_nothing(self):
        # A 5-day window at 13 400 s snaps to 6 bins/day: 30 grid bins,
        # below min_slots, so no rung exists — while the detector's own
        # event-anchored ladder (432 000 s / 13 400 s = 32 slots) does
        # analyse the pairs.  The screen must then pass every pair on.
        rng = np.random.default_rng(0)
        end = 5 * DAY - 1
        noise = np.concatenate([[0.0], rng.uniform(0, end, 40), [end]])
        beacon = np.append(np.arange(0.0, end, 4 * 13_400.0), end)
        summaries = [
            ActivitySummary.from_timestamps(
                src, dst, np.sort(ts), time_scale=13_400.0
            )
            for src, dst, ts in (("a", "b", noise), ("c", "d", beacon))
        ]
        assert screen_scales(time_scale=13_400.0, window_days=5) == []
        plain = BatchedDetector(_detector()).detect_summaries(summaries)
        screened = BatchedDetector(_detector(), screen=True).detect_summaries(
            summaries
        )
        assert [r.periodic for r in plain] == [False, True]
        assert [repr(r) for r in screened] == [repr(r) for r in plain]

    def test_early_rejection_is_counted_once(self):
        few = ActivitySummary.from_timestamps(
            "x", "y.net", [0.0, 4 * DAY], time_scale=600.0
        )
        registry = MetricsRegistry()
        with scoped_registry(registry):
            results = BatchedDetector(
                _detector(), screen=True
            ).detect_summaries(_pairs(0)[:6] + [few])
        assert results[-1].rejection_code == "spectral:min_events"
        assert registry.counter("detector.pairs_rejected_early").value == 1

    def test_needs_a_threshold_cache(self):
        assert BatchedDetector(_detector(cache=True), screen=True).screen
        assert not BatchedDetector(_detector(cache=False), screen=True).screen
