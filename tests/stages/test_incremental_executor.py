"""Parity tests for the screened detection executor on rolling ticks.

The contract under test, across the ticks of a rolling window:

- the screened :class:`~repro.stages.BatchedDetection` (``screen=True``)
  never *adds* a detection over the unscreened cold
  :class:`~repro.stages.BatchedDetection` run (the screen can only
  drop), and every true beacon the cold run reports comes back with
  identical candidate periods;
- on typical workloads the reports are exactly equal (the screen's
  grid-anchored spectra may drop a borderline coarse-rung false
  positive the event-anchored cold path keeps — the one documented
  divergence), and such a drop carries a ``screen:`` rejection code;
- the screen keeps no state: a fresh executor per tick reports what
  one reused executor reports.
"""

from typing import List

import numpy as np
import pytest

from repro.core.detector import DetectorConfig
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary, merge_rescaled
from repro.filtering.pipeline import PipelineConfig
from repro.obs import MetricsRegistry, scoped_registry
from repro.obs.provenance import ProvenancePolicy, ProvenanceRecorder
from repro.stages import BatchedDetection, StageContext

DAY = 86_400.0
TIME_SCALE = 600.0
WINDOW_DAYS = 5
N_DAYS = 8
N_PAIRS = 24
N_BEACONS = 3


def _day_summaries(seed: int) -> List[List[ActivitySummary]]:
    """Per-day summaries: a few slow beacons in sparse noise."""
    rng = np.random.default_rng(seed)
    span = N_DAYS * DAY
    per_pair = []
    for pair in range(N_PAIRS):
        if pair < N_BEACONS:
            period = 7200.0 + 1200.0 * pair
            count = int(span / period) + 1
            ts = np.cumsum(rng.normal(period, 5.0, size=count))
            ts = ts[(ts > 0) & (ts < span)]
        else:
            offsets = rng.uniform(0, DAY, size=(N_DAYS, 8))
            ts = np.sort(
                (offsets + np.arange(N_DAYS)[:, None] * DAY).ravel()
            )
        per_pair.append(ts)
    days = []
    for day in range(N_DAYS):
        start, end = day * DAY, (day + 1) * DAY
        days.append([
            ActivitySummary.from_timestamps(
                f"host-{pair:02d}",
                f"dest-{pair}.example.net",
                ts[(ts >= start) & (ts < end)],
                time_scale=TIME_SCALE,
            )
            for pair, ts in enumerate(per_pair)
        ])
    return days


def _window(days, end_day) -> List[ActivitySummary]:
    window = days[end_day - WINDOW_DAYS + 1 : end_day + 1]
    return [
        merge_rescaled(list(group), TIME_SCALE) for group in zip(*window)
    ]


def _context(cache: ThresholdCache) -> StageContext:
    return StageContext(
        config=PipelineConfig(
            detector=DetectorConfig(seed=0, use_gmm=False),
            detection_batch_size=64,
            screened_detection=True,
        ),
        threshold_cache=cache,
    )


def _screened() -> BatchedDetection:
    return BatchedDetection(batch_size=64, screen=True)


def _verdicts(results):
    """The report-relevant outcome per pair: pair plus its periods."""
    return {
        (
            summary.pair,
            tuple(round(c.period, 6) for c in result.candidates),
        )
        for summary, result in results
    }


def _is_beacon(verdict) -> bool:
    (source, _destination), _periods = verdict
    return source in {f"host-{i:02d}" for i in range(N_BEACONS)}


@pytest.fixture(scope="module")
def days():
    # Seed 0: a workload where warm and cold reports are exactly equal
    # on every tick (no borderline coarse-rung noise positives).
    return _day_summaries(seed=0)


class TestExecutorParity:
    def test_matches_cold_batched_reports_across_ticks(self, days):
        cold_context = _context(ThresholdCache())
        warm_context = _context(ThresholdCache())
        cold = BatchedDetection(batch_size=64)
        warm = _screened()
        registry = MetricsRegistry()
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            summaries = _window(days, end_day)
            cold_results, _ = cold(cold_context, summaries)
            with scoped_registry(registry):
                warm_results, _ = warm(warm_context, summaries)
            assert _verdicts(warm_results) == _verdicts(cold_results)
        # The screen did real work: it spared pairs the full detector.
        assert registry.counter("detector.screen.power_dropped").value > 0

    def test_never_adds_detections_and_keeps_beacons(self):
        # A seed with a borderline cold-only coarse-rung positive: the
        # screen may drop it, must keep every beacon, and must never
        # report a pair the cold path does not.
        days = _day_summaries(seed=1)
        cold_context = _context(ThresholdCache())
        warm_context = _context(ThresholdCache())
        cold = BatchedDetection(batch_size=64)
        warm = _screened()
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            summaries = _window(days, end_day)
            cold_verdicts = _verdicts(cold(cold_context, summaries)[0])
            warm_verdicts = _verdicts(warm(warm_context, summaries)[0])
            assert warm_verdicts <= cold_verdicts
            assert (
                {v for v in warm_verdicts if _is_beacon(v)}
                == {v for v in cold_verdicts if _is_beacon(v)}
            )

    def test_degrades_without_threshold_cache(self, days):
        context = _context(ThresholdCache())
        context.threshold_cache = None
        summaries = _window(days, WINDOW_DAYS - 1)
        results, quarantined = _screened()(context, summaries)
        assert quarantined == []
        assert all(result.periodic for _summary, result in results)
        # No cache, no screen: exactly the plain batched answer.
        plain, _ = BatchedDetection(batch_size=64)(context, summaries)
        assert [repr(r) for _s, r in results] == [repr(r) for _s, r in plain]


class TestStatelessScreen:
    def test_fresh_executor_per_tick_matches_reused_executor(self, days):
        reused_context = _context(ThresholdCache())
        reused = _screened()
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            summaries = _window(days, end_day)
            reused_results, _ = reused(reused_context, summaries)
            fresh_results, _ = _screened()(
                _context(ThresholdCache()), summaries
            )
            assert [repr(r) for _s, r in fresh_results] == [
                repr(r) for _s, r in reused_results
            ]


class TestScreenDropCodes:
    def test_screen_drop_carries_a_screen_code(self):
        # Seed 1, tick ending on day 5: the cold run reports host-21 on
        # a coarse-rung period the day-grid screen does not confirm.
        summaries = _window(_day_summaries(seed=1), 5)
        cold, _ = BatchedDetection(batch_size=64)(
            _context(ThresholdCache()), summaries
        )
        reported = {
            summary.source: result.dominant_period
            for summary, result in cold
        }
        assert reported["host-21"] == pytest.approx(16_228.6, abs=0.1)

        context = _context(ThresholdCache())
        context.provenance = ProvenanceRecorder(
            ProvenancePolicy(sample_early_drops=1.0)
        )
        screened, _ = _screened()(context, summaries)
        assert "host-21" not in {summary.source for summary, _ in screened}
        chain = [
            record
            for record in context.provenance.drain()
            if record.source == "host-21"
        ]
        assert [record.kept for record in chain] == [False]
        assert chain[0].stage == "spectral"
        assert chain[0].reason in ("screen:power<threshold", "screen:probe")
