"""Tests for the individual MapReduce jobs (Section VII)."""

import pytest

from repro.core.timeseries import ActivitySummary
from repro.jobs import (
    BeaconingDetectionJob,
    DataExtractionJob,
    DestinationPopularityJob,
    RescaleMergeJob,
    popularity_table,
)
from repro.jobs.records import DetectionCase
from repro.mapreduce import MapReduceEngine
from repro.synthetic import ProxyLogRecord


@pytest.fixture
def engine():
    return MapReduceEngine()


def beacon_records(destination="evil.com", mac="mac1", period=60.0, count=50):
    return [
        ProxyLogRecord(i * period, mac, "10.0.0.1", destination, "/gate.php")
        for i in range(count)
    ]


class TestDataExtractionJob:
    def test_builds_summaries_per_pair(self, engine):
        records = beacon_records() + beacon_records("other.com", "mac2")
        output = engine.run(DataExtractionJob(), enumerate(records))
        assert len(output) == 2
        pairs = {pair for pair, _s in output}
        assert pairs == {("mac1", "evil.com"), ("mac2", "other.com")}

    def test_summary_contents(self, engine):
        output = engine.run(DataExtractionJob(), enumerate(beacon_records()))
        _pair, summary = output[0]
        assert summary.event_count == 50
        assert summary.intervals[0] == 60.0
        assert summary.urls[0] == "/gate.php"

    def test_url_cap(self, engine):
        job = DataExtractionJob(max_urls_per_pair=5)
        output = engine.run(job, enumerate(beacon_records(count=20)))
        _pair, summary = output[0]
        assert len(summary.urls) == 5

    def test_unsorted_timestamps_handled(self, engine):
        records = list(reversed(beacon_records(count=10)))
        output = engine.run(DataExtractionJob(), enumerate(records))
        _pair, summary = output[0]
        assert all(i >= 0 for i in summary.intervals)


class TestRescaleMergeJob:
    def test_merges_multiple_windows(self, engine):
        day1 = ActivitySummary.from_timestamps("m", "d", [0.0, 300.0, 600.0])
        day2 = ActivitySummary.from_timestamps(
            "m", "d", [86_400.0, 86_700.0, 87_000.0]
        )
        output = engine.run(
            RescaleMergeJob(60.0), [(s.pair, s) for s in (day1, day2)]
        )
        assert len(output) == 1
        _pair, merged = output[0]
        assert merged.time_scale == 60.0
        assert merged.event_count == 6

    def test_already_coarse_passes_through(self, engine):
        coarse = ActivitySummary.from_timestamps(
            "m", "d", [0.0, 300.0], time_scale=300.0
        )
        output = engine.run(RescaleMergeJob(60.0), [(coarse.pair, coarse)])
        _pair, merged = output[0]
        assert merged.time_scale == 300.0


class TestPopularityJob:
    def test_counts_distinct_sources(self, engine):
        summaries = [
            ActivitySummary.from_timestamps(f"mac{i}", "shared.com", [0.0, 1.0])
            for i in range(5)
        ] + [ActivitySummary.from_timestamps("mac0", "rare.com", [0.0, 1.0])]
        counts = dict(
            engine.run(
                DestinationPopularityJob(), [(s.pair, s) for s in summaries]
            )
        )
        assert counts["shared.com"] == 5
        assert counts["rare.com"] == 1

    def test_popularity_table(self):
        table = popularity_table([("a.com", 5), ("b.com", 1)], population=10)
        assert table["a.com"] == 0.5
        assert table["b.com"] == 0.1

    def test_popularity_table_zero_population(self):
        assert popularity_table([("a.com", 5)], 0) == {"a.com": 0.0}


class TestDetectionJob:
    def test_detects_beacon(self, engine):
        summary = ActivitySummary.from_timestamps(
            "m", "evil.com", [i * 60.0 for i in range(200)]
        )
        output = engine.run(
            BeaconingDetectionJob(), [(summary.pair, summary)]
        )
        assert len(output) == 1
        _pair, case = output[0]
        assert isinstance(case, DetectionCase)
        assert case.detection.dominant_period == pytest.approx(60.0, rel=0.05)

    def test_skips_whitelisted(self, engine):
        summary = ActivitySummary.from_timestamps(
            "m", "benign.com", [i * 60.0 for i in range(100)]
        )
        job = BeaconingDetectionJob(skip_destinations=frozenset({"benign.com"}))
        assert engine.run(job, [(summary.pair, summary)]) == []

    def test_skips_short_series(self, engine):
        summary = ActivitySummary.from_timestamps("m", "d", [0.0, 60.0, 120.0])
        job = BeaconingDetectionJob(min_events=4)
        assert engine.run(job, [(summary.pair, summary)]) == []

    def test_non_periodic_not_reported(self, engine, rng):
        timestamps = sorted(rng.uniform(0, 86_400, size=100))
        summary = ActivitySummary.from_timestamps("m", "d", timestamps)
        assert engine.run(BeaconingDetectionJob(), [(summary.pair, summary)]) == []

    def test_pickles_without_detector(self):
        import pickle

        job = BeaconingDetectionJob()
        job._get_detector()
        clone = pickle.loads(pickle.dumps(job))
        assert clone._detector is None
