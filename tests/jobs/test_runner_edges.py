"""Edge-path tests for the MapReduce runner."""

import pytest

from repro.filtering import PipelineConfig
from repro.jobs import BaywatchRunner
from repro.synthetic import ProxyLogRecord


@pytest.fixture
def runner():
    return BaywatchRunner(
        PipelineConfig(local_whitelist_threshold=0.2, ranking_percentile=0.0)
    )


class TestRunnerEdges:
    def test_empty_records(self, runner):
        report = runner.run([])
        assert report.ranked_cases == []
        assert report.detected_cases == []
        assert report.population_size == 0

    def test_single_pair_non_periodic(self, runner, rng):
        timestamps = sorted(rng.uniform(0, 86_400, size=50))
        records = [
            ProxyLogRecord(float(t), "mac1", "10.0.0.1", "rand.com", "/x")
            for t in timestamps
        ]
        report = runner.run(records)
        assert report.detected_cases == []

    def test_all_whitelisted(self, runner):
        records = [
            ProxyLogRecord(float(i * 60), "mac1", "10.0.0.1", "google.com", "/")
            for i in range(50)
        ]
        report = runner.run(records)
        assert report.detected_cases == []
        # Funnel records the global-whitelist drop.
        step = dict(
            (name, (i, o)) for name, i, o in report.funnel.steps
        )["1 global whitelist"]
        assert step == (1, 0)

    def test_phase_methods_on_empty(self, runner):
        assert runner.extract([]) == []
        ratios, counts, population = runner.popularity([])
        assert ratios == {} and counts == {} and population == 0
        assert runner.detect([], frozenset()) == []

    def test_novelty_across_runs(self, rng):
        from repro.filtering import NoveltyStore

        records = [
            ProxyLogRecord(float(i * 60), "mac1", "10.0.0.1",
                           "xqzwvkpj.com", "/gate.php")
            for i in range(200)
        ]
        novelty = NoveltyStore()
        config = PipelineConfig(
            local_whitelist_threshold=0.2, ranking_percentile=0.0
        )
        first = BaywatchRunner(config, novelty=novelty).run(records)
        second = BaywatchRunner(config, novelty=novelty).run(records)
        assert len(first.ranked_cases) == 1
        assert second.ranked_cases == []
