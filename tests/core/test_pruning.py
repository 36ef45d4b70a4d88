"""Unit tests for repro.core.pruning — the paper's step 2 filters."""

import numpy as np
import pytest

from repro.core.gmm import fit_gmm
from repro.core.pruning import (
    fold_intervals,
    prune_candidates,
    prune_high_frequency,
    prune_sampling_rate,
    t_test_candidate,
)


class TestHighFrequencyFilter:
    def test_tdss_example_from_paper(self):
        """Fig. 6: min interval 196 s prunes all candidates below it."""
        intervals = [404, 663, 400, 362, 1933, 445, 407, 423, 372, 395,
                     362, 400, 369, 822, 5512, 196, 1023, 635, 817, 919,
                     492, 423, 391, 442, 759]
        candidates = [30.5473, 2.36615, 387.34, 8.8351, 33.1626]
        decisions = prune_high_frequency(candidates, intervals)
        kept = [d.period for d in decisions if d.kept]
        assert kept == [387.34]

    def test_all_kept_when_periods_large(self):
        decisions = prune_high_frequency([100.0, 200.0], [50.0, 60.0])
        assert all(d.kept for d in decisions)

    def test_no_positive_intervals(self):
        decisions = prune_high_frequency([10.0], [0.0, 0.0])
        assert not decisions[0].kept
        assert "no positive intervals" in decisions[0].reason


class TestFoldIntervals:
    def test_identity_for_single_period(self):
        intervals = np.array([100.0, 101.0, 99.0])
        assert np.allclose(fold_intervals(intervals, 100.0), intervals)

    def test_doubles_fold_back(self):
        intervals = np.array([100.0, 200.0, 300.0])
        folded = fold_intervals(intervals, 100.0)
        assert np.allclose(folded, [100.0, 100.0, 100.0])

    def test_sub_period_intervals_untouched(self):
        intervals = np.array([10.0, 100.0])
        folded = fold_intervals(intervals, 100.0)
        assert folded[0] == 10.0


class TestTTest:
    def test_true_period_kept(self, rng):
        intervals = rng.normal(300.0, 10.0, size=100)
        decision = t_test_candidate(300.0, intervals)
        assert decision.kept
        assert decision.p_value > 0.05

    def test_wrong_period_pruned(self, rng):
        intervals = rng.normal(300.0, 10.0, size=100)
        decision = t_test_candidate(350.0, intervals, fold=False)
        assert not decision.kept

    def test_folding_tolerates_missing_events(self, rng):
        """25% missing beacons double some intervals; folding recovers."""
        base = rng.normal(300.0, 5.0, size=200)
        doubled = np.where(rng.random(200) < 0.25, base * 2, base)
        assert not t_test_candidate(300.0, doubled, fold=False).kept
        assert t_test_candidate(300.0, doubled, fold=True).kept

    def test_mixture_restricts_to_matching_cluster(self, rng):
        """Conficker-style two-period intervals pass via the mixture."""
        intervals = np.concatenate(
            [rng.normal(7.5, 0.3, size=300), rng.normal(10800.0, 30.0, size=20)]
        )
        mixture = fit_gmm(intervals, 2)
        without = t_test_candidate(7.5, intervals, mixture=None, fold=False)
        with_mix = t_test_candidate(7.5, intervals, mixture=mixture, fold=False)
        assert not without.kept
        assert with_mix.kept

    def test_no_positive_intervals_pruned(self):
        decision = t_test_candidate(10.0, [0.0, 0.0])
        assert not decision.kept

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            t_test_candidate(0.0, [1.0, 2.0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            t_test_candidate(10.0, [1.0, 2.0], alpha=2.0)


class TestSamplingRateFilter:
    def test_too_few_cycles_pruned(self):
        decisions = prune_sampling_rate(
            [1000.0], n_events=100, duration=2000.0, min_cycles=3
        )
        assert not decisions[0].kept
        assert "cycles" in decisions[0].reason

    def test_enough_cycles_kept(self):
        decisions = prune_sampling_rate(
            [100.0], n_events=100, duration=2000.0, min_cycles=3
        )
        assert decisions[0].kept

    def test_too_few_events_pruned(self):
        decisions = prune_sampling_rate(
            [10.0], n_events=2, duration=2000.0, min_events=4
        )
        assert not decisions[0].kept
        assert "events" in decisions[0].reason

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            prune_sampling_rate([10.0], n_events=5, duration=100.0, min_cycles=0)
        with pytest.raises(ValueError):
            prune_sampling_rate([10.0], n_events=5, duration=100.0, min_events=1)


class TestPruneCandidates:
    def test_tdss_end_to_end(self, rng):
        """Only the true ~387 s candidate survives all three filters."""
        intervals = rng.normal(387.0, 30.0, size=200)
        intervals = np.maximum(intervals, 200.0)
        candidates = [30.5473, 2.36615, 387.34, 8.8351, 33.1626]
        decisions = prune_candidates(candidates, intervals)
        kept = [d.period for d in decisions if d.kept]
        assert kept == [387.34]

    def test_order_of_reasons(self, rng):
        """High-frequency rejection takes precedence over the t-test."""
        intervals = rng.normal(387.0, 30.0, size=200)
        decisions = prune_candidates([1.0], intervals)
        assert "min interval" in decisions[0].reason

    def test_one_decision_per_candidate(self, rng):
        intervals = rng.normal(100.0, 5.0, size=50)
        candidates = [50.0, 100.0, 150.0, 200.0]
        decisions = prune_candidates(candidates, intervals)
        assert len(decisions) == len(candidates)
        assert [d.period for d in decisions] == candidates

    @pytest.mark.parametrize("fold", [True, False])
    def test_shared_assignment_matches_per_candidate_tests(self, rng, fold):
        """One mixture assignment per call decides as the per-candidate path."""
        intervals = np.concatenate(
            [rng.normal(7.5, 0.3, size=300), rng.normal(10800.0, 30.0, size=20),
             [0.0, 0.0]]
        )
        mixture = fit_gmm(intervals[intervals > 0], 2)
        candidates = [1.0, 7.5, 7.9, 15.0, 3600.0, 10800.0, 200000.0]
        tolerances = [0.0, 0.1, 0.0, 0.5, 0.0, 60.0, 0.0]
        decisions = prune_candidates(
            candidates, intervals, mixture=mixture, fold=fold,
            tolerances=tolerances,
        )
        hf = prune_high_frequency(candidates, intervals)
        sampling = prune_sampling_rate(
            candidates, n_events=intervals.size + 1,
            duration=float(intervals.sum()),
        )
        expected = [
            h if not h.kept else s if not s.kept else t_test_candidate(
                period, intervals, mixture=mixture, fold=fold, tolerance=tol
            )
            for period, tol, h, s in zip(candidates, tolerances, hf, sampling)
        ]
        assert decisions == expected
        assert sum(d.reason != "ok" for d in decisions) >= 2
        assert sum(d.kept for d in decisions) >= 2

    def test_mixture_assigned_once_per_call(self, rng, monkeypatch):
        intervals = np.concatenate(
            [rng.normal(7.5, 0.3, size=300), rng.normal(10800.0, 30.0, size=20)]
        )
        mixture = fit_gmm(intervals, 2)
        calls = []
        assign = type(mixture).assign
        monkeypatch.setattr(
            type(mixture), "assign",
            lambda self, values: calls.append(1) or assign(self, values),
        )
        prune_candidates([7.5, 7.6, 10800.0], intervals, mixture=mixture)
        assert len(calls) == 1
