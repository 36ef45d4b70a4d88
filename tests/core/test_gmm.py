"""Unit tests for repro.core.gmm."""

import math

import numpy as np
import pytest

from repro.core.gmm import GaussianComponent, fit_gmm, select_gmm
from repro.core.timeseries import intervals_from_timestamps
from repro.synthetic import conficker_spec


@pytest.fixture
def two_cluster_data(rng):
    """Intervals mimicking Conficker: many ~5 s, some ~175 s."""
    fast = rng.normal(5.0, 0.5, size=400)
    slow = rng.normal(175.0, 3.0, size=100)
    return np.concatenate([fast, slow])


class TestFitGmm:
    def test_single_component_recovers_mean(self, rng):
        data = rng.normal(50.0, 2.0, size=500)
        model = fit_gmm(data, 1)
        assert model.components[0].mean == pytest.approx(50.0, abs=0.5)
        assert model.components[0].weight == pytest.approx(1.0)

    def test_two_components_recover_clusters(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 2)
        means = sorted(c.mean for c in model.components)
        assert means[0] == pytest.approx(5.0, abs=1.0)
        assert means[1] == pytest.approx(175.0, abs=5.0)

    def test_weights_sum_to_one(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 3)
        assert sum(c.weight for c in model.components) == pytest.approx(1.0)

    def test_variance_floor_respected(self):
        data = [5.0] * 20  # zero-variance data
        model = fit_gmm(data, 1)
        assert model.components[0].variance >= 1e-4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0], 2)

    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0], 0)

    def test_deterministic_with_seed(self, two_cluster_data):
        a = fit_gmm(two_cluster_data, 2, rng=np.random.default_rng(1))
        b = fit_gmm(two_cluster_data, 2, rng=np.random.default_rng(1))
        assert a.log_likelihood == b.log_likelihood


class TestSelectGmm:
    def test_bic_picks_two_for_two_clusters(self, two_cluster_data):
        model = select_gmm(two_cluster_data, max_components=4)
        assert model.n_components == 2

    def test_bic_picks_one_for_unimodal(self, rng):
        data = rng.normal(60.0, 1.0, size=300)
        model = select_gmm(data, max_components=4)
        assert model.n_components == 1

    def test_candidate_periods_heaviest_first(self, two_cluster_data):
        model = select_gmm(two_cluster_data, max_components=4)
        periods = model.candidate_periods()
        assert periods[0] == pytest.approx(5.0, abs=1.0)

    def test_min_count_keeps_rare_component(self, rng):
        # 500 fast intervals, only 8 slow ones (weight 1.6%).
        data = np.concatenate(
            [rng.normal(7.5, 0.2, size=500), rng.normal(10800.0, 10.0, size=8)]
        )
        model = select_gmm(data, max_components=4)
        by_weight_only = model.candidate_periods(min_weight=0.1)
        with_count = model.candidate_periods(min_weight=0.1, min_count=6)
        assert any(p > 10_000 for p in with_count)
        assert len(with_count) >= len(by_weight_only)

    def test_respects_sample_minimum(self):
        with pytest.raises(ValueError):
            select_gmm([1.0])


class TestResponsibilities:
    def test_hard_assignment_separates_clusters(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 2)
        assignment = model.assign([5.0, 175.0])
        assert assignment[0] != assignment[1]

    def test_responsibilities_rows_sum_to_one(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 3)
        resp = model.responsibilities(two_cluster_data[:50])
        assert np.allclose(resp.sum(axis=1), 1.0)


# -- parity with the per-sample EM ---------------------------------------------
#
# ``fit_gmm`` runs EM over distinct values weighted by their counts.  The
# reference below is plain per-sample EM over every interval, so the
# weighted updates can be checked against it on heavily repeated inputs.


def _reference_log_probs(x, components):
    logs = np.empty((x.size, len(components)))
    for j, comp in enumerate(components):
        log_w = math.log(max(comp.weight, 1e-300))
        logs[:, j] = (
            log_w
            - 0.5 * (math.log(2.0 * math.pi) + math.log(comp.variance))
            - 0.5 * (x - comp.mean) ** 2 / comp.variance
        )
    return logs


def _reference_logsumexp(a):
    peak = np.max(a, axis=1, keepdims=True)
    return peak + np.log(np.sum(np.exp(a - peak), axis=1, keepdims=True))


def _reference_init_means(x, k, rng):
    means = [float(rng.choice(x))]
    while len(means) < k:
        dist_sq = np.min(
            np.abs(x[:, None] - np.asarray(means)[None, :]) ** 2, axis=1
        )
        total = dist_sq.sum()
        if total <= 0:
            means.append(float(rng.choice(x)))
            continue
        means.append(float(rng.choice(x, p=dist_sq / total)))
    return np.asarray(means)


def _reference_fit(x, k, rng, max_iter=200, tol=1e-6, variance_floor=1e-4):
    """Per-sample EM: returns (components, log_likelihood, bic, converged)."""
    means = _reference_init_means(x, k, rng)
    variances = np.full(k, max(float(np.var(x)), variance_floor))
    weights = np.full(k, 1.0 / k)
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iter):
        components = tuple(
            GaussianComponent(float(m), float(v), float(w))
            for m, v, w in zip(means, variances, weights)
        )
        log_probs = _reference_log_probs(x, components)
        log_norm = _reference_logsumexp(log_probs)
        log_likelihood = float(np.sum(log_norm))
        resp = np.exp(log_probs - log_norm)
        counts = np.maximum(resp.sum(axis=0), 1e-12)
        weights = counts / x.size
        means = (resp * x[:, None]).sum(axis=0) / counts
        diffs = x[:, None] - means[None, :]
        variances = np.maximum(
            (resp * diffs**2).sum(axis=0) / counts, variance_floor
        )
        if abs(log_likelihood - prev_ll) < tol * max(1.0, abs(prev_ll)):
            converged = True
            prev_ll = log_likelihood
            break
        prev_ll = log_likelihood
    components = tuple(
        GaussianComponent(float(m), float(v), float(w))
        for m, v, w in zip(means, variances, weights)
    )
    bic = (3 * k - 1) * math.log(x.size) - 2.0 * prev_ll
    return components, prev_ll, bic, converged


def _reference_select(x, max_components, rng, restarts=3):
    best = None
    for k in range(1, min(max_components, x.size) + 1):
        for _ in range(restarts):
            model = _reference_fit(x, k, rng)
            if best is None or model[2] < best[2]:
                best = model
    return best


def _quantized_noise():
    rng = np.random.default_rng(21)
    return np.round(rng.exponential(3 * 3600.0, size=234) / 600.0 + 1.0) * 600.0


def _jittered_beacon():
    rng = np.random.default_rng(22)
    return np.round(rng.normal(7200.0, 400.0, size=240) / 600.0) * 600.0


def _conficker_mixture():
    trace = conficker_spec(86_400.0).generate(np.random.default_rng(3))
    ivals = np.round(intervals_from_timestamps(trace))
    return ivals[ivals > 0]


PARITY_INPUTS = {
    "quantized-noise": _quantized_noise,
    "jittered-beacon": _jittered_beacon,
    "conficker": _conficker_mixture,
    "all-equal": lambda: np.full(50, 600.0),
    "k-exceeds-distinct": lambda: np.repeat([600.0, 1200.0, 3000.0], [40, 25, 5]),
}


def _assert_parity(model, reference):
    components, log_likelihood, bic, converged = reference
    assert model.n_components == len(components)
    assert model.converged == converged
    for got, want in zip(model.components, components):
        assert got.mean == pytest.approx(want.mean, rel=1e-9)
        assert got.variance == pytest.approx(want.variance, rel=1e-9)
        assert got.weight == pytest.approx(want.weight, rel=1e-9)
    assert model.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)
    assert model.bic == pytest.approx(bic, rel=1e-12)


class TestCountWeightedParity:
    @pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
    def test_inputs_repeat_heavily(self, name):
        x = PARITY_INPUTS[name]()
        assert np.unique(x).size <= x.size // 2

    @pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fit_matches_per_sample_em(self, name, k):
        x = PARITY_INPUTS[name]()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        model = fit_gmm(x, k, rng=rng)
        _assert_parity(model, _reference_fit(x, k, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
    def test_select_matches_per_sample_em(self, name):
        x = PARITY_INPUTS[name]()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        model = select_gmm(x, max_components=4, rng=rng)
        _assert_parity(model, _reference_select(x, 4, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
