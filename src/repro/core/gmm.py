"""Gaussian mixture modelling of interval lists — paper Fig. 7.

Malware such as Conficker interleaves several periods (7-8 s bursts
separated by ~3 h sleeps).  A single dominant DFT peak cannot express
this, but the *interval list* can: it is a mixture of well-separated
Gaussian clusters, one per underlying period.  BAYWATCH fits 1-D Gaussian
mixture models with increasing component counts, selects the count by the
Bayesian Information Criterion (BIC), and reports each component mean as
a candidate period with its mixture weight.

The EM implementation is self-contained (no sklearn): k-means++-style
initialization, standard E/M updates with a variance floor, and
log-likelihood convergence monitoring.  EM iterates over the *distinct*
interval values, each weighted by its multiplicity: quantized interval
lists repeat heavily (a 600 s summary scale leaves a few dozen distinct
values among hundreds of intervals), and the weighted updates equal the
per-sample ones up to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import as_float_array, require, require_positive

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: a candidate period cluster."""

    mean: float
    variance: float
    weight: float

    @property
    def std(self) -> float:
        """Standard deviation of the component."""
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GaussianMixture:
    """A fitted 1-D Gaussian mixture over an interval list."""

    components: Tuple[GaussianComponent, ...]
    log_likelihood: float
    bic: float
    n_samples: int
    converged: bool

    @property
    def n_components(self) -> int:
        """Number of mixture components."""
        return len(self.components)

    def dominant_components(
        self, min_weight: float = 0.05, *, min_count: int = 0
    ) -> List[GaussianComponent]:
        """Components with enough support, heaviest first.

        A component is kept when it carries at least ``min_weight`` of
        the probability mass *or* is backed by at least ``min_count``
        samples — a handful of 3-hour sleep intervals among hundreds of
        burst beacons is a genuine period despite its tiny weight.
        """
        kept = [
            c
            for c in self.components
            if c.weight >= min_weight
            or (min_count > 0 and c.weight * self.n_samples >= min_count)
        ]
        return sorted(kept, key=lambda c: c.weight, reverse=True)

    def candidate_periods(
        self, min_weight: float = 0.05, *, min_count: int = 0
    ) -> List[float]:
        """Component means (candidate periods), heaviest first."""
        return [
            c.mean
            for c in self.dominant_components(min_weight, min_count=min_count)
        ]

    def responsibilities(self, values: Sequence[float]) -> np.ndarray:
        """Posterior component membership for each value, shape (n, k)."""
        x = as_float_array(values, "values")
        log_probs = _log_probs(
            x,
            np.asarray([c.mean for c in self.components]),
            np.asarray([c.variance for c in self.components]),
            np.asarray([c.weight for c in self.components]),
        )
        log_norm = _logsumexp(log_probs, axis=1, keepdims=True)
        return np.exp(log_probs - log_norm)

    def assign(self, values: Sequence[float]) -> np.ndarray:
        """Hard assignment of each value to its most likely component."""
        return np.argmax(self.responsibilities(values), axis=1)


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    out = peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def _log_probs(
    x: np.ndarray, means: np.ndarray, variances: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted log density of each sample under each component, (n, k)."""
    log_coef = np.log(np.maximum(weights, 1e-300)) - 0.5 * (
        _LOG_2PI + np.log(variances)
    )
    return log_coef - 0.5 * (x[:, None] - means) ** 2 / variances


def _init_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style spread initialization of component means."""
    means = [float(rng.choice(x))]
    while len(means) < k:
        dist_sq = np.min(
            np.abs(x[:, None] - np.asarray(means)[None, :]) ** 2, axis=1
        )
        total = dist_sq.sum()
        if total <= 0:
            means.append(float(rng.choice(x)))
            continue
        probs = dist_sq / total
        means.append(float(rng.choice(x, p=probs)))
    return np.asarray(means)


def fit_gmm(
    values: Sequence[float],
    n_components: int,
    *,
    max_iter: int = 200,
    tol: float = 1e-6,
    variance_floor: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> GaussianMixture:
    """Fit a 1-D Gaussian mixture with ``n_components`` via EM."""
    require(n_components >= 1, "n_components must be at least 1")
    require_positive(max_iter, "max_iter")
    x = as_float_array(values, "values")
    require(x.size >= n_components, "need at least one sample per component")
    if rng is None:
        rng = np.random.default_rng(0)

    means = _init_means(x, n_components, rng)
    spread = float(np.var(x))
    variances = np.full(n_components, max(spread, variance_floor))
    weights = np.full(n_components, 1.0 / n_components)

    # EM over distinct values: each carries its multiplicity, so the
    # sums below equal the per-sample sums while touching far fewer rows.
    uniq, mult = np.unique(x, return_counts=True)
    mult = mult.astype(float)
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iter):
        log_probs = _log_probs(uniq, means, variances, weights)
        log_norm = _logsumexp(log_probs, axis=1, keepdims=True)
        log_likelihood = float(mult @ log_norm[:, 0])
        resp = np.exp(log_probs - log_norm) * mult[:, None]

        totals = np.maximum(resp.sum(axis=0), 1e-12)
        weights = totals / x.size
        means = (uniq @ resp) / totals
        diffs = uniq[:, None] - means
        variances = (diffs**2 * resp).sum(axis=0) / totals
        variances = np.maximum(variances, variance_floor)

        if abs(log_likelihood - prev_ll) < tol * max(1.0, abs(prev_ll)):
            converged = True
            prev_ll = log_likelihood
            break
        prev_ll = log_likelihood

    components = tuple(
        GaussianComponent(float(m), float(v), float(w))
        for m, v, w in zip(means, variances, weights)
    )
    # Parameters per component: mean, variance; weights contribute k - 1.
    n_params = 3 * n_components - 1
    bic = n_params * math.log(x.size) - 2.0 * prev_ll
    return GaussianMixture(
        components=components,
        log_likelihood=prev_ll,
        bic=bic,
        n_samples=int(x.size),
        converged=converged,
    )


def select_gmm(
    values: Sequence[float],
    *,
    max_components: int = 5,
    restarts: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> GaussianMixture:
    """Fit mixtures with 1..``max_components`` components, keep best BIC.

    Each component count is fitted ``restarts`` times from different
    initializations; the overall BIC-minimal model is returned (paper
    Fig. 7: "BIC vs. # components").
    """
    require(max_components >= 1, "max_components must be at least 1")
    require(restarts >= 1, "restarts must be at least 1")
    x = as_float_array(values, "values")
    require(x.size >= 2, "need at least 2 values to fit a mixture")
    if rng is None:
        rng = np.random.default_rng(0)
    best: Optional[GaussianMixture] = None
    limit = min(max_components, x.size)
    for k in range(1, limit + 1):
        for _ in range(restarts):
            model = fit_gmm(x, k, rng=rng)
            if best is None or model.bic < best.bic:
                best = model
    assert best is not None
    return best
