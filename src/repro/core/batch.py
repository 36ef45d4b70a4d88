"""Batched multi-pair spectral kernels — the detection fast path.

The serial detector runs one ``rfft`` per (pair, scale) slot, one more
for each ACF, and twenty more inside every cold permutation test.  At
BAYWATCH scale (Section VII: millions of pairs) the per-call Python and
scipy dispatch overhead of those small transforms dominates the actual
arithmetic.  This module amortizes it:

- :func:`batch_power_spectra`, :func:`batch_autocorrelation`, and
  :func:`batch_candidate_peaks` group signals by transform shape, stack
  them into 2-D arrays, and run *single* batched ``scipy.fft`` calls
  (optionally threaded via ``workers=``); per-pair post-processing
  consumes rows of the shared arrays.
- :class:`BatchedDetector` drives whole batches of
  :class:`~repro.core.timeseries.ActivitySummary` pairs through the
  :class:`~repro.core.detector.PeriodicityDetector` seams, replacing
  the per-pair transforms with the kernels above.

Every kernel is bit-for-bit equivalent to its serial counterpart (the
same mean removal, padding, and normalization in the same dtype), and
the driver consumes each pair's seeded generator in the serial order —
so batch size 1 *and* batch size N reproduce ``detect_summary`` exactly.
The parity suite enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as _fft

from repro.core.detector import (
    CandidatePeriod,
    DetectionResult,
    PeriodicityDetector,
    _PairPlan,
    _ScaleWork,
)
from repro.core.periodogram import SpectralPeak, candidate_peaks
from repro.core.timeseries import ActivitySummary
from repro.obs.registry import get_registry
from repro.obs.tracing import span
from repro.utils.validation import as_sorted_timestamps, require

__all__ = [
    "batch_power_spectra",
    "batch_autocorrelation",
    "batch_candidate_peaks",
    "BatchedDetector",
]


def batch_power_spectra(
    signals: np.ndarray, *, workers: Optional[int] = None
) -> np.ndarray:
    """Periodogram power of every row of equal-length ``signals``.

    Row ``i`` of the result equals
    ``power_spectrum(signals[i])`` bit for bit — same mean removal,
    same transform length, same normalization — but all rows share one
    batched real FFT.  ``workers`` threads the transform for large
    batches (scipy releases the GIL per row block).
    """
    x = np.ascontiguousarray(signals, dtype=float)
    require(x.ndim == 2, "signals must be 2-D (one row per pair)")
    require(x.shape[1] >= 4, "signals must have at least 4 columns")
    centered = x - x.mean(axis=1, keepdims=True)
    spectrum = _fft.rfft(centered, axis=1, workers=workers)
    # The elementwise complex ops run per row: numpy's SIMD kernels may
    # round |z|**2 differently over a long 2-D buffer than over the 1-D
    # array the serial power_spectrum sees, and bitwise parity wins over
    # the marginal vectorization gain (the FFT above stays batched).
    out = np.empty((x.shape[0], x.shape[1] // 2))
    for row in range(x.shape[0]):
        power = (np.abs(spectrum[row]) ** 2) / x.shape[1]
        out[row] = power[1:]  # drop DC, as power_spectrum does
    return out


def batch_autocorrelation(
    signals: Sequence[np.ndarray], *, workers: Optional[int] = None
) -> List[np.ndarray]:
    """ACF of each (variable-length) signal via shape-grouped transforms.

    Signals are bucketed by their FFT size (``next_fast_len(2n)`` —
    the same padded length :func:`~repro.core.autocorrelation.autocorrelation`
    uses), zero-padded into one stack per bucket, and transformed with a
    single ``rfft``/``irfft`` pair per bucket.  Each returned array is
    bitwise identical to the serial ACF, including the degenerate
    zero-variance case (all-equal signal -> zeros with ``acf[0] = 1``).
    """
    arrays = [np.asarray(signal, dtype=float) for signal in signals]
    out: List[Optional[np.ndarray]] = [None] * len(arrays)
    groups: Dict[int, List[int]] = {}
    for index, x in enumerate(arrays):
        require(
            x.ndim == 1 and x.size >= 4,
            "each signal must be 1-D with at least 4 samples",
        )
        groups.setdefault(_fft.next_fast_len(2 * x.size), []).append(index)
    for size, members in groups.items():
        padded = np.zeros((len(members), size))
        variances = np.empty(len(members))
        for row, index in enumerate(members):
            x = arrays[index]
            centered = x - x.mean()
            padded[row, : x.size] = centered
            variances[row] = float(np.dot(centered, centered))
        spectrum = _fft.rfft(padded, axis=1, workers=workers)
        # Self-product row by row: the complex multiply is the one
        # elementwise op whose SIMD rounding depends on buffer length,
        # so a single 2-D product would drift from the serial ACF by an
        # ulp.  Both FFTs are batched; only this product is per-row.
        product = np.empty_like(spectrum)
        for row in range(len(members)):
            product[row] = spectrum[row] * np.conj(spectrum[row])
        correlation = _fft.irfft(product, size, axis=1, workers=workers)
        for row, index in enumerate(members):
            n = arrays[index].size
            if variances[row] <= 0:
                acf = np.zeros(n)
                acf[0] = 1.0
            else:
                acf = correlation[row, :n] / variances[row]
            out[index] = acf
    return out  # type: ignore[return-value]


def batch_candidate_peaks(
    signals: np.ndarray,
    thresholds: Sequence[float],
    *,
    max_candidates: int = 32,
    workers: Optional[int] = None,
) -> List[List[SpectralPeak]]:
    """Spectral peaks of each row of equal-length ``signals``.

    Equivalent to calling
    :func:`~repro.core.periodogram.candidate_peaks` per row against the
    matching threshold, with all row periodograms produced by one
    batched transform.
    """
    x = np.asarray(signals, dtype=float)
    require(x.ndim == 2, "signals must be 2-D (one row per pair)")
    levels = np.asarray(thresholds, dtype=float)
    require(
        levels.shape == (x.shape[0],),
        "thresholds must provide one level per signal row",
    )
    power = batch_power_spectra(x, workers=workers)
    return [
        candidate_peaks(
            row,
            float(level),
            max_candidates=max_candidates,
            spectrum=row_power,
        )
        for row, level, row_power in zip(x, levels, power)
    ]


@dataclass
class _Slot:
    """One (pair, scale) unit of batched work."""

    scale: float
    signal: np.ndarray
    spectrum: Optional[np.ndarray] = None
    #: Row maximum of ``spectrum``, computed vectorized per shape group.
    #: When it does not strictly exceed the permutation threshold,
    #: ``_analyze_scale`` provably returns None (both DFT peaks and the
    #: GMM window probe require ``power > threshold``) with no counter
    #: side effects, so the whole call is skipped.
    spectrum_max: float = 0.0
    work: Optional[_ScaleWork] = None
    acf: Optional[np.ndarray] = None


@dataclass
class _PairUnit:
    """Per-pair state threaded through the batch phases."""

    detector: PeriodicityDetector
    result: Optional[DetectionResult] = None  # early rejection
    plan: Optional[_PairPlan] = None
    slots: List[_Slot] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)


class BatchedDetector:
    """Multi-pair detection over the shape-grouped kernels.

    Wraps a :class:`PeriodicityDetector` and processes summaries in
    chunks of ``batch_size``: per-pair screening, planning, and binning
    run first (consuming each pair's seeded generator exactly as the
    serial path does), then all periodograms of a chunk are produced by
    shape-grouped batched FFTs, then candidate analysis runs per slot,
    and finally the surviving slots' ACFs come from one more batched
    transform before per-pair verification and merging.

    Results are returned in input order and are identical to calling
    ``detector.detect_summary`` per pair — batching changes the
    transform grouping, never the arithmetic or the random stream.
    """

    def __init__(
        self,
        detector: Optional[PeriodicityDetector] = None,
        *,
        batch_size: int = 256,
        workers: Optional[int] = None,
    ) -> None:
        require(batch_size >= 1, "batch_size must be at least 1")
        self.detector = detector or PeriodicityDetector()
        self.batch_size = batch_size
        self.workers = workers

    def detect_summaries(
        self, summaries: Sequence[ActivitySummary]
    ) -> List[DetectionResult]:
        """Detection results for ``summaries``, in input order."""
        results: List[DetectionResult] = []
        for start in range(0, len(summaries), self.batch_size):
            chunk = summaries[start : start + self.batch_size]
            with span("detect.batch"):
                results.extend(self._detect_chunk(chunk))
        return results

    # -- batch phases ------------------------------------------------------

    def _detect_chunk(
        self, summaries: Sequence[ActivitySummary]
    ) -> List[DetectionResult]:
        registry = get_registry()
        registry.counter("detector.batch.batches").inc()
        registry.counter("detector.batch.pairs").inc(len(summaries))

        # Phase 1 — screen, plan (interval GMM), and bin every pair.
        # This is the rng-bearing part, so it runs strictly in pair order.
        units: List[_PairUnit] = []
        pending: List[_Slot] = []
        with span("detect.batch.plan"):
            for summary in summaries:
                registry.counter("detector.pairs_total").inc()
                detector = self.detector.for_time_scale(summary.time_scale)
                unit = _PairUnit(detector=detector)
                ts = as_sorted_timestamps(summary.timestamps())
                early, prepared = detector._screen(ts)
                if early is not None:
                    unit.result = early
                else:
                    duration, scales = prepared
                    unit.plan = detector._plan(ts, duration, scales)
                    for scale in unit.plan.scales:
                        signal = detector._bin_at_scale(unit.plan, scale)
                        if signal is not None:
                            slot = _Slot(scale=scale, signal=signal)
                            unit.slots.append(slot)
                            pending.append(slot)
                units.append(unit)

        # Phase 2 — one batched FFT per distinct signal length.
        with span("detect.batch.spectra"):
            self._attach_spectra(pending, registry)

        # Phase 3 — thresholds and pre-ACF candidate analysis, again in
        # pair order: the no-cache permutation path draws from the
        # pair's generator, scale by scale, exactly like the serial loop.
        acf_slots: List[_Slot] = []
        with span("detect.batch.analyze"):
            for unit in units:
                if unit.plan is None:
                    continue
                for slot in unit.slots:
                    threshold = unit.detector._scale_threshold(
                        slot.signal, unit.plan.rng
                    )
                    unit.thresholds.append(threshold)
                    margin = slot.spectrum_max - threshold
                    if margin > unit.plan.margin:
                        unit.plan.margin = margin
                    if slot.spectrum_max <= threshold:
                        continue  # nothing can clear the bar; see _Slot
                    slot.work = unit.detector._analyze_scale(
                        unit.plan, slot.scale, slot.signal,
                        slot.spectrum, threshold,
                    )
                    if slot.work is not None:
                        acf_slots.append(slot)

        # Phase 4 — one batched ACF per padded-length group, but only
        # for slots that still have candidates to verify (the serial
        # path computes the ACF just as lazily).
        with span("detect.batch.acf"):
            if acf_slots:
                registry.counter("detector.batch.acf_rows").inc(len(acf_slots))
                acfs = batch_autocorrelation(
                    [slot.signal for slot in acf_slots], workers=self.workers
                )
                for slot, acf in zip(acf_slots, acfs):
                    slot.acf = acf

        # Phase 5 — per-pair verification and merging.
        with span("detect.batch.verify"):
            results: List[DetectionResult] = []
            for unit in units:
                if unit.result is not None:
                    results.append(unit.result)
                    continue
                verified: List[CandidatePeriod] = []
                for slot in unit.slots:
                    if slot.work is not None:
                        verified.extend(
                            unit.detector._verify_scale(
                                unit.plan, slot.work, slot.acf
                            )
                        )
                result = unit.detector._finalize(
                    unit.plan, verified, unit.thresholds
                )
                if result.periodic:
                    registry.counter("detector.pairs_periodic").inc()
                results.append(result)
        return results

    def _attach_spectra(self, slots: List[_Slot], registry) -> None:
        """Fill each slot's periodogram from shape-grouped batched FFTs."""
        if not slots:
            return
        groups: Dict[int, List[_Slot]] = {}
        for slot in slots:
            groups.setdefault(slot.signal.size, []).append(slot)
        registry.counter("detector.batch.spectrum_groups").inc(len(groups))
        registry.counter("detector.batch.spectrum_rows").inc(len(slots))
        for members in groups.values():
            stacked = np.stack([slot.signal for slot in members])
            power = batch_power_spectra(stacked, workers=self.workers)
            maxima = power.max(axis=1)
            for row, slot in enumerate(members):
                slot.spectrum = power[row]
                slot.spectrum_max = float(maxima[row])
