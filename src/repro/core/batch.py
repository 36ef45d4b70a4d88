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
  the per-pair transforms with the kernels above.  With ``screen=True``
  it first runs a stateless day-grid screen (:func:`screen_scales`,
  :func:`bin_span`) that drops pairs whose spectrum cannot carry a
  verified candidate before any of them pays for the interval GMM.

Every kernel is bit-for-bit equivalent to its serial counterpart (the
same mean removal, padding, and normalization in the same dtype), and
the driver consumes each pair's seeded generator in the serial order —
so batch size 1 *and* batch size N reproduce ``detect_summary`` exactly.
The parity suite enforces this.

The screen is the one deliberate exception.  It bins every pair on a
fixed day-aligned grid (one window for the whole call) instead of from
the pair's first event, so a pair sitting exactly at the detection
boundary can be decided differently than the unscreened path decides
it.  It can only *drop* pairs: survivors run the unchanged phases, so
the screen never adds a detection.
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
from repro.utils.validation import (
    as_sorted_timestamps,
    require,
    require_positive,
)

__all__ = [
    "DAY",
    "batch_power_spectra",
    "batch_autocorrelation",
    "batch_candidate_peaks",
    "bin_span",
    "screen_scales",
    "BatchedDetector",
]

DAY = 86_400.0


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


# -- the day-grid screen ------------------------------------------------------


def _snap_bins_per_day(scale: float) -> int:
    """Bins per day for ``scale``, snapped so a day is a whole number.

    Every screen window is a whole number of days, so every screen
    scale must divide the day exactly; ladder scales that do not (e.g.
    38 400 s -> 2.25 bins/day) are snapped to the nearest day divisor
    (43 200 s -> 2), preserving the ladder's coverage of slow periods.
    """
    return max(1, int(round(DAY / scale)))


def screen_scales(
    *,
    time_scale: float,
    window_days: int,
    scale_factor: float = 4.0,
    max_scales: int = 6,
    min_slots: int = 32,
    max_signal_length: int = 1 << 21,
) -> List[Tuple[float, int]]:
    """The day-divisor analysis ladder for a ``window_days`` window.

    Mirrors the detector's geometric ladder
    (:meth:`PeriodicityDetector._choose_scales`) but snaps each rung to
    an exact divisor of the day.  Returns ``(scale_seconds,
    bins_per_day)`` rungs, finest first; rungs whose signal would be too
    long or too short are dropped, duplicates (after snapping) collapse.
    """
    require_positive(time_scale, "time_scale")
    require(window_days >= 1, "window_days must be at least 1")
    rungs: List[Tuple[float, int]] = []
    seen = set()
    scale = time_scale
    for _ in range(max_scales):
        bins_per_day = _snap_bins_per_day(scale)
        n_slots = window_days * bins_per_day
        if n_slots < max(min_slots, 8):
            break
        if n_slots <= max_signal_length and bins_per_day not in seen:
            seen.add(bins_per_day)
            rungs.append((DAY / bins_per_day, bins_per_day))
        scale *= scale_factor
    return rungs


def bin_span(
    timestamps: np.ndarray,
    scale: float,
    from_bin: int,
    to_bin: int,
    *,
    binary: bool = True,
) -> np.ndarray:
    """Bin events into absolute grid slots ``[from_bin, to_bin)``.

    Slot indices are global — ``floor(t / scale)`` — so every pair of a
    call shares one grid and one signal length per rung.  Events outside
    the span are dropped.
    """
    require(to_bin > from_bin, "to_bin must exceed from_bin")
    n = to_bin - from_bin
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        return np.zeros(n, dtype=float)
    indices = np.floor(ts / scale).astype(np.int64) - from_bin
    indices = indices[(indices >= 0) & (indices < n)]
    signal = np.bincount(indices, minlength=n).astype(float)
    if binary:
        np.minimum(signal, 1.0, out=signal)
    return signal


@dataclass(frozen=True)
class _ScreenWindow:
    """One call's day-grid window and its rung ladder."""

    start_day: int
    end_day: int
    rungs: List[Tuple[float, int]]


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

    ``screen=True`` adds phase 0 (:meth:`_screen_chunk`), the cheap
    day-grid screen for rolling-window ticks: dropped pairs never reach
    the interval GMM.  It needs a binary-signal detector with a
    :class:`~repro.core.permutation.ThresholdCache` (thresholds are
    looked up by signal shape); without one the screen is skipped.
    """

    def __init__(
        self,
        detector: Optional[PeriodicityDetector] = None,
        *,
        batch_size: int = 256,
        workers: Optional[int] = None,
        screen: bool = False,
    ) -> None:
        require(batch_size >= 1, "batch_size must be at least 1")
        self.detector = detector or PeriodicityDetector()
        self.batch_size = batch_size
        self.workers = workers
        self.screen = (
            screen
            and self.detector.threshold_cache is not None
            and self.detector.config.binary_signal
        )

    def detect_summaries(
        self, summaries: Sequence[ActivitySummary]
    ) -> List[DetectionResult]:
        """Detection results for ``summaries``, in input order."""
        window = (
            self._screen_window(summaries)
            if self.screen and summaries
            else None
        )
        results: List[DetectionResult] = []
        for start in range(0, len(summaries), self.batch_size):
            chunk = summaries[start : start + self.batch_size]
            with span("detect.batch"):
                if window is None:
                    results.extend(self._detect_chunk(chunk))
                else:
                    results.extend(self._screened_chunk(chunk, window))
        return results

    # -- phase 0: the day-grid screen --------------------------------------

    def _screen_window(
        self, summaries: Sequence[ActivitySummary]
    ) -> _ScreenWindow:
        """The whole call's day-grid window, so verdicts never depend on
        how the call is split into chunks.

        The ladder starts where the coarsest summary's own ladder would
        (cadences rescale uniformly, so normally they all match).
        """
        cfg = self.detector.config
        first = min(s.first_timestamp for s in summaries)
        last = max(s.first_timestamp + s.duration for s in summaries)
        start_day = int(first // DAY)
        end_day = int(last // DAY) + 1
        rungs = screen_scales(
            time_scale=max(
                cfg.time_scale, max(s.time_scale for s in summaries)
            ),
            window_days=end_day - start_day,
            scale_factor=cfg.scale_factor,
            max_scales=cfg.max_scales,
            min_slots=cfg.min_slots,
            max_signal_length=cfg.max_signal_length,
        )
        return _ScreenWindow(start_day, end_day, rungs)

    def _screened_chunk(
        self, summaries: Sequence[ActivitySummary], window: _ScreenWindow
    ) -> List[DetectionResult]:
        """Phase 0, then phases 1-5 over the pairs it does not drop."""
        with span("detect.batch.screen"):
            dropped = self._screen_chunk(summaries, window)
        survivors = [
            summary
            for summary, result in zip(summaries, dropped)
            if result is None
        ]
        full = iter(self._detect_chunk(survivors) if survivors else [])
        return [
            result if result is not None else next(full)
            for result in dropped
        ]

    def _screen_chunk(
        self, summaries: Sequence[ActivitySummary], window: _ScreenWindow
    ) -> List[Optional[DetectionResult]]:
        """Phase 0 — the drop verdict per pair (None: run phases 1-5).

        Per rung, every pair is binned into one equal-length stack on
        the shared day grid and all rows share one batched FFT.  A pair
        goes on only if its spectrum maximum clears the permutation
        threshold at some rung *and* candidate pruning plus ACF
        verification (:meth:`PeriodicityDetector.probe_prebinned`)
        confirm a candidate on that same row.  Pairs the detector
        rejects before any spectrum exists (too few events, ...) get
        that early rejection here.
        """
        registry = get_registry()
        out: List[Optional[DetectionResult]] = [None] * len(summaries)
        if not window.rungs:
            return out  # window too short for any rung: nothing to judge
        rows: List[Tuple[int, PeriodicityDetector, np.ndarray]] = []
        for index, summary in enumerate(summaries):
            detector = self.detector.for_time_scale(summary.time_scale)
            ts = as_sorted_timestamps(summary.timestamps())
            early, _prepared = detector._screen(ts)
            if early is None:
                rows.append((index, detector, ts))
            else:
                out[index] = early
        if not rows:
            return out

        cache = self.detector.threshold_cache
        scales = tuple(scale for scale, _ in window.rungs)
        signals: List[np.ndarray] = []
        spectra: List[np.ndarray] = []
        maxima: List[np.ndarray] = []
        thresholds: List[List[float]] = []
        for scale, bins_per_day in window.rungs:
            from_bin = window.start_day * bins_per_day
            to_bin = window.end_day * bins_per_day
            stack = np.stack(
                [bin_span(ts, scale, from_bin, to_bin) for _, _, ts in rows]
            )
            power = batch_power_spectra(stack, workers=self.workers)
            signals.append(stack)
            spectra.append(power)
            maxima.append(power.max(axis=1))
            thresholds.append([
                cache.threshold(to_bin - from_bin, int(ones))
                for ones in np.count_nonzero(stack, axis=1)
            ])

        for row, (index, detector, ts) in enumerate(rows):
            passing = []
            margin = float("-inf")
            for rung in range(len(scales)):
                max_power = float(maxima[rung][row])
                threshold = thresholds[rung][row]
                margin = max(margin, max_power - threshold)
                if max_power > threshold:
                    passing.append(rung)
            drop = dict(
                periodic=False,
                candidates=(),
                power_threshold=thresholds[0][row],
                n_events=int(ts.size),
                duration=float(ts[-1] - ts[0]),
                time_scale=detector.config.time_scale,
                scales=scales,
                spectral_margin=margin,
            )
            if not passing:
                registry.counter("detector.screen.power_dropped").inc()
                out[index] = DetectionResult(
                    rejection_reason=(
                        "screen: spectrum below the permutation threshold "
                        "at every day-grid scale"
                    ),
                    rejection_code="screen:power<threshold",
                    **drop,
                )
                continue
            plan = detector.screen_plan(ts)
            if any(
                detector.probe_prebinned(
                    plan,
                    scales[rung],
                    signals[rung][row],
                    spectra[rung][row],
                    thresholds[rung][row],
                )
                for rung in passing
            ):
                continue
            registry.counter("detector.screen.probe_dropped").inc()
            if plan.n_raw == 0:
                reason = "no spectral candidate above the threshold"
            elif plan.n_pruned == 0:
                reason = "every candidate pruned"
            else:
                reason = "no candidate survived ACF verification"
            out[index] = DetectionResult(
                rejection_reason=f"screen probe: {reason}",
                rejection_code="screen:probe",
                n_candidates_raw=plan.n_raw,
                n_candidates_pruned=plan.n_pruned,
                **drop,
            )
        return out

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
