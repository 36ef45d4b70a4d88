"""The periodicity-detection stage (funnel steps 3-5) and its executors.

Steps 3-5 — DFT candidate extraction, permutation thresholding and
pruning, ACF verification — run inside
:class:`~repro.core.PeriodicityDetector`.  The stage itself is
execution-agnostic: a pluggable *executor* maps surviving summaries to
``(summary, DetectionResult)`` pairs, which lets the same stage object
run in-process (:class:`InProcessDetection`), over a MapReduce engine,
or in checkpointed shards — the latter two executors live with the
runner in :mod:`repro.jobs.runner`, keeping this package free of job
dependencies.

:func:`detect_pairs` is the single detection loop both the in-process
executor and the detection MapReduce job's reduce task share, and
:func:`build_case` is the single enrichment point turning a detection
into a :class:`~repro.filtering.case.BeaconingCase` (popularity,
similar sources, LM score).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.detector import DetectionResult, PeriodicityDetector
from repro.core.timeseries import ActivitySummary
from repro.filtering.case import BeaconingCase
from repro.obs.provenance import (
    ProvenancePolicy,
    ProvenanceRecorder,
    VerdictRecord,
    clean_values,
)
from repro.stages.base import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stages.context import StageContext

__all__ = [
    "BatchedDetection",
    "DetectionExecutor",
    "InProcessDetection",
    "PeriodicityDetectionStage",
    "build_case",
    "detect_pairs",
    "detection_verdicts",
    "record_detection_verdicts",
]

#: Early-screen rejection codes (see PeriodicityDetector._screen); the
#: whole pair is decided before any spectrum exists.
_EARLY_CODES = frozenset(
    ["spectral:min_events", "spectral:single_slot", "spectral:window_too_short"]
)


def detection_verdicts(
    source: str,
    destination: str,
    result: DetectionResult,
    policy: ProvenancePolicy,
) -> List[VerdictRecord]:
    """Verdict records for funnel steps 3-5, derived from one result.

    A pure function of the (extended) :class:`DetectionResult`, so the
    serial detector, the batched fast path, and a sharded worker that
    round-tripped the result through a checkpoint all produce the exact
    same chain.
    """
    records: List[VerdictRecord] = []

    def rec(
        stage: str,
        kept: bool,
        reason: str = "",
        near_miss: bool = False,
        **values: Any,
    ) -> None:
        records.append(
            VerdictRecord(
                source=source,
                destination=destination,
                stage=stage,
                kept=kept,
                reason=reason,
                near_miss=near_miss,
                values=clean_values(values),
            )
        )

    if result.rejection_code in _EARLY_CODES:
        rec(
            "spectral",
            False,
            result.rejection_code,
            events=result.n_events,
            duration=result.duration,
        )
        return records

    threshold = result.power_threshold
    margin = result.spectral_margin
    if result.rejection_code.startswith("screen:"):
        rec(
            "spectral",
            False,
            result.rejection_code,
            near_miss=policy.margin_near_miss(margin, threshold),
            threshold=threshold,
            margin=margin,
            candidates=result.n_candidates_raw,
        )
        return records
    if not result.periodic and result.n_candidates_raw == 0:
        rec(
            "spectral",
            False,
            "spectral:power<threshold",
            near_miss=policy.margin_near_miss(margin, threshold),
            threshold=threshold,
            margin=margin,
        )
        return records
    rec(
        "spectral",
        True,
        threshold=threshold,
        margin=margin,
        candidates=result.n_candidates_raw,
    )
    if not result.periodic and result.n_candidates_pruned == 0:
        rec("pruning", False, "pruning:rejected",
            candidates=result.n_candidates_raw)
        return records
    rec(
        "pruning",
        True,
        candidates_in=result.n_candidates_raw,
        candidates_out=result.n_candidates_pruned,
    )
    if not result.periodic:
        rec("acf", False, "acf:below_min_score",
            candidates=result.n_candidates_pruned)
        return records
    dominant = result.dominant
    rec(
        "acf",
        True,
        acf_score=dominant.acf_score,
        period=dominant.period,
        p_value=dominant.p_value,
        periods=[candidate.period for candidate in result.candidates],
    )
    return records


def record_detection_verdicts(
    recorder: ProvenanceRecorder,
    pairs: Iterable[Tuple[ActivitySummary, DetectionResult]],
) -> None:
    """Fold detection verdicts for fully known (summary, result) pairs."""
    for summary, result in pairs:
        recorder.extend(
            detection_verdicts(
                summary.source, summary.destination, result, recorder.policy
            )
        )

#: An executor maps (context, summaries) to the detected
#: ``(summary, result)`` pairs plus any quarantined units.
DetectionExecutor = Callable[
    ["StageContext", List[ActivitySummary]],
    Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]],
]


def detect_pairs(
    detector: PeriodicityDetector, summaries: Iterable[ActivitySummary]
) -> Iterator[Tuple[ActivitySummary, DetectionResult]]:
    """Run the detector over summaries, yielding the periodic ones.

    The one detection loop shared by the in-process executor and the
    MapReduce detection job's reduce task.
    """
    for summary in summaries:
        result = detector.detect_summary(summary)
        if result.periodic:
            yield summary, result


def build_case(
    context: "StageContext",
    summary: ActivitySummary,
    detection: DetectionResult,
) -> BeaconingCase:
    """Enrich one detection into a :class:`BeaconingCase`.

    Attaches the ranking indicators computed from shared run state:
    destination popularity and similar-source count from the context's
    :class:`~repro.stages.context.PopularityIndex` and the normalized
    language-model score from the (lazily built) scorer.
    """
    destination = summary.destination
    return BeaconingCase(
        summary=summary,
        detection=detection,
        popularity=context.popularity.ratio(destination),
        similar_sources=context.popularity.similar_sources(destination),
        lm_score=context.scorer.normalized_score(destination),
    )


class InProcessDetection:
    """Default executor: run the detector serially in this process.

    Pass a prebuilt detector to share a warm
    :class:`~repro.core.permutation.ThresholdCache` across runs;
    otherwise one is built (once) from the context's config and cache.
    """

    def __init__(self, detector: Optional[PeriodicityDetector] = None) -> None:
        self._detector = detector

    def __call__(
        self, context: "StageContext", summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        """Detect every summary; nothing is ever quarantined in-process."""
        if self._detector is None:
            self._detector = PeriodicityDetector(
                context.config.detector,
                threshold_cache=context.threshold_cache,
            )
        recorder = context.provenance
        if recorder is None:
            return list(detect_pairs(self._detector, summaries)), []
        detected: List[Tuple[ActivitySummary, DetectionResult]] = []
        for summary in summaries:
            result = self._detector.detect_summary(summary)
            record_detection_verdicts(recorder, [(summary, result)])
            if result.periodic:
                detected.append((summary, result))
        return detected, []


class BatchedDetection:
    """Executor running the shape-grouped batched fast path in-process.

    Feeds the surviving pairs through
    :class:`~repro.core.batch.BatchedDetector` in chunks of
    ``batch_size``, amortizing the per-pair FFT/ACF dispatch across the
    batch.  Batch size 1 reproduces :class:`InProcessDetection` bit for
    bit (enforced by the parity suite), so the knob trades nothing but
    peak memory for throughput.

    ``screen=True`` (the ``screened_detection`` pipeline setting) runs
    the batched detector's stateless day-grid screen first, so pairs it
    drops never pay for the interval GMM; the screen keeps no state
    between calls.
    """

    def __init__(
        self,
        detector: Optional[PeriodicityDetector] = None,
        *,
        batch_size: int = 256,
        workers: Optional[int] = None,
        screen: bool = False,
    ) -> None:
        self._detector = detector
        self.batch_size = batch_size
        self.workers = workers
        self.screen = screen

    def __call__(
        self, context: "StageContext", summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        """Detect every summary in batches; nothing is quarantined."""
        from repro.core.batch import BatchedDetector

        if self._detector is None:
            self._detector = PeriodicityDetector(
                context.config.detector,
                threshold_cache=context.threshold_cache,
            )
        batched = BatchedDetector(
            self._detector,
            batch_size=self.batch_size,
            workers=self.workers,
            screen=self.screen,
        )
        results = batched.detect_summaries(list(summaries))
        if context.provenance is not None:
            record_detection_verdicts(
                context.provenance, zip(summaries, results)
            )
        return (
            [
                (summary, result)
                for summary, result in zip(summaries, results)
                if result.periodic
            ],
            [],
        )


class PeriodicityDetectionStage(Stage):
    """Funnel steps 3-5: periodicity detection plus case enrichment.

    The executor decides *where* detection runs; the stage owns the
    invariant parts — quarantine collection, case enrichment via
    :func:`build_case`, deterministic pair ordering, and publishing the
    detected list on the context for the run report.
    """

    name = "3-5 periodicity detection"
    span_name = "step3_5_periodicity_detection"

    def __init__(self, executor: Optional[DetectionExecutor] = None) -> None:
        self.executor = executor if executor is not None else InProcessDetection()

    def apply(
        self, context: "StageContext", items: Sequence[ActivitySummary]
    ) -> List[BeaconingCase]:
        """Detect the surviving pairs and enrich the periodic ones."""
        results, quarantined = self.executor(context, list(items))
        context.quarantined.extend(quarantined)
        cases = [
            build_case(context, summary, detection)
            for summary, detection in results
        ]
        cases.sort(key=lambda case: case.pair)
        context.detected = cases
        return cases
