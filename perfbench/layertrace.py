"""Per-layer spans for the traced benchmark run.

The program is not instrumented for this: :func:`installed` wraps each
layer's public functions where their callers look them up, for the
length of one run, and restores the originals afterwards.  A wrapped
call opens a span; a span's *self time* is its duration minus the time
of the spans it encloses, so the layers' self times plus the root
span's self time (``unattributed_s``) add up to the traced wall time.

Spans are kept in memory and written out by the caller when the
benchmark ends.  Steps of the record parser (one per log line) are
timed like spans but not stored one by one.  Only this process is
traced: on ``flood-sharded`` the worker processes were forked before the
wrappers went in, so layer work done there is not counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "unattributed_s"

STAGE_LAYERS = {
    "GlobalWhitelistStage": "stages.whitelist_s",
    "LocalWhitelistStage": "stages.whitelist_s",
    "MinEventsStage": "stages.whitelist_s",
    "PeriodicityDetectionStage": "stages.detect_s",
    "TokenFilterStage": "stages.post_s",
    "NoveltyStage": "stages.post_s",
    "RankingStage": "stages.post_s",
}


class Tracer:
    """Spans of one traced run, with self time and counts per layer."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans: [layer, start, time covered by children, span id].
        self._stack: List[list] = []
        self._ids = 0

    def enter(self, layer: str) -> list:
        self._ids += 1
        frame = [layer, perf_counter(), 0.0, self._ids]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, *, keep: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans.append(
                (frame[3], parent[3] if parent else 0, frame[0], frame[1], end)
            )


class _TimedIterator:
    """Times each step of an iterator as a span of ``layer``."""

    def __init__(self, tracer: Tracer, layer: str, inner: Iterator, count: Callable):
        self._tracer = tracer
        self._layer = layer
        self._inner = iter(inner)
        self._count = count

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        frame = self._tracer.enter(self._layer)
        try:
            item = next(self._inner)
        finally:
            self._tracer.exit(frame, keep=False)
        self._count(self._tracer, item)
        return item


# -- count hooks: (tracer, args, result, before) -> None ------------------------


def _add(name: str, amount: Callable = lambda *_: 1) -> Callable:
    def hook(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
        tracer.counts[name] += amount(args, result, before)

    return hook


def _detected(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    tracer.counts["detector.pairs"] += 1
    tracer.counts["detector.periodic"] += int(result.periodic)


def _threshold(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    tracer.counts["permutation.lookups"] += 1
    tracer.counts["permutation.computes"] += args[0].misses - before


def _uncached_threshold(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    tracer.counts["permutation.lookups"] += 1
    tracer.counts["permutation.computes"] += 1


def _spectrum(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    tracer.counts["periodogram.calls"] += 1
    tracer.counts["periodogram.slots"] += len(args[0])


def _pruned(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    tracer.counts["pruning.candidates_in"] += len(args[0])
    tracer.counts["pruning.candidates_kept"] += sum(d.kept for d in result)


def _stage(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    name = args[0].span_name
    tracer.counts[f"stages.{name}.pairs_in"] += len(args[2])
    tracer.counts[f"stages.{name}.pairs_out"] += len(result)


def _job_retries(tracer: Tracer, args: tuple, result: Any, before: Any) -> None:
    stats = args[0].last_stats
    tracer.counts["mapreduce.retries"] += stats.task_retries if stats else 0


_folded = _add("sources.pairs", lambda args, result, _: len(result))


def _job_layer(args: tuple) -> str:
    return f"mapreduce.job_s.{type(args[1]).__name__}"


#: (owner, attribute, layer or layer-from-args, kind, count hook, before).
#: ``kind`` is "call" (one span per call), "list" (a call whose iterable
#: result is drained inside the span), "iter" (each step of the returned
#: iterator is a span) or "count" (counted, not timed).
BINDINGS: List[Tuple[str, str, Any, str, Optional[Callable], Optional[Callable]]] = [
    # sources: the record plane and the columnar plane.
    ("repro.sources.proxy", "read_log", "sources.parse_s", "iter",
     _add("sources.events"), None),
    ("repro.sources.columnar", "read_log_chunks", "sources.parse_s", "iter",
     _add("sources.events", lambda args, chunk, _: len(chunk)), None),
    ("repro.sources.proxy", "records_to_summaries", "sources.fold_s", "call", _folded, None),
    ("repro.filtering.pipeline", "records_to_summaries", "sources.fold_s", "call", _folded, None),
    ("repro.jobs.runner", "records_to_summaries", "sources.fold_s", "call", _folded, None),
    ("repro.sources.columnar", "summaries_from_chunks", "sources.fold_s", "call",
     _folded, None),
    # stages: steps 1-2 and min-events, the detection step, steps 6-8.
    ("repro.stages.context:PopularityIndex", "from_summaries", "stages.whitelist_s",
     "call", None, None),
    *[
        (f"repro.stages:{cls}", "apply", layer, "list", _stage, None)
        for cls, layer in STAGE_LAYERS.items()
    ],
    ("repro.lm.domains:DomainScorer", "normalized_score", "lm.score_s", "call",
     _add("lm.calls"), None),
    # detector and the layers it calls, as the detector binds them.
    ("repro.core.detector:PeriodicityDetector", "detect", "detector.s", "call",
     _detected, None),
    ("repro.core.permutation:ThresholdCache", "threshold", "permutation.threshold_s",
     "call", _threshold, lambda args: args[0].misses),
    ("repro.core.detector", "permutation_threshold", "permutation.threshold_s", "call",
     _uncached_threshold, None),
    ("repro.core.detector", "select_gmm", "gmm.select_s", "call",
     _add("gmm.select_calls"), None),
    ("repro.core.gmm", "fit_gmm", None, "count", _add("gmm.fit_calls"), None),
    ("repro.core.detector", "power_spectrum", "periodogram.spectrum_s", "call",
     _spectrum, None),
    ("repro.core.detector", "bin_series", "timeseries.bin_s", "call", None, None),
    ("repro.core.detector", "prune_candidates", "pruning.s", "call", _pruned, None),
    ("repro.core.detector", "autocorrelation", "acf.s", "call", _add("acf.calls"), None),
    ("repro.core.detector", "validate_candidate", "acf.s", "call", None, None),
    # the rolling window: store operations and the fused merge.
    ("repro.jobs.summary_store:SummaryStore", "append_day", "summary_store.append_s",
     "call", None, None),
    ("repro.jobs.summary_store:SummaryStore", "evict_before", "summary_store.evict_s",
     "call", None, None),
    ("repro.jobs.summary_store:SummaryStore", "load_window", "summary_store.load_s",
     "call", None, None),
    ("repro.jobs.summary_store", "merge_rescaled", "timeseries.merge_s", "call", None, None),
    ("repro.jobs.summary_store", "merge", "timeseries.merge_s", "call", None, None),
    ("repro.jobs.summary_store", "rescale", "timeseries.merge_s", "call", None, None),
    # the MapReduce engine boundary and checkpoint commits.
    ("repro.mapreduce.engine:MapReduceEngine", "run", _job_layer, "call",
     _job_retries, None),
    ("repro.mapreduce.executors.local:ProcessPoolTaskExecutor", "submit", None, "count",
     _add("mapreduce.tasks"), None),
    ("repro.jobs.checkpoint:CheckpointStore", "write_shard", "checkpoint.commit_s",
     "call", _add("checkpoint.shards"), None),
]


def _wrap(tracer: Tracer, fn: Callable, layer: Any, kind: str,
          hook: Optional[Callable], before: Optional[Callable]) -> Callable:
    layer_of = layer if callable(layer) else (lambda _args, _l=layer: _l)

    if kind == "count":
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            hook(tracer, args, result, None)
            return result
        return counted

    if kind == "iter":
        @functools.wraps(fn)
        def iterated(*args: Any, **kwargs: Any) -> Any:
            return _TimedIterator(
                tracer, layer_of(args), fn(*args, **kwargs),
                lambda t, item: hook(t, args, item, None),
            )
        return iterated

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before else None
        frame = tracer.enter(layer_of(args))
        try:
            result = fn(*args, **kwargs)
            if kind == "list":
                result = list(result)
        finally:
            tracer.exit(frame)
        if hook is not None:
            hook(tracer, args, result, state)
        return result
    return timed


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding for the duration of the block.

    A binding whose target no longer exists is reported on stderr and
    skipped: its time then shows up in the enclosing layer or in
    ``unattributed_s`` instead of breaking the run.
    """
    restore: List[Tuple[Any, str, Any, bool]] = []
    try:
        for target, attribute, layer, kind, hook, before in BINDINGS:
            try:
                owner = _resolve(target)
            except (ImportError, AttributeError) as exc:
                print(f"trace: skipping {target}.{attribute}: {exc}", file=sys.stderr)
                continue
            own = attribute in vars(owner)
            raw = vars(owner).get(attribute, getattr(owner, attribute, None))
            if raw is None:
                print(f"trace: skipping {target}.{attribute}: not found", file=sys.stderr)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, raw.__func__, layer, kind, hook, before))
            else:
                wrapped = _wrap(tracer, raw, layer, kind, hook, before)
            restore.append((owner, attribute, raw, own))
            setattr(owner, attribute, wrapped)
        yield tracer
    finally:
        for owner, attribute, raw, own in reversed(restore):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer plus the derived counts and ratios."""
    out: Dict[str, float] = dict(tracer.self_s)
    out.update(tracer.counts)
    pairs = tracer.counts.get("detector.pairs", 0)
    out["detector.yield"] = tracer.counts.get("detector.periodic", 0) / pairs if pairs else 0.0
    lookups = tracer.counts.get("permutation.lookups", 0)
    computes = tracer.counts.get("permutation.computes", 0)
    out["permutation.hit_rate"] = 1.0 - computes / lookups if lookups else 0.0
    return out
