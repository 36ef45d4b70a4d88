"""Seeded workload inputs and the runs the benchmark times over them.

Two workloads stress opposite ends of the default funnel:

- ``month-window``: one rolling monthly tick.  A new day's log is
  folded and appended to an on-disk ``SummaryStore`` holding a 30-day
  window, the oldest day is evicted, the window is loaded, rescaled to
  600 s and merged, and the in-process funnel runs over it.  Sparse
  noise pairs plus ~3% multi-hour beacons make it GMM-bound; spectra,
  permutation thresholds and pruning do real work, ingest almost none.
- ``flood-sharded``: a high-volume day, many hosts over few popular
  sites, written as a TSV proxy log and run through the MapReduce
  runner with two worker processes and a checkpoint directory, as
  ``repro run --workers 2 --checkpoint-dir DIR --shard-size 3`` does,
  with every job allowed onto the worker pool.  The local whitelist drops
  all but the seven implant pairs, so parsing, folding and the engine's
  popularity job dominate and detection does little.

Inputs are built by :func:`generate`, in a separate process and outside
timing; the program under test only ever sees the generated log files
and summary store.  The same seed gives byte-identical inputs, and
:func:`input_digest` fingerprints them.

Run as ``python3 perfbench/workloads.py WORKLOAD SEED OUTDIR`` to build
one workload's inputs into ``OUTDIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("month-window", "flood-sharded")

DAY = 86_400.0

#: Many hosts over few popular sites: ~175k events in ~4k pairs, of
#: which the local whitelist keeps only the seven implant pairs.
FLOOD_ENTERPRISE = dict(
    n_hosts=400,
    n_sites=40,
    duration=6 * 3600.0,
)

#: 32 pairs keep one tick at 1.7-3 s on a 2-core host, so an invocation
#: times well over a dozen ticks; one of them (~3%) beacons.
MONTH_PAIRS = 32
MONTH_BEACONS = 1
MONTH_WINDOW_DAYS = 30
MONTH_TIME_SCALE = 600.0
MONTH_NOISE_EVENTS_PER_DAY = 8

#: ``flood-sharded`` cuts the seven detection pairs into three shards,
#: so a run makes three checkpoint commits.  By default the engine keeps
#: a job of fewer than 64 records in the calling process, which would
#: run every shard of this small survivor set in the parent; a real
#: deployment's shards are large enough for the pool, so the benchmark
#: lets every job, however small, use it.
SHARD_SIZE = 3
SHARD_WORKERS = 2
SHARD_MIN_PARALLEL_RECORDS = 1

LOG_FILE = "proxy.tsv"
TRUTH_FILE = "truth.json"
STORE_DIR = "store"
PRISTINE_STORE_DIR = "store.pristine"


# -- input generation ------------------------------------------------------------


def _flood_inputs(out: Path, seed: int) -> None:
    """A high-volume day from the enterprise simulator, as a TSV log.

    Only the widely adopted benign services are kept: their adopters,
    out of 400 hosts, always clear the whitelist cut, while a rare
    service's adopter count straddles it and would make the detection
    work depend on the seed.
    """
    from repro.sources.proxy import write_log
    from repro.synthetic.background import DEFAULT_SERVICES
    from repro.synthetic.enterprise import EnterpriseConfig, EnterpriseSimulator

    services = tuple(s for s in DEFAULT_SERVICES if s.adoption >= 0.03)
    records, truth = EnterpriseSimulator(
        EnterpriseConfig(seed=seed, services=services, **FLOOD_ENTERPRISE)
    ).generate()
    write_log(records, out / LOG_FILE)
    pairs = {(r.source_mac, r.destination) for r in records}
    beacons = []
    for source, destination in sorted(pairs):
        implant = truth.implant_by_destination.get(destination)
        if implant is None:
            continue
        spec = implant.build_spec(FLOOD_ENTERPRISE["duration"], 0.0)
        beacons.append([source, destination, float(spec.period)])
    _write_truth(
        out,
        events=len(records),
        pairs=len(pairs),
        beacons=beacons,
        malicious=sorted(truth.malicious_destinations),
    )


def _month_inputs(out: Path, seed: int) -> None:
    """A 30-day store of sparse pairs plus the next day's log.

    Noise pairs make exactly ``MONTH_NOISE_EVENTS_PER_DAY`` uniform
    requests a day, so every pair is present on every day; beacons have
    periods of 7200 s plus a seeded multiple of 120 s and 5 s jitter.
    Each destination has at most two sources, which keeps it under the
    local whitelist's three-source floor.
    """
    import numpy as np

    from repro.jobs import SummaryStore
    from repro.sources.proxy import ProxyLogRecord, records_to_summaries, write_log
    from repro.synthetic.dga import generate_pool

    rng = np.random.default_rng(seed)
    n_days = MONTH_WINDOW_DAYS + 1
    span = n_days * DAY
    dga = generate_pool(MONTH_BEACONS, family="random", seed=seed + 1)
    by_day: List[List[ProxyLogRecord]] = [[] for _ in range(n_days)]
    beacons = []
    for pair in range(MONTH_PAIRS):
        source = f"02:00:00:00:{pair // 256:02x}:{pair % 256:02x}"
        source_ip = f"10.8.{pair // 250}.{pair % 250 + 1}"
        if pair < MONTH_BEACONS:
            destination, url = dga[pair], "/gate.php"
            period = 7200.0 + 120.0 * float(rng.integers(0, 17))
            count = int(span / period) + 2
            ts = rng.uniform(0.0, period) + np.cumsum(
                rng.normal(period, 5.0, size=count)
            )
            ts = ts[(ts >= 0.0) & (ts < span)]
            beacons.append([source, destination, period])
        else:
            destination = f"www.site{pair // 2:03d}.example.com"
            url = f"/articles/{pair}/index.html"
            offsets = rng.uniform(0.0, DAY, size=(n_days, MONTH_NOISE_EVENTS_PER_DAY))
            ts = np.sort((offsets + np.arange(n_days)[:, None] * DAY).ravel())
        for t in ts:
            by_day[int(t // DAY)].append(
                ProxyLogRecord(
                    timestamp=float(t),
                    source_mac=source,
                    source_ip=source_ip,
                    destination=destination,
                    url=url,
                    status=200,
                    bytes_sent=int(rng.integers(200, 20_000)),
                )
            )
    store = SummaryStore(out / PRISTINE_STORE_DIR)
    for day in range(MONTH_WINDOW_DAYS):
        by_day[day].sort(key=lambda r: (r.timestamp, r.source_mac))
        store.append_day(day, records_to_summaries(by_day[day]))
    new_day = sorted(by_day[-1], key=lambda r: (r.timestamp, r.source_mac))
    write_log(new_day, out / LOG_FILE)
    _write_truth(
        out,
        events=sum(len(day) for day in by_day[1:]),
        pairs=MONTH_PAIRS,
        beacons=beacons,
        malicious=sorted(dga),
    )


def _write_truth(out: Path, **truth: Any) -> None:
    (out / TRUTH_FILE).write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> None:
    """Build one workload's inputs into ``out`` (deterministic in ``seed``)."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "flood-sharded":
        _flood_inputs(out, seed)
    elif workload == "month-window":
        _month_inputs(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def input_digest(root: Path) -> str:
    """SHA-256 over every generated input file, path and content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- timed runs ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one timed run produced."""

    report: Any
    events: int


@dataclass
class Workload:
    """Set-up and timed runs of one workload over its generated inputs.

    :meth:`setup` builds what a user builds before a first run: the
    pipeline or runner, the LM scorer and, on ``flood-sharded``, the
    worker pool.  :meth:`run` goes from opening the input to the ranked
    report.  Between runs, :meth:`prepare` (outside timing) restores the
    on-disk inputs and builds a fresh pipeline or runner, so every run
    starts cold apart from the scorer and the pool, which a long-lived
    process keeps.  :meth:`close` releases the pool.
    """

    name: str
    inputs: Path
    scratch: Path
    truth: Dict[str, Any] = field(init=False)
    _subject: Any = field(default=None, init=False)
    _engine: Any = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.truth = json.loads((self.inputs / TRUTH_FILE).read_text(encoding="utf-8"))

    def setup(self) -> None:
        from repro.lm.domains import default_scorer

        self.close()
        # The scorer is cached per process; every set-up pays its
        # training, as every ``repro`` invocation does.
        default_scorer.cache_clear()
        if self.name == "flood-sharded":
            from repro.mapreduce import MapReduceEngine

            # The settings ``repro run --workers 2`` passes, except that
            # every job goes to the pool (see SHARD_MIN_PARALLEL_RECORDS).
            self._engine = MapReduceEngine(
                n_workers=SHARD_WORKERS,
                min_parallel_records=SHARD_MIN_PARALLEL_RECORDS,
                max_retries=2,
                task_timeout=None,
                retry_backoff=0.5,
                quarantine=True,
            )
            # Start the worker pool now, so runs do not pay for it.
            executor = self._engine.executor
            executor.result(executor.submit(os.getpid))
        self._build()

    def _build(self) -> None:
        from repro import BaywatchPipeline, PipelineConfig

        if self.name == "flood-sharded":
            from repro.jobs import BaywatchRunner

            self._subject = BaywatchRunner(PipelineConfig(), engine=self._engine)
        else:
            self._subject = BaywatchPipeline(PipelineConfig())
        self._subject.scorer

    def prepare(self) -> None:
        """Restore the on-disk inputs and build a fresh pipeline or runner."""
        shutil.rmtree(self.scratch / "checkpoint", ignore_errors=True)
        if self.name == "month-window":
            store = self.scratch / STORE_DIR
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self.inputs / PRISTINE_STORE_DIR, store)
        self._build()

    def run(self) -> Outcome:
        from repro.sources import proxy

        log = self.inputs / LOG_FILE
        if self.name == "month-window":
            return self._month_tick(log)
        report = self._subject.run_sharded(
            proxy.read_log(log),
            shard_size=SHARD_SIZE,
            checkpoint_dir=str(self.scratch / "checkpoint"),
        )
        return Outcome(report, self.truth["events"])

    def _month_tick(self, log: Path) -> Outcome:
        from repro.jobs import SummaryStore
        from repro.sources import proxy

        store = SummaryStore(self.scratch / STORE_DIR)
        new_day = MONTH_WINDOW_DAYS
        store.append_day(new_day, proxy.records_to_summaries(proxy.read_log(log)))
        store.evict_before(new_day - MONTH_WINDOW_DAYS + 1)
        window = store.load_window(
            end_day=new_day,
            window_days=MONTH_WINDOW_DAYS,
            time_scale=MONTH_TIME_SCALE,
        )
        report = self._subject.run_summaries(window)
        return Outcome(report, sum(s.event_count for s in window))

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        self._subject = None

    def store_bytes(self) -> int:
        """Bytes the month window's summary store holds on disk."""
        store = self.scratch / STORE_DIR
        return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())


# -- output checks ---------------------------------------------------------------


def report_digest(report: Any) -> str:
    """A digest of what a report says: funnel, detections, ranking."""
    detected = sorted(
        (c.source, c.destination, [round(p, 6) for p in c.periods])
        for c in report.detected_cases
    )
    ranked = [
        (c.source, c.destination, round(c.rank_score, 9)) for c in report.ranked_cases
    ]
    payload = json.dumps(
        [list(report.funnel.steps), detected, ranked, len(report.quarantined)]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Quality:
    """A report scored against the seeded ground truth.

    ``failures`` make the run a failed operation (the output is wrong);
    ``problems`` mark detection quality below the benchmark's floor.
    """

    beacon_recall: float
    report_precision: float
    period_err: float
    failures: List[str]
    problems: List[str]


def score(report: Any, truth: Dict[str, Any]) -> Quality:
    """Recall, precision and period error of ``report`` against ``truth``.

    Recall counts seeded (host, destination) beacon pairs that steps 3-5
    flag periodic; precision counts ranked cases whose destination is
    seeded malicious; the period error is the median relative error of
    each found beacon's dominant period.
    """
    seeded: Dict[Tuple[str, str], float] = {
        (source, destination): period for source, destination, period in truth["beacons"]
    }
    malicious = set(truth["malicious"])
    found = {
        c.pair: c.dominant_period for c in report.detected_cases if c.pair in seeded
    }
    errors = [abs(found[pair] - seeded[pair]) / seeded[pair] for pair in found]
    ranked = report.ranked_cases
    precision = (
        sum(c.destination in malicious for c in ranked) / len(ranked) if ranked else 0.0
    )
    quality = Quality(
        beacon_recall=len(found) / len(seeded) if seeded else 0.0,
        report_precision=precision,
        period_err=statistics.median(errors) if errors else 1.0,
        failures=[],
        problems=[],
    )
    pairs_in = report.funnel.steps[0][1] if report.funnel.steps else 0
    if pairs_in != truth["pairs"]:
        quality.failures.append(
            f"funnel saw {pairs_in} pairs, the input has {truth['pairs']}"
        )
    if report.quarantined:
        quality.failures.append(f"{len(report.quarantined)} unit(s) quarantined")
    if not found:
        quality.problems.append("no seeded beacon was flagged periodic")
    if precision == 0.0:
        quality.problems.append("no seeded destination was ranked")
    if quality.period_err > 0.05:
        quality.problems.append(f"median period error {quality.period_err:.3f} > 0.05")
    return quality


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 3:
        print("usage: workloads.py WORKLOAD SEED OUTDIR", file=sys.stderr)
        return 2
    workload, seed, out = args[0], int(args[1]), Path(args[2])
    started = time.perf_counter()
    generate(workload, seed, out)
    print(f"generated {workload} seed {seed} in {time.perf_counter() - started:.2f}s")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
