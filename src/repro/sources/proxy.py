"""Proxy-log records and streaming summary construction.

The paper's raw input is BlueCoat ProxySG access logs stored in HDFS.
This module owns the proxy-log data path end to end:

- :class:`ProxyLogRecord` — one log line, with TSV (de)serialization
  (:func:`read_log` / :func:`write_log`, gzip-aware),
- :class:`ProxyLog` — what :func:`read_log` returns: a log file that
  iterates as records and also streams as columnar chunks
  (:meth:`ProxyLog.chunks`).  Both views come from one batch tokenizer,
  so they accept and reject exactly the same lines,
- :class:`PairConfig` — which endpoint features key a communication
  pair (Table I),
- :class:`SummaryAccumulator` — *streaming* per-pair accumulation: an
  ``Iterable[ProxyLogRecord]`` folds incrementally into per-pair state
  (slot-count histograms plus a capped URL sample), so building
  :class:`~repro.core.timeseries.ActivitySummary` records never
  materializes the full record list,
- :func:`records_to_summaries` — the grouping helper shared by
  :class:`~repro.filtering.BaywatchPipeline`, the sharded
  :class:`~repro.jobs.BaywatchRunner` and the CLI.  A :class:`ProxyLog`
  folds through the vectorized columnar plane
  (:mod:`repro.sources.columnar`) without building a record per line;
  any other iterable streams through :class:`SummaryAccumulator`,
- :func:`summary_from_observations` — the per-pair fold used by the
  data-extraction MapReduce job (Section VII-A), so the engine path and
  the streaming path produce bit-identical summaries.
"""

from __future__ import annotations

import gzip
import heapq
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:
    from repro.sources.columnar import RecordChunk

__all__ = [
    "LOG_CHUNK_ROWS",
    "PairConfig",
    "ProxyLog",
    "ProxyLogRecord",
    "SummaryAccumulator",
    "read_log",
    "records_to_summaries",
    "summary_from_observations",
    "write_log",
]

_FIELDS = ("timestamp", "source_mac", "source_ip", "destination", "url", "status", "bytes_sent")
_N_FIELDS = len(_FIELDS)

#: Lines per batch when a log file is read.  Parsing and folding a
#: 180k-line log (400 hosts x 40 sites) on a 2-core Xeon VM grew the
#: process RSS by 48 MiB with 8,192-line batches against 99 MiB with
#: 65,536-line ones, at the same speed within run-to-run noise: a
#: batch's line list, field list and columns are all alive at once.
LOG_CHUNK_ROWS = 8_192

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Timestamps (and time slots) must lie strictly inside +-2**63, so their
#: slot index fits in int64; NaN fails every comparison with it.
_SLOT_LIMIT = 2.0**63

_SOURCE_FEATURES = ("mac", "ip")
_DESTINATION_FEATURES = ("domain", "registered_domain")


@dataclass(frozen=True)
class PairConfig:
    """Which endpoint features define a communication pair (Table I).

    The paper's evaluation keys pairs on (source MAC, destination
    domain): MACs survive DHCP churn where IPs do not, and domains
    survive C&C address rotation where IPs do not.  Other deployments
    key differently (no DHCP correlation available, entity-level
    aggregation wanted), so the choice is configuration:

    - ``source_feature``: ``"mac"`` (default) or ``"ip"``,
    - ``destination_feature``: ``"domain"`` (default) or
      ``"registered_domain"`` (entity aggregation for subdomain flux).
    """

    source_feature: str = "mac"
    destination_feature: str = "domain"

    def __post_init__(self) -> None:
        require(self.source_feature in _SOURCE_FEATURES,
                f"source_feature must be one of {_SOURCE_FEATURES}")
        require(self.destination_feature in _DESTINATION_FEATURES,
                f"destination_feature must be one of {_DESTINATION_FEATURES}")

    def source_of(self, record: "ProxyLogRecord") -> str:
        """The pair's source endpoint for this configuration."""
        return (
            record.source_mac
            if self.source_feature == "mac"
            else record.source_ip
        )

    def destination_of(self, record: "ProxyLogRecord") -> str:
        """The pair's destination endpoint for this configuration."""
        if self.destination_feature == "registered_domain":
            from repro.lm.domains import registered_domain

            return registered_domain(record.destination)
        return record.destination


@dataclass(frozen=True)
class ProxyLogRecord:
    """One web-proxy log line.

    ``source_mac`` is the DHCP-correlated device identity the paper
    prefers over IPs; ``destination`` is the requested domain; ``url``
    is the path+query component consumed by the token filter.
    """

    timestamp: float
    source_mac: str
    source_ip: str
    destination: str
    url: str = "/"
    status: int = 200
    bytes_sent: int = 0

    def to_line(self) -> str:
        """Serialize to a tab-separated log line."""
        return "\t".join(
            (
                f"{self.timestamp:.3f}",
                self.source_mac,
                self.source_ip,
                self.destination,
                self.url,
                str(self.status),
                str(self.bytes_sent),
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "ProxyLogRecord":
        """Parse a tab-separated log line (validated like :func:`read_log`)."""
        return cls(*_parse_line(line, None))


def write_log(
    records: Iterable[ProxyLogRecord],
    path: Union[str, Path],
    *,
    compress: bool = False,
) -> int:
    """Write records as TSV lines (optionally gzipped); returns the count."""
    path = Path(path)
    opener = gzip.open if compress else open
    count = 0
    with opener(path, "wt", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_line())
            handle.write("\n")
            count += 1
    return count


def _parse_line(
    line: str, lineno: Optional[int]
) -> Tuple[float, str, str, str, str, int, int]:
    """Parse and validate one log line; the authority on what is valid.

    A line must have seven tab-separated fields, a finite float
    timestamp inside +-2**63 and integer ``status`` / ``bytes_sent``
    that fit in 64 bits.  Anything else raises ``ValueError`` naming the
    1-based line number (when known) and the line itself.
    """
    where = "log line" if lineno is None else f"log line {lineno}"
    parts = line.rstrip("\n").split("\t")
    if len(parts) != _N_FIELDS:
        raise ValueError(
            f"malformed {where}: expected {_N_FIELDS} tab-separated "
            f"fields, got {len(parts)}: {line!r}"
        )
    try:
        timestamp = float(parts[0])
        status = int(parts[5])
        bytes_sent = int(parts[6])
    except ValueError:
        raise ValueError(
            f"malformed {where}: timestamp, status and bytes_sent must be "
            f"numbers: {line!r}"
        ) from None
    if not abs(timestamp) < _SLOT_LIMIT:
        raise ValueError(
            f"malformed {where}: non-finite or out-of-range timestamp "
            f"{parts[0]!r}: {line!r}"
        )
    if not (_INT64_MIN <= status <= _INT64_MAX
            and _INT64_MIN <= bytes_sent <= _INT64_MAX):
        raise ValueError(
            f"malformed {where}: status or bytes_sent out of 64-bit "
            f"range: {line!r}"
        )
    return timestamp, parts[1], parts[2], parts[3], parts[4], status, bytes_sent


class _LogBatch(NamedTuple):
    """One batch of parsed log lines, column by column.

    The numeric columns are numpy arrays and the string columns are
    lists of ``str``; row ``i`` of every column is the same log line.
    """

    timestamps: np.ndarray
    source_macs: List[str]
    source_ips: List[str]
    destinations: List[str]
    urls: List[str]
    statuses: np.ndarray
    bytes_sent: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


def _batch_fields(lines: List[str]) -> List[str]:
    """Flatten a batch of TSV lines into one field list, C-speed.

    One ``join``/``replace``/``split`` turns the whole batch into a flat
    field list without touching individual lines from Python; the caller
    validates the result and falls back to :func:`_parse_lines` when it
    does not hold up.
    """
    text = "".join(lines)
    if text.endswith("\n"):
        text = text[:-1]
    return text.replace("\n", "\t").split("\t")


def _columns_of(fields: List[str]) -> Optional[_LogBatch]:
    """Columns of a flat field list, or None if any value is invalid."""
    try:
        timestamps = np.array(fields[0::_N_FIELDS], dtype=np.float64)
        statuses = np.array(fields[5::_N_FIELDS], dtype=np.int64)
        bytes_sent = np.array(fields[6::_N_FIELDS], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not (np.abs(timestamps) < _SLOT_LIMIT).all():
        return None
    return _LogBatch(
        timestamps,
        fields[1::_N_FIELDS],
        fields[2::_N_FIELDS],
        fields[3::_N_FIELDS],
        fields[4::_N_FIELDS],
        statuses,
        bytes_sent,
    )


def _parse_lines(lines: List[str], first_lineno: int) -> _LogBatch:
    """Per-line fallback: skip blank lines, reject invalid ones."""
    rows = [
        _parse_line(line, first_lineno + offset)
        for offset, line in enumerate(lines)
        if line.strip()
    ]
    columns = list(zip(*rows)) if rows else [()] * _N_FIELDS
    return _LogBatch(
        np.array(columns[0], dtype=np.float64),
        list(columns[1]),
        list(columns[2]),
        list(columns[3]),
        list(columns[4]),
        np.array(columns[5], dtype=np.int64),
        np.array(columns[6], dtype=np.int64),
    )


def _parse_batch(lines: List[str], first_lineno: int = 1) -> _LogBatch:
    """Parse a batch of log lines into columns.

    The whole batch is split in one pass (:func:`_batch_fields`) and
    its numeric columns converted by numpy, once every line is known to
    hold exactly ``_N_FIELDS - 1`` tabs (counted at C speed).  A batch
    holding a blank line, a line with the wrong field count or an
    invalid value fails that fast path and is parsed again line by
    line, which skips blank lines and raises on the first invalid line
    with its number ``first_lineno + offset``.
    """
    tabs = list(map(str.count, lines, repeat("\t")))
    if tabs.count(_N_FIELDS - 1) == len(lines):
        batch = _columns_of(_batch_fields(lines))
        if batch is not None:
            return batch
    return _parse_lines(lines, first_lineno)


def _iter_log_batches(
    path: Union[str, Path], batch_rows: int = LOG_CHUNK_ROWS
) -> Iterator[_LogBatch]:
    """Stream a (possibly gzipped) TSV log as parsed :class:`_LogBatch` es.

    Batches with no rows (only blank lines) are skipped.
    """
    require_positive(batch_rows, "batch_rows")
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    lineno = 1
    with opener(path, "rt", encoding="utf-8") as handle:
        while True:
            lines = list(islice(handle, batch_rows))
            if not lines:
                return
            batch = _parse_batch(lines, lineno)
            lineno += len(lines)
            if len(batch):
                yield batch


class ProxyLog:
    """A TSV proxy log on disk: an ``Iterable[ProxyLogRecord]``.

    Iterating yields one :class:`ProxyLogRecord` per non-blank line, in
    file order, and may be repeated (each pass reopens the file).
    :meth:`chunks` streams the same lines as columnar
    :class:`~repro.sources.columnar.RecordChunk` batches instead, which
    is how :func:`records_to_summaries` folds a ``ProxyLog``.
    """

    __slots__ = ("path",)

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[ProxyLogRecord]:
        for batch in _iter_log_batches(self.path):
            yield from map(
                ProxyLogRecord,
                batch.timestamps.tolist(),
                batch.source_macs,
                batch.source_ips,
                batch.destinations,
                batch.urls,
                batch.statuses.tolist(),
                batch.bytes_sent.tolist(),
            )

    def chunks(self) -> Iterator["RecordChunk"]:
        """The log as columnar chunks (:func:`~repro.sources.columnar.read_log_chunks`)."""
        from repro.sources.columnar import read_log_chunks

        return read_log_chunks(self.path)


def read_log(path: Union[str, Path]) -> ProxyLog:
    """Open a (possibly gzipped) TSV log file for lazy, repeatable reads.

    Lines are validated as they are read (see :meth:`ProxyLogRecord.from_line`):
    a malformed line, a non-numeric field or a non-finite or
    out-of-range timestamp raises ``ValueError`` with its 1-based line
    number.
    """
    return ProxyLog(path)


def _slot_of(timestamp: float, time_scale: float) -> int:
    """The time slot of ``timestamp``; rejects slots outside int64."""
    scaled = timestamp / time_scale
    if not abs(scaled) < _SLOT_LIMIT:
        raise ValueError(
            f"non-finite or out-of-range timestamp: {timestamp!r}"
        )
    return int(np.floor(scaled))


class _PairState:
    """Streaming state of one communication pair.

    Instead of buffering raw records, the accumulator keeps a
    slot-index -> event-count histogram (the information the quantized
    interval list is derived from) and a bounded URL sample.  Memory is
    O(distinct time slots) per pair, so a higher request *rate* over a
    fixed window costs nothing extra — the property the ingestion bench
    demonstrates.
    """

    __slots__ = ("bins", "urls", "max_urls")

    def __init__(self, max_urls: int) -> None:
        self.bins: Dict[int, int] = {}
        self.max_urls = max_urls
        # Max-heap (via negated keys) of the ``max_urls`` earliest
        # (timestamp, arrival) observations, mirroring the historical
        # "stable-sort by timestamp, take the first k" behaviour.
        self.urls: List[Tuple[float, int, str]] = []

    def observe(self, slot: int, timestamp: float, sequence: int,
                url: Optional[str]) -> None:
        self.bins[slot] = self.bins.get(slot, 0) + 1
        if url is None or self.max_urls <= 0:
            return
        entry = (-timestamp, -sequence, url)
        if len(self.urls) < self.max_urls:
            heapq.heappush(self.urls, entry)
        elif entry > self.urls[0]:
            heapq.heapreplace(self.urls, entry)

    def finalize(
        self, source: str, destination: str, time_scale: float
    ) -> ActivitySummary:
        slots = np.fromiter(self.bins.keys(), dtype=np.int64,
                            count=len(self.bins))
        counts = np.fromiter(self.bins.values(), dtype=np.int64,
                             count=len(self.bins))
        order = np.argsort(slots)
        quantized = np.repeat(
            slots[order].astype(float) * time_scale, counts[order]
        )
        ordered = sorted(
            ((-ts, -seq, url) for ts, seq, url in self.urls)
        )
        return ActivitySummary(
            source=source,
            destination=destination,
            time_scale=time_scale,
            first_timestamp=float(quantized[0]),
            intervals=np.diff(quantized),
            urls=tuple(url for _ts, _seq, url in ordered),
        )


class SummaryAccumulator:
    """Fold a record stream into per-pair activity summaries.

    Feed observations one at a time (:meth:`observe_record` /
    :meth:`observe`) and collect the resulting
    :class:`~repro.core.timeseries.ActivitySummary` records with
    :meth:`summaries`.  The output is bit-identical to the historical
    sort-then-group implementation — timestamps are quantized to
    ``time_scale`` exactly as
    :meth:`~repro.core.timeseries.ActivitySummary.from_timestamps`
    does, and same-slot URL ties resolve in arrival order — but peak
    memory is bounded by distinct (pair, time slot) combinations rather
    than by the record count.
    """

    def __init__(
        self,
        *,
        time_scale: float = 1.0,
        keep_urls: bool = True,
        max_urls_per_pair: int = 64,
        aggregate_entities: bool = False,
        pair_config: Optional[PairConfig] = None,
    ) -> None:
        require_positive(time_scale, "time_scale")
        require(max_urls_per_pair >= 0, "max_urls_per_pair must be non-negative")
        if pair_config is None:
            pair_config = PairConfig(
                destination_feature=(
                    "registered_domain" if aggregate_entities else "domain"
                )
            )
        self.time_scale = time_scale
        self.pair_config = pair_config
        self._max_urls = max_urls_per_pair if keep_urls else 0
        self._pairs: Dict[Tuple[str, str], _PairState] = {}
        self._sequence = 0

    def __len__(self) -> int:
        """Number of distinct pairs accumulated so far."""
        return len(self._pairs)

    def observe_record(self, record: ProxyLogRecord) -> None:
        """Fold one proxy-log record into the per-pair state."""
        self.observe(
            self.pair_config.source_of(record),
            self.pair_config.destination_of(record),
            record.timestamp,
            record.url,
        )

    def observe(
        self,
        source: str,
        destination: str,
        timestamp: float,
        url: Optional[str] = None,
    ) -> None:
        """Fold one (source, destination, timestamp, url) observation."""
        key = (source, destination)
        slot = _slot_of(timestamp, self.time_scale)
        state = self._pairs.get(key)
        if state is None:
            state = self._pairs[key] = _PairState(self._max_urls)
        state.observe(slot, timestamp, self._sequence, url)
        self._sequence += 1

    def summaries(self) -> List[ActivitySummary]:
        """Finalize every pair, ordered deterministically by pair."""
        return [
            self._pairs[key].finalize(key[0], key[1], self.time_scale)
            for key in sorted(self._pairs)
        ]


def records_to_summaries(
    records: Iterable[ProxyLogRecord],
    *,
    time_scale: float = 1.0,
    keep_urls: bool = True,
    max_urls_per_pair: int = 64,
    aggregate_entities: bool = False,
    pair_config: Optional[PairConfig] = None,
) -> List[ActivitySummary]:
    """Group a flat record stream into per-pair activity summaries.

    The default communication pair is (source MAC, destination domain),
    matching the paper's evaluation configuration; ``pair_config``
    selects other Table I feature combinations.  Pairs with a single
    request carry no interval information but are still emitted
    (downstream filters need the popularity signal).

    A :class:`ProxyLog` (what :func:`read_log` returns) is folded
    through its columnar chunks by
    :func:`~repro.sources.columnar.summaries_from_chunks`, with no
    record object per line.  Any other iterable — including a one-shot
    generator — is consumed in one streaming pass via
    :class:`SummaryAccumulator`.  Both folds give bit-identical
    summaries, and peak memory is bounded by the per-pair state, not
    the record count.

    ``aggregate_entities=True`` is shorthand for a pair config whose
    destination feature is the *registered* domain, so subdomain-fluxing
    C&C — whose per-FQDN pairs are sparse and aperiodic — reassembles
    into one beaconing pair (paper Challenge 2: a destination entity
    has many addresses).
    """
    options = dict(
        time_scale=time_scale,
        keep_urls=keep_urls,
        max_urls_per_pair=max_urls_per_pair,
        aggregate_entities=aggregate_entities,
        pair_config=pair_config,
    )
    if isinstance(records, ProxyLog):
        from repro.sources.columnar import summaries_from_chunks

        return summaries_from_chunks(records.chunks(), **options)
    accumulator = SummaryAccumulator(**options)
    for record in records:
        accumulator.observe_record(record)
    return accumulator.summaries()


def summary_from_observations(
    source: str,
    destination: str,
    observations: Iterable[Tuple[float, int, str]],
    *,
    time_scale: float = 1.0,
    max_urls: int = 64,
) -> ActivitySummary:
    """Fold one pair's ``(timestamp, sequence, url)`` observations.

    This is the reduce-side body of the data-extraction MapReduce job:
    ``sequence`` is the record's global arrival index, so URL ties
    within one time slot resolve in arrival order exactly as the
    streaming path does — the engine front end and
    :func:`records_to_summaries` produce identical summaries.
    """
    state = _PairState(max_urls)
    for timestamp, sequence, url in observations:
        state.observe(_slot_of(timestamp, time_scale), timestamp, sequence, url)
    require(state.bins, "observations must not be empty")
    return state.finalize(source, destination, time_scale)
