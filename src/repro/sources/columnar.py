"""Columnar proxy-log chunks: the zero-copy ingestion data plane.

The paper's operational story is explicitly big-data (Section VII): a
13-node Hadoop cluster extracts summaries *once* so later analyses
never reprocess raw logs.  At that scale the record path cannot afford
one Python object per log line.  This module is the default ingest of
log files — :func:`repro.sources.proxy.records_to_summaries` folds a
:func:`~repro.sources.proxy.read_log` result through it — and the
columnar alternative to :mod:`repro.sources.proxy`'s object path:

- :class:`StringTable` — append-only string interning, so endpoint and
  URL columns are small integer ids instead of repeated strings,
- :class:`RecordChunk` — a bounded slice of the log as one numpy
  structured array (``timestamp/f8`` plus ``i4`` ids into the chunk's
  :class:`ColumnTables`),
- :func:`read_log_chunks` / :func:`records_to_chunks` /
  :func:`chunks_to_records` — the converters between the TSV log
  format, object records, and chunks,
- :class:`ColumnarAccumulator` / :func:`summaries_from_chunks` — the
  vectorized per-pair fold: a whole chunk is grouped by one sort, its
  (pair, slot) counts and earliest URL rows are appended to compacting
  array logs, and Python-level work per pair happens only once, when
  the summaries are built.

The columnar fold is **bit-identical** to the streaming object path
(:class:`~repro.sources.proxy.SummaryAccumulator`): timestamps quantize
through the same float64 expressions, per-slot counts merge to the same
histograms, and the capped URL sample keeps the same earliest-k
``(timestamp, arrival)`` observations.  ``tests/sources/test_columnar.py``,
``tests/sources/test_ingest_parity.py`` and the 4-way parity suite
enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.sources.proxy import (
    LOG_CHUNK_ROWS,
    PairConfig,
    ProxyLogRecord,
    _iter_log_batches,
    _LogBatch,
    _SLOT_LIMIT,
)
from repro.utils.validation import require, require_positive

__all__ = [
    "CHUNK_DTYPE",
    "ColumnTables",
    "ColumnarAccumulator",
    "RecordChunk",
    "StringTable",
    "chunks_to_records",
    "read_log_chunks",
    "records_to_chunks",
    "summaries_from_chunks",
]

#: One parsed log line as a structured-array row.  Strings live in the
#: chunk's :class:`ColumnTables`; the row stores only interned ids.
CHUNK_DTYPE = np.dtype(
    [
        ("timestamp", "f8"),
        ("source_mac", "i4"),
        ("source_ip", "i4"),
        ("destination", "i4"),
        ("url", "i4"),
        ("status", "i8"),
        ("bytes_sent", "i8"),
    ]
)


class StringTable:
    """Append-only string interning table (id == insertion order)."""

    __slots__ = ("_ids", "_values")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []
        for value in values:
            self.intern(value)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> str:
        return self._values[index]

    @property
    def values(self) -> List[str]:
        """The interned strings, id order (a live reference; don't mutate)."""
        return self._values

    def intern(self, value: str) -> int:
        """The id of ``value``, interning it on first sight."""
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self._values)
            self._values.append(value)
        return ident

    def intern_many(self, values: Iterable[str]) -> np.ndarray:
        """Intern a column of strings; returns their ids as ``i4``."""
        intern = self.intern
        return np.fromiter(
            (intern(value) for value in values), dtype=np.int32
        )

    def intern_column(self, values: Sequence[str]) -> np.ndarray:
        """Intern a materialized column in O(n); returns ids as ``i4``.

        ``dict.fromkeys`` collapses the column to its distinct values in
        first-seen order at C speed, the unseen ones get the next ids in
        one ``update``, and the ids fan back out through one ``map`` over
        the id dict — no sort, so a column of mostly distinct URLs costs
        little more than one of a few hundred endpoints.
        """
        ids = self._ids
        fresh = [value for value in dict.fromkeys(values) if value not in ids]
        if fresh:
            start = len(self._values)
            ids.update(zip(fresh, range(start, start + len(fresh))))
            self._values.extend(fresh)
        return np.fromiter(
            map(self._ids.__getitem__, values), dtype=np.int32, count=len(values)
        )

    def decode(self, ids: np.ndarray) -> List[str]:
        """The strings behind an id array, in order."""
        values = self._values
        return [values[i] for i in ids.tolist()]


@dataclass
class ColumnTables:
    """The interning tables shared by every chunk of one log stream."""

    macs: StringTable = field(default_factory=StringTable)
    ips: StringTable = field(default_factory=StringTable)
    domains: StringTable = field(default_factory=StringTable)
    urls: StringTable = field(default_factory=StringTable)


@dataclass
class RecordChunk:
    """A bounded run of proxy-log records in columnar form.

    ``data`` is a :data:`CHUNK_DTYPE` structured array; ``tables`` maps
    the id columns back to strings (shared across every chunk of one
    stream, so ids are stable stream-wide); ``base_sequence`` is the
    global arrival index of row 0, preserving the arrival order the URL
    sample tie-breaks on.
    """

    data: np.ndarray
    tables: ColumnTables
    base_sequence: int = 0

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def timestamps(self) -> np.ndarray:
        """The ``f8`` timestamp column (a view, not a copy)."""
        return self.data["timestamp"]

    def sequences(self) -> np.ndarray:
        """Global arrival index of every row."""
        return self.base_sequence + np.arange(len(self), dtype=np.int64)

    def to_records(self) -> Iterator[ProxyLogRecord]:
        """Rehydrate object records (the compatibility shim)."""
        tables = self.tables
        for row in self.data:
            yield ProxyLogRecord(
                timestamp=float(row["timestamp"]),
                source_mac=tables.macs[int(row["source_mac"])],
                source_ip=tables.ips[int(row["source_ip"])],
                destination=tables.domains[int(row["destination"])],
                url=tables.urls[int(row["url"])],
                status=int(row["status"]),
                bytes_sent=int(row["bytes_sent"]),
            )

    @classmethod
    def from_records(
        cls,
        records: Sequence[ProxyLogRecord],
        *,
        tables: Optional[ColumnTables] = None,
        base_sequence: int = 0,
    ) -> "RecordChunk":
        """Columnarize a materialized batch of object records."""
        tables = tables if tables is not None else ColumnTables()
        data = np.empty(len(records), dtype=CHUNK_DTYPE)
        data["timestamp"] = [r.timestamp for r in records]
        data["source_mac"] = tables.macs.intern_column(
            [r.source_mac for r in records]
        )
        data["source_ip"] = tables.ips.intern_column(
            [r.source_ip for r in records]
        )
        data["destination"] = tables.domains.intern_column(
            [r.destination for r in records]
        )
        data["url"] = tables.urls.intern_column([r.url for r in records])
        data["status"] = [r.status for r in records]
        data["bytes_sent"] = [r.bytes_sent for r in records]
        return cls(data=data, tables=tables, base_sequence=base_sequence)


def records_to_chunks(
    records: Iterable[ProxyLogRecord],
    *,
    chunk_size: int = 65_536,
    tables: Optional[ColumnTables] = None,
) -> Iterator[RecordChunk]:
    """Batch an object-record stream into columnar chunks."""
    require_positive(chunk_size, "chunk_size")
    tables = tables if tables is not None else ColumnTables()
    buffer: List[ProxyLogRecord] = []
    sequence = 0
    for record in records:
        buffer.append(record)
        if len(buffer) >= chunk_size:
            yield RecordChunk.from_records(
                buffer, tables=tables, base_sequence=sequence
            )
            sequence += len(buffer)
            buffer = []
    if buffer:
        yield RecordChunk.from_records(
            buffer, tables=tables, base_sequence=sequence
        )


def chunks_to_records(
    chunks: Iterable[RecordChunk],
) -> Iterator[ProxyLogRecord]:
    """Flatten chunks back into an object-record stream."""
    for chunk in chunks:
        yield from chunk.to_records()


def read_log_chunks(
    path: Union[str, Path],
    *,
    chunk_size: int = LOG_CHUNK_ROWS,
    tables: Optional[ColumnTables] = None,
) -> Iterator[RecordChunk]:
    """Parse a (possibly gzipped) TSV log straight into columnar chunks.

    The parser never builds :class:`ProxyLogRecord` objects: each batch
    of lines is tokenized once by the shared batch tokenizer
    (:func:`~repro.sources.proxy._iter_log_batches`, which also backs
    record iteration of :func:`~repro.sources.proxy.read_log`) and
    written column by column into one structured array, with
    endpoint/URL strings interned as they are first seen.  Invalid lines
    raise ``ValueError`` with their line number, as on the record path.
    """
    require_positive(chunk_size, "chunk_size")
    tables = tables if tables is not None else ColumnTables()
    sequence = 0
    for batch in _iter_log_batches(path, chunk_size):
        chunk = _chunk_from_batch(batch, tables, sequence)
        sequence += len(chunk)
        yield chunk


def _chunk_from_batch(
    batch: _LogBatch, tables: ColumnTables, base_sequence: int
) -> RecordChunk:
    data = np.empty(len(batch), dtype=CHUNK_DTYPE)
    data["timestamp"] = batch.timestamps
    data["source_mac"] = tables.macs.intern_column(batch.source_macs)
    data["source_ip"] = tables.ips.intern_column(batch.source_ips)
    data["destination"] = tables.domains.intern_column(batch.destinations)
    data["url"] = tables.urls.intern_column(batch.urls)
    data["status"] = batch.statuses
    data["bytes_sent"] = batch.bytes_sent
    return RecordChunk(data=data, tables=tables, base_sequence=base_sequence)


#: Pending rows an accumulator log holds before it compacts, at least.
#: A log also waits until its pending rows outnumber its compacted
#: rows, so each row is re-sorted O(log n) times in total and the log
#: never holds more than twice its compacted size plus this floor.
_COMPACT_MIN_ROWS = 8_192

_LOW32 = 0xFFFFFFFF


def _run_starts(*sorted_columns: np.ndarray) -> np.ndarray:
    """Indices where any of the co-sorted columns changes value."""
    n = len(sorted_columns[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for column in sorted_columns:
        change[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(change)


def _group_rank(sorted_keys: np.ndarray) -> np.ndarray:
    """Each row's position within its run of equal keys (0-based)."""
    n = len(sorted_keys)
    starts = _run_starts(sorted_keys)
    return np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))


class _CompactingLog:
    """Column arrays appended in parts and merged by ``compact``.

    ``compact`` takes the concatenated columns and returns the merged
    state as new columns; it runs when the pending parts outgrow both
    :data:`_COMPACT_MIN_ROWS` and the compacted state, and on
    :meth:`flush`.
    """

    __slots__ = ("columns", "_compact", "_pending", "_pending_rows")

    def __init__(
        self,
        dtypes: Sequence[type],
        compact: Callable[..., Tuple[np.ndarray, ...]],
    ) -> None:
        self.columns = tuple(np.empty(0, dtype=dtype) for dtype in dtypes)
        self._compact = compact
        self._pending: List[Tuple[np.ndarray, ...]] = []
        self._pending_rows = 0

    def append(self, *columns: np.ndarray) -> None:
        rows = len(columns[0])
        if rows == 0:
            return
        self._pending.append(columns)
        self._pending_rows += rows
        if self._pending_rows > max(_COMPACT_MIN_ROWS, len(self.columns[0])):
            self.flush()

    def flush(self) -> Tuple[np.ndarray, ...]:
        """Compact everything appended so far; returns the columns."""
        if self._pending:
            merged = zip(self.columns, *self._pending)
            self.columns = self._compact(*(np.concatenate(c) for c in merged))
            self._pending = []
            self._pending_rows = 0
        return self.columns


def _merge_histogram(pairs, slots, counts):
    """Sum the counts of equal (pair, slot) rows, sorted by pair, slot."""
    order = np.lexsort((slots, pairs))
    pairs, slots = pairs[order], slots[order]
    starts = _run_starts(pairs, slots)
    return pairs[starts], slots[starts], np.add.reduceat(counts[order], starts)


class ColumnarAccumulator:
    """Fold columnar chunks into per-pair activity summaries.

    The vectorized sibling of
    :class:`~repro.sources.proxy.SummaryAccumulator`.  A chunk folds in
    one pass of array operations across all of its pairs: each distinct
    pair costs one dict lookup for its stream-wide id, the (pair, slot)
    runs come from one sort, and so do the earliest ``max_urls``
    (timestamp, arrival) URL rows of every pair.  Both results are
    appended to compacting logs; per-pair Python work happens only in
    :meth:`summaries`.  State is bounded by distinct (pair, slot)
    combinations plus ``pairs x max_urls`` URL rows (at most twice that
    between compactions, plus a fixed floor), not by the record count.
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
        self._pair_ids: Dict[Tuple[str, str], int] = {}
        self._pairs: List[Tuple[str, str]] = []
        self._sequence = 0
        # (pair id, slot, count) runs.
        self._histogram = _CompactingLog(
            (np.int64, np.int64, np.int64), _merge_histogram
        )
        # (pair id, timestamp, arrival, url ref) candidate URL rows; a
        # url ref is (index into _url_tables) << 32 | id in that table.
        self._urls = _CompactingLog(
            (np.int64, np.float64, np.int64, np.int64), self._keep_earliest
        )
        self._url_tables: List[StringTable] = []
        self._url_table_index_of: Dict[int, int] = {}
        # domain-id -> registered-domain string, memoized per (table
        # identity, consumed length) so entity aggregation stays
        # vectorizable: the mapping array simply extends as the stream's
        # shared table grows.
        self._registered: Dict[int, Tuple[StringTable, List[str]]] = {}

    def __len__(self) -> int:
        """Number of distinct pairs accumulated so far."""
        return len(self._pairs)

    # -- column resolution -------------------------------------------------

    def _source_column(
        self, chunk: RecordChunk
    ) -> Tuple[np.ndarray, List[str]]:
        """Source ids plus the id -> string decode list."""
        if self.pair_config.source_feature == "mac":
            return chunk.data["source_mac"], chunk.tables.macs.values
        return chunk.data["source_ip"], chunk.tables.ips.values

    def _destination_column(
        self, chunk: RecordChunk
    ) -> Tuple[np.ndarray, List[str]]:
        """Destination ids plus the id -> string decode list."""
        ids = chunk.data["destination"]
        table = chunk.tables.domains
        if self.pair_config.destination_feature != "registered_domain":
            return ids, table.values
        from repro.lm.domains import registered_domain

        entry = self._registered.get(id(table))
        if entry is None or entry[0] is not table:
            entry = (table, [])
            self._registered[id(table)] = entry
        _table, mapped = entry
        while len(mapped) < len(table):
            mapped.append(registered_domain(table[len(mapped)]))
        return ids, mapped

    def _url_table_index(self, table: StringTable) -> int:
        index = self._url_table_index_of.get(id(table))
        if index is None:
            index = self._url_table_index_of[id(table)] = len(self._url_tables)
            # Holding the table keeps its id from being reused.
            self._url_tables.append(table)
        return index

    def _ids_of(
        self, keys: np.ndarray, sources: List[str], destinations: List[str]
    ) -> np.ndarray:
        """Stream-wide pair ids of packed (source, destination) id keys."""
        pair_ids = self._pair_ids
        pairs = self._pairs
        out = []
        for key in keys.tolist():
            pair = (sources[key >> 32], destinations[key & _LOW32])
            ident = pair_ids.get(pair)
            if ident is None:
                ident = pair_ids[pair] = len(pairs)
                pairs.append(pair)
            out.append(ident)
        return np.array(out, dtype=np.int64)

    def _keep_earliest(self, pairs, timestamps, sequences, refs):
        """Each pair's ``max_urls`` earliest (timestamp, arrival) rows."""
        order = np.lexsort((sequences, timestamps, pairs))
        order = order[_group_rank(pairs[order]) < self._max_urls]
        return pairs[order], timestamps[order], sequences[order], refs[order]

    # -- folding -----------------------------------------------------------

    def observe_chunk(self, chunk: RecordChunk) -> None:
        """Fold one columnar chunk into the per-pair state."""
        n = len(chunk)
        if n == 0:
            return
        ts = chunk.data["timestamp"]
        scaled = ts / self.time_scale
        # Same bound as the record path's _slot_of: the slot must fit int64.
        in_range = np.abs(scaled) < _SLOT_LIMIT
        if not in_range.all():
            bad = float(ts[np.argmin(in_range)])
            raise ValueError(
                f"non-finite or out-of-range timestamp: {bad!r}"
            )
        src_ids, sources = self._source_column(chunk)
        dst_ids, destinations = self._destination_column(chunk)
        slots = np.floor(scaled).astype(np.int64)
        base_sequence = self._sequence
        self._sequence += n

        # Order the chunk by (pair, slot) for the histogram runs and by
        # (pair, timestamp, arrival) for the URL sample.  Log streams
        # are normally time-ordered, and then one stable sort by pair
        # gives both orders.
        keys = (src_ids.astype(np.int64) << 32) | dst_ids.astype(np.int64)
        max_urls = self._max_urls
        if n < 2 or not np.any(np.diff(ts) < 0):
            order = np.argsort(keys, kind="stable")
            url_order = order
        else:
            order = np.lexsort((slots, keys))
            # lexsort is stable, so equal timestamps keep arrival order.
            url_order = np.lexsort((ts, keys)) if max_urls > 0 else order
        sorted_keys = keys[order]
        sorted_slots = slots[order]
        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_pair[1:])
        new_run = new_pair.copy()
        new_run[1:] |= sorted_slots[1:] != sorted_slots[:-1]
        group_starts = np.flatnonzero(new_pair)
        runs = np.flatnonzero(new_run)
        pair_ids = self._ids_of(sorted_keys[group_starts], sources, destinations)
        self._histogram.append(
            pair_ids[np.cumsum(new_pair[runs]) - 1],
            sorted_slots[runs],
            np.diff(np.append(runs, n)),
        )
        if max_urls > 0:
            # The leading min(size, max_urls) rows of each pair group;
            # both orders sort by key first, so the groups coincide.
            take = np.minimum(np.diff(np.append(group_starts, n)), max_urls)
            firsts = np.cumsum(take) - take
            rows = np.repeat(group_starts - firsts, take) + np.arange(
                firsts[-1] + take[-1]
            )
            pick = url_order[rows]
            table = self._url_table_index(chunk.tables.urls)
            self._urls.append(
                np.repeat(pair_ids, take),
                ts[pick],
                base_sequence + pick,
                (table << 32) | chunk.data["url"][pick].astype(np.int64),
            )

    def _decoded_urls(self, refs: np.ndarray) -> List[str]:
        tables = [table.values for table in self._url_tables]
        return [tables[ref >> 32][ref & _LOW32] for ref in refs.tolist()]

    def summaries(self) -> List[ActivitySummary]:
        """Finalize every pair, ordered deterministically by pair."""
        n_pairs = len(self._pairs)
        pair_range = np.arange(n_pairs + 1)
        hist_pairs, slots, counts = self._histogram.flush()
        # Same float64 expressions as the record path's _PairState, so
        # the two data planes produce bit-identical summaries.
        quantized = np.repeat(slots.astype(float) * self.time_scale, counts)
        event_bounds = np.concatenate(([0], np.cumsum(counts)))[
            np.searchsorted(hist_pairs, pair_range)
        ].tolist()
        url_pairs, _ts, _seq, refs = self._urls.flush()
        urls = self._decoded_urls(refs)
        url_bounds = np.searchsorted(url_pairs, pair_range).tolist()
        out = []
        for ident in sorted(range(n_pairs), key=self._pairs.__getitem__):
            source, destination = self._pairs[ident]
            events = quantized[event_bounds[ident]:event_bounds[ident + 1]]
            out.append(
                ActivitySummary(
                    source=source,
                    destination=destination,
                    time_scale=self.time_scale,
                    first_timestamp=float(events[0]),
                    intervals=np.diff(events),
                    urls=tuple(urls[url_bounds[ident]:url_bounds[ident + 1]]),
                )
            )
        return out


def summaries_from_chunks(
    chunks: Iterable[RecordChunk],
    *,
    time_scale: float = 1.0,
    keep_urls: bool = True,
    max_urls_per_pair: int = 64,
    aggregate_entities: bool = False,
    pair_config: Optional[PairConfig] = None,
) -> List[ActivitySummary]:
    """Group a columnar chunk stream into per-pair activity summaries.

    The chunked counterpart of
    :func:`repro.sources.proxy.records_to_summaries`, producing
    bit-identical output for the same event stream.
    """
    accumulator = ColumnarAccumulator(
        time_scale=time_scale,
        keep_urls=keep_urls,
        max_urls_per_pair=max_urls_per_pair,
        aggregate_entities=aggregate_entities,
        pair_config=pair_config,
    )
    for chunk in chunks:
        accumulator.observe_chunk(chunk)
    return accumulator.summaries()
