"""The default file ingest: ``read_log`` folded on the columnar plane.

``records_to_summaries(read_log(path))`` folds the log's columnar
chunks; folding the same file's records one by one must give exactly
the same summaries for every fold option, file shape and chunk size.
Both views of a log share one tokenizer, so they also reject the same
bad lines with the same ``ValueError``.
"""

import gzip
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sources import columnar
from repro.sources.columnar import (
    chunks_to_records,
    read_log_chunks,
    records_to_chunks,
    summaries_from_chunks,
)
from repro.sources.proxy import (
    PairConfig,
    ProxyLog,
    ProxyLogRecord,
    read_log,
    records_to_summaries,
    write_log,
)

MACS = [f"aa:bb:cc:00:00:{i:02x}" for i in range(4)]
DOMAINS = [
    "c2.example.com",
    "cdn.example.com",
    "a.b.evil.co.uk",
    "x.evil.co.uk",
    "news.site.org",
]


def write_lines(path: Path, lines, *, compress: bool) -> None:
    text = "".join(line + "\n" for line in lines)
    if compress:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")


record_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_200_000),  # milliseconds
        st.integers(min_value=0, max_value=len(MACS) - 1),
        st.integers(min_value=0, max_value=2),  # ip index
        st.integers(min_value=0, max_value=len(DOMAINS) - 1),
        st.integers(min_value=0, max_value=5),  # url index
    ),
    min_size=1,
    max_size=120,
)


def as_records(rows, *, sort: bool):
    records = [
        ProxyLogRecord(
            timestamp=millis / 1000.0,
            source_mac=MACS[mac],
            source_ip=f"10.0.0.{ip}",
            destination=DOMAINS[domain],
            url=f"/beacon?id={url}",
        )
        for millis, mac, ip, domain, url in rows
    ]
    if sort:
        records.sort(key=lambda record: record.timestamp)
    return records


class TestDefaultIngestParity:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=record_rows,
        sort=st.booleans(),
        blanks=st.lists(st.integers(min_value=0, max_value=200), max_size=4),
        compress=st.booleans(),
        time_scale=st.sampled_from([1.0, 0.5, 30.0, 600.0]),
        keep_urls=st.booleans(),
        max_urls=st.sampled_from([0, 1, 2, 64]),
        pair_config=st.sampled_from(
            [
                None,
                PairConfig(source_feature="ip"),
                PairConfig(destination_feature="registered_domain"),
            ]
        ),
        aggregate_entities=st.booleans(),
        chunk_size=st.sampled_from([1, 3, 7, 64]),
        compact_min=st.sampled_from([1, 5, 8_192]),
    )
    def test_columnar_fold_matches_record_fold(
        self, rows, sort, blanks, compress, time_scale, keep_urls, max_urls,
        pair_config, aggregate_entities, chunk_size, compact_min,
    ):
        lines = [record.to_line() for record in as_records(rows, sort=sort)]
        for position in blanks:
            lines.insert(position % (len(lines) + 1), "")
        options = dict(
            time_scale=time_scale,
            keep_urls=keep_urls,
            max_urls_per_pair=max_urls,
            pair_config=pair_config,
            aggregate_entities=aggregate_entities,
        )
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            columnar, "_COMPACT_MIN_ROWS", compact_min
        ):
            path = Path(tmp) / ("log.tsv.gz" if compress else "log.tsv")
            write_lines(path, lines, compress=compress)
            log = read_log(path)
            by_records = records_to_summaries(iter(list(log)), **options)
            assert records_to_summaries(log, **options) == by_records
            # Chunks small enough to split pairs across chunks.
            split = summaries_from_chunks(
                read_log_chunks(path, chunk_size=chunk_size), **options
            )
            assert split == by_records

    def test_read_log_is_a_repeatable_record_iterable(self, tmp_path):
        records = as_records([(1000, 0, 0, 0, 0), (500, 1, 1, 1, 1)], sort=False)
        path = tmp_path / "log.tsv"
        write_log(records, path)
        log = read_log(path)
        assert isinstance(log, ProxyLog)
        assert list(log) == records
        assert list(log) == records

    def test_default_chunks_match_read_log_chunks(self, tmp_path):
        records = as_records([(i * 250, i % 4, 0, i % 5, i % 6) for i in range(50)],
                             sort=True)
        path = tmp_path / "log.tsv"
        write_log(records, path)
        via_log = [chunk.to_records() for chunk in read_log(path).chunks()]
        via_path = [chunk.to_records() for chunk in read_log_chunks(path)]
        assert [list(c) for c in via_log] == [list(c) for c in via_path]

    def test_wide_status_round_trips(self, tmp_path):
        # A status above 2**31 must survive the columnar plane unwrapped.
        wide = GOOD.replace("\t200\t", "\t3000000000\t")
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, wide], compress=False)
        records = list(read_log(path))
        assert [record.status for record in records] == [200, 3_000_000_000]
        assert list(chunks_to_records(read_log_chunks(path))) == records


def both_planes(path: Path):
    """Consume ``path`` through record iteration and through chunks."""
    return [
        lambda: list(read_log(path)),
        lambda: list(read_log_chunks(path, chunk_size=4)),
        lambda: records_to_summaries(read_log(path)),
    ]


GOOD = ProxyLogRecord(12.5, "aa:bb", "10.0.0.1", "c2.example.com").to_line()


class TestBadInputRejectedAlike:
    @pytest.mark.parametrize(
        "bad_timestamp",
        ["inf", "-inf", "nan", "NaN", "1e500", "1e300", "-9.3e18"],
    )
    def test_non_finite_timestamp(self, tmp_path, bad_timestamp):
        bad = GOOD.replace("12.500", bad_timestamp, 1)
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, "", GOOD, bad, GOOD], compress=False)
        for consume in both_planes(path):
            with pytest.raises(
                ValueError,
                match=r"log line 4: non-finite or out-of-range timestamp",
            ) as info:
                consume()
            assert repr(bad + "\n") in str(info.value)

    def test_short_line(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, GOOD, "12.0\taa:bb\t10.0.0.1"], compress=False)
        for consume in both_planes(path):
            with pytest.raises(
                ValueError,
                match=r"malformed log line 3: expected 7 tab-separated fields, got 3",
            ):
                consume()

    def test_long_line_balanced_by_blank_line(self, tmp_path):
        # A blank line (1 field) and a 13-field line keep the batch's
        # field count a multiple of 7; the fast path must still reject.
        long_line = GOOD + "\t" + "\t".join(GOOD.split("\t")[1:])
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, "", long_line, GOOD], compress=False)
        for consume in both_planes(path):
            with pytest.raises(ValueError, match=r"malformed log line 3: .* got 13"):
                consume()

    def test_short_line_balanced_by_long_line(self, tmp_path):
        # A 6-field line then an 8-field line keep the batch's field
        # count at 7 per line, and the shifted fields still parse as
        # numbers (a numeric MAC); the per-line check must still reject.
        short = "12\t5\t10.0.0.1\td\t/u\t200"
        long_line = "13\t5\t10.0.0.1\td\t/u\t200\t0\t7"
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, short, long_line, GOOD], compress=False)
        for consume in both_planes(path):
            with pytest.raises(
                ValueError,
                match=r"malformed log line 2: expected 7 tab-separated fields, got 6",
            ):
                consume()

    def test_status_outside_int64(self, tmp_path):
        bad = GOOD.replace("\t200\t", "\t10000000000000000000\t")
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, bad], compress=False)
        for consume in both_planes(path):
            with pytest.raises(ValueError, match=r"log line 2: .* 64-bit range"):
                consume()

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, [GOOD, GOOD.replace("\t200\t", "\tOK\t")], compress=False)
        for consume in both_planes(path):
            with pytest.raises(ValueError, match=r"malformed log line 2: .* numbers"):
                consume()

    @pytest.mark.parametrize(
        "bad, time_scale",
        [(float("inf"), 1.0), (float("nan"), 1.0), (1e300, 1.0), (1e18, 0.01)],
    )
    def test_in_memory_records_rejected_by_both_folds(self, bad, time_scale):
        # 1e18 is a valid log timestamp, but its slot at 0.01 s is not int64.
        records = [
            ProxyLogRecord(1.0, "aa:bb", "10.0.0.1", "c2.example.com"),
            ProxyLogRecord(bad, "aa:bb", "10.0.0.1", "c2.example.com"),
        ]
        message = "non-finite or out-of-range timestamp"
        with pytest.raises(ValueError, match=message):
            records_to_summaries(records, time_scale=time_scale)
        with pytest.raises(ValueError, match=message):
            summaries_from_chunks(records_to_chunks(records), time_scale=time_scale)


class TestColumnarSubLinearMemory:
    def _peak_kb(self, records):
        tracemalloc.start()
        tracemalloc.reset_peak()
        summaries_from_chunks(records_to_chunks(iter(records), chunk_size=1_024))
        _size, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 1024.0

    def test_peak_memory_grows_sublinearly_in_record_count(self):
        def build(factor):
            # Extra events land in already-seen one-second bins, so the
            # fold's state is invariant while records scale by factor.
            return [
                ProxyLogRecord(
                    minute * 60.0 + repeat / (factor + 1.0),
                    f"m{host}", "10.0.0.1", "c2.example.net", f"/p{repeat}",
                )
                for minute in range(4_000)
                for host in range(4)
                for repeat in range(factor)
            ]

        base, scaled = build(1), build(4)
        self._peak_kb(base)  # warm allocator/import noise out of the probe
        peak_1x = self._peak_kb(base)
        peak_4x = self._peak_kb(scaled)
        assert len(scaled) == 4 * len(base)
        assert peak_4x < 2.5 * peak_1x, (
            f"peak memory scaled with record count: {peak_1x:.0f} KiB at 1x "
            f"vs {peak_4x:.0f} KiB at 4x"
        )

    def test_state_is_bounded_by_pairs_and_slots(self):
        # 8 pairs x 500 slots, 20 events per slot: the compacted state
        # holds one row per (pair, slot) and max_urls rows per pair.
        records = [
            ProxyLogRecord(slot + k / 20.0, f"m{pair}", "10.0.0.1", "c2.example.net",
                           f"/u{k}")
            for slot in range(500)
            for pair in range(8)
            for k in range(20)
        ]
        accumulator = columnar.ColumnarAccumulator(max_urls_per_pair=3)
        for chunk in records_to_chunks(records, chunk_size=512):
            accumulator.observe_chunk(chunk)
            assert len(accumulator._histogram.columns[0]) <= 8 * 500
            pending = accumulator._urls._pending_rows
            assert pending <= max(columnar._COMPACT_MIN_ROWS, 8 * 3) + 512
        assert len(accumulator._urls.flush()[0]) == 8 * 3
        summaries = accumulator.summaries()
        assert [s.event_count for s in summaries] == [500 * 20] * 8
        assert all(s.urls == ("/u0", "/u1", "/u2") for s in summaries)
