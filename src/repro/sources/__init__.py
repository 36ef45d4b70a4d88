"""Log-source adapters feeding the pipeline's ActivitySummary stream.

The core methodology only consumes (source, destination, timestamp)
triples.  :mod:`repro.sources.proxy` is the primary path — the paper's
BlueCoat web-proxy logs, with streaming record-to-summary grouping —
while the DNS and NetFlow modules (paper Section X) adapt resolver
logs and flow records into the same stream, including the
source-specific caveats the paper discusses (DNS caching, NetFlow's
lack of names/content).  :mod:`repro.sources.columnar` is the
high-throughput twin of the proxy path and the default fold of a log
file: the same logs parsed into numpy chunk arrays and folded
vectorized, bit-identical to the object path.
"""

from repro.sources.columnar import (
    CHUNK_DTYPE,
    ColumnarAccumulator,
    ColumnTables,
    RecordChunk,
    StringTable,
    chunks_to_records,
    read_log_chunks,
    records_to_chunks,
    summaries_from_chunks,
)
from repro.sources.dns import (
    DnsLogRecord,
    dns_records_to_summaries,
    dns_view_of_proxy,
)
from repro.sources.netflow import (
    NetflowRecord,
    netflow_records_to_summaries,
    netflow_view_of_proxy,
    resolve_domain,
)
from repro.sources.proxy import (
    LOG_CHUNK_ROWS,
    PairConfig,
    ProxyLog,
    ProxyLogRecord,
    SummaryAccumulator,
    read_log,
    records_to_summaries,
    summary_from_observations,
    write_log,
)

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
    "DnsLogRecord",
    "dns_records_to_summaries",
    "dns_view_of_proxy",
    "NetflowRecord",
    "netflow_records_to_summaries",
    "netflow_view_of_proxy",
    "resolve_domain",
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
