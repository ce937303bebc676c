"""The TASM service layer: a concurrent, multi-client server over one TASM.

PR 1 made batches cheap (one decode per tile per batch, a persistent
:class:`~repro.exec.cache.TileDecodeCache`); this package makes those wins
available to *many concurrent callers*, the deployment VSS targets:

* :class:`~repro.service.server.TasmServer` — owns a single TASM plus one
  process-wide tile cache; queries from all clients funnel through one
  pending queue that free batch runners drain up to
  ``TasmConfig.service_max_batch`` at a time, so overlapping requests that
  queue together share decodes, and writes
  (``add_metadata``, ``retile_sot``) serialize against in-flight scans via
  per-``(video, SOT)`` readers-writer locks.
* :class:`~repro.service.client.TasmClient` — the in-process client handle:
  blocking ``scan`` or streaming ``scan_streaming`` (results arrive per SOT,
  before the batch's later SOTs have decoded).
* :class:`~repro.service.stream.ScanStream` / ``StreamChunk`` — the one
  stream state machine every client returns (buffer, delivered SOTs,
  deadline, typed failure, iterate / ``result`` / ``close``, ``resume``);
  ``ResultStream``, ``RemoteScanStream`` and the cluster's
  ``ClusterScanStream`` are its three thin sources.
* :class:`~repro.service.scheduler.BatchScheduler` / ``ResultStream`` — the
  pool of batch runners (``TasmConfig.service_runners``) that form their own
  batches from the pending queue (no timer: idle dispatches at once, load
  coalesces), round-robin per-client admission control, and the bounded,
  backpressured per-query stream handle
  (``TasmConfig.service_stream_buffer_chunks``).
* :class:`~repro.service.transport.SocketTransport` /
  ``RemoteTasmClient`` — a multiplexed socket transport for cross-process
  callers: tagged query ids carry any number of concurrent scans over one
  connection, chunks travel as binary frames (header plus the regions' raw
  pixels, sent scatter-gather by the connection's one writer thread), and
  per-stream chunk *credits* turn a slow consumer into the parking of its
  own stream on the server — never the connection's writer or its other
  streams (no head-of-line blocking).  A
  wire-level ``CANCEL`` lets a consumer abandon a scan so the server skips
  its remaining decode work.
* :class:`~repro.service.transport.ShmTransport` — the same transport, plus
  a per-connection shared-memory pixel ring negotiated at the hello
  handshake: same-host clients receive pixel payloads through shared memory
  (descriptors only on the socket), with clean per-chunk fallback to the
  socket path when the ring is full or the negotiation fails.

Observability: the server owns an :class:`~repro.obs.Observability` instance
(``TasmServer.obs``) — a metrics registry, per-query traces, and a slow-query
log — exposed in process via ``TasmServer.metrics_snapshot()`` / ``traces()``
and over the wire through the ``metrics`` and ``trace`` ops
(``RemoteTasmClient.metrics()`` / ``.traces()``); ``repro.obs.render_text``
renders either snapshot as Prometheus-style text.
"""

from .stream import ScanStream, StreamChunk
from .scheduler import BatchScheduler, ResultStream
from .server import DEFAULT_SERVER_CACHE_BYTES, ServerStats, TasmServer
from .client import TasmClient
from .transport import (
    PROTOCOL_VERSION,
    RemoteScanStream,
    RemoteTasmClient,
    RetryPolicy,
    ShmTransport,
    SocketTransport,
)

__all__ = [
    "BatchScheduler",
    "DEFAULT_SERVER_CACHE_BYTES",
    "PROTOCOL_VERSION",
    "RemoteScanStream",
    "RemoteTasmClient",
    "ResultStream",
    "RetryPolicy",
    "ScanStream",
    "ServerStats",
    "ShmTransport",
    "SocketTransport",
    "StreamChunk",
    "TasmClient",
    "TasmServer",
]
