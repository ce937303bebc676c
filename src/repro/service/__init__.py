"""The TASM service layer: a concurrent, multi-client server over one TASM.

* :class:`~repro.service.server.TasmServer` — one TASM, served as it was
  built, whose :class:`~repro.exec.cache.TileDecodeCache` (when
  ``TasmConfig.decode_cache_bytes`` asks for one) every client's decodes
  share.  The server admits, batches, streams and accounts every query:
  all clients share one pending queue, drained round-robin per client by a
  pool of ``TasmConfig.service_runners`` batch runners up to
  ``TasmConfig.service_max_batch`` at a time, so queries that queue together
  share decodes, and each query streams back through a bounded buffer.
  Writes (``add_metadata``) serialize against in-flight scans through
  per-``(video, SOT)`` readers-writer locks.
* :class:`~repro.service.client.TasmClient` — the in-process handle:
  blocking ``scan`` or streaming ``scan_streaming`` (one chunk per SOT).
* :class:`~repro.service.stream.ScanStream` / ``StreamChunk`` — the one
  stream state machine every client returns; the server's ``ResultStream``,
  ``RemoteScanStream`` and the cluster's ``ClusterScanStream`` are its
  sources.
* :class:`~repro.service.transport.SocketTransport` / ``RemoteTasmClient``
  — the socket protocol: tagged query ids multiplex concurrent scans over
  one connection, chunks travel as binary frames, per-stream credits park a
  slow consumer's stream alone, and ``CANCEL`` stops a scan's decode work.
  :class:`~repro.service.transport.ShmTransport` adds a shared-memory pixel
  ring for same-host clients.

Reporting: ``TasmServer.stats()`` is the server's decode work, a
:class:`~repro.video.codec.DecodeStats` (the wire's ``stats`` op carries the
same fields).  Everything counted — queries, batches, queue depth, cache
occupancy, latency — is in the :class:`~repro.obs.Observability` registry:
``TasmServer.metrics_snapshot()`` in process, the ``metrics`` op over the
wire, and ``traces()`` / the ``trace`` op for per-query traces.
"""

from .stream import ScanStream, StreamChunk
from .server import ResultStream, TasmServer
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
    "PROTOCOL_VERSION",
    "RemoteScanStream",
    "RemoteTasmClient",
    "ResultStream",
    "RetryPolicy",
    "ScanStream",
    "ShmTransport",
    "SocketTransport",
    "StreamChunk",
    "TasmClient",
    "TasmServer",
]
