"""Bench-side span recorder for the ``--trace`` run.

The ledger measures layers without touching ``src/``: :meth:`Tracer.install`
replaces each layer's public functions with timing wrappers *from here*, the
harness runs one repeat, and :meth:`Tracer.uninstall` puts the originals back.
A span is ``[name, start, end, parent, op, phase, child_seconds, units, id]``;
spans of one benchmark op share its op id, a span's parent is whatever span was
open on the same thread, and self time is ``end - start - child_seconds``.
Spans stay in memory until :meth:`Tracer.dump` writes them at exit.

End-to-end numbers never come from a traced run: every wrapped call costs two
clock reads and a list append, which ``bench.trace_overhead_ratio`` reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

NAME, START, END, PARENT, OP, PHASE, CHILD, UNITS, ID = range(9)
OP_SPAN = "bench.op"


def _targets():
    """(span name, owner, attribute, units) for every wrapped public function.

    ``units(args, kwargs, result)`` counts the work one call did (entries
    returned, pixels decoded, regions served) so per-unit costs can be derived;
    ``args[0]`` is ``self`` for methods.
    """
    from repro.cluster.ring import HashRing
    from repro.cluster.router import ClusterRouter
    from repro.concurrency import SotLockRegistry
    from repro.core.policies import IncrementalRegretPolicy
    from repro.core.tasm import TASM
    from repro.exec.cache import TileDecodeCache
    from repro.index.semantic_index import BTreeSemanticIndex
    from repro.service import transport
    from repro.storage.tiled_video import TiledVideo
    from repro.tiles import partitioner
    from repro.video.codec import TileCodec
    from repro.video.decoder import VideoDecoder

    def decoded_pixels(args, kwargs, result):
        return args[1].pixels_per_frame * len(result)

    def encoded_pixels(args, kwargs, result):
        return result.pixels_per_frame * result.frame_count

    return [
        ("index.lookup", BTreeSemanticIndex, "lookup", lambda a, k, r: len(r)),
        ("index.add_detections", BTreeSemanticIndex, "add_detections", lambda a, k, r: r),
        ("exec.execute", TASM, "execute", None),
        ("exec.execute_batch", TASM, "execute_batch", lambda a, k, r: len(r)),
        ("exec.cache.get", TileDecodeCache, "get", None),
        ("exec.cache.put", TileDecodeCache, "put", None),
        ("exec.cache.invalidate_sot", TileDecodeCache, "invalidate_sot", None),
        ("video.decode_tile", TileCodec, "decode_tile", decoded_pixels),
        ("video.encode_tile", TileCodec, "encode_tile", encoded_pixels),
        ("video.decode_regions", VideoDecoder, "decode_regions", lambda a, k, r: len(r.regions)),
        ("video.prefetch_regions", VideoDecoder, "prefetch_regions", None),
        ("tiles.partition", partitioner, "partition_around_boxes", lambda a, k, r: r.tile_count),
        # A physical re-encode, as opposed to the free "already this layout" no-op.
        ("storage.retile", TiledVideo, "retile", lambda a, k, r: 1 if r.pixels_encoded else 0),
        ("storage.encoded_sot", TiledVideo, "encoded_sot", None),
        ("core.policy", IncrementalRegretPolicy, "on_query", None),
        ("core.estimate_cost", TASM, "estimate_sot_query_cost", None),
        ("core.layout_around", TASM, "layout_around", None),
        ("core.optimize", TASM, "optimize_for_workload", lambda a, k, r: a[0].video(a[1]).sot_count),
        ("concurrency.acquire_read", SotLockRegistry, "acquire_read", None),
        ("concurrency.release_read", SotLockRegistry, "release_read", None),
        ("service.chunk_encode", transport, "chunk_parts", lambda a, k, r: len(r[1])),
        ("service.chunk_decode", transport, "decode_chunk_payload", lambda a, k, r: len(r[1])),
        ("service.remote_scan", transport.RemoteTasmClient, "scan_streaming", None),
        ("cluster.ring_nodes_for", HashRing, "nodes_for", None),
        ("cluster.router_scan", ClusterRouter, "scan_streaming", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Set by the harness: "setup", "ops" (the timed window) or "drill".
        self.phase = "setup"
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for name, owner, attribute, units in _targets():
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original, units)
            holders = [owner]
            if not isinstance(owner, type):
                # A module-level function: callers hold it by name
                # (``from x import f``), so replace every such binding.
                holders = [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro")
                    and getattr(module, attribute, None) is original
                ]
            for holder in holders:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)
        return self

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()

    def _wrap(self, name: str, func, units):
        local, clock, spans, ids = self._local, time.perf_counter, self.spans, self._ids

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = getattr(local, "top", None)
            op = parent[OP] if parent is not None else -1
            record = [name, clock(), 0.0, parent, op, self.phase, 0.0, 0.0, next(ids)]
            local.top = record
            try:
                result = func(*args, **kwargs)
            finally:
                end = record[END] = clock()
                local.top = parent
                if parent is not None:
                    parent[CHILD] += end - record[START]
                spans.append(record)
            if units is not None:
                record[UNITS] = units(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Benchmark ops (the root span of each op, opened by the harness)
    # ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        record = [OP_SPAN, time.perf_counter(), 0.0, None, op_id, self.phase, 0.0, 1.0, next(self._ids)]
        self._local.top = record

    def end_op(self) -> None:
        record = self._local.top
        record[END] = time.perf_counter()
        self._local.top = None
        self.spans.append(record)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()

    def count(self, name: str) -> int:
        return sum(1 for span in list(self.spans) if span[NAME] == name)

    def aggregate(self) -> dict:
        """``{phase: {name: [calls, seconds, self_seconds, units]}}``."""
        phases: dict[str, dict[str, list[float]]] = {}
        for span in list(self.spans):
            row = phases.setdefault(span[PHASE], {}).setdefault(span[NAME], [0, 0.0, 0.0, 0.0])
            seconds = span[END] - span[START]
            row[0] += 1
            row[1] += seconds
            row[2] += seconds - span[CHILD]
            row[3] += span[UNITS]
        return phases

    def dump(self, path) -> None:
        """Write every span: ``[id, name, start_us, end_us, parent id, op, phase, units]``."""
        spans = sorted(self.spans, key=lambda span: span[ID])
        rows = [
            [
                span[ID],
                span[NAME],
                round((span[START] - self.epoch) * 1e6, 1),
                round((span[END] - self.epoch) * 1e6, 1),
                span[PARENT][ID] if span[PARENT] is not None else None,
                span[OP],
                span[PHASE],
                span[UNITS],
            ]
            for span in spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start_us", "end_us", "parent", "op", "phase", "units"], "spans": rows}, handle)


def merge_aggregates(into: dict, other: dict) -> dict:
    """Add another process's :meth:`Tracer.aggregate` (a shard's) into ``into``."""
    for phase, names in other.items():
        for name, row in names.items():
            mine = into.setdefault(phase, {}).setdefault(name, [0, 0.0, 0.0, 0.0])
            for position, value in enumerate(row):
                mine[position] += value
    return into
