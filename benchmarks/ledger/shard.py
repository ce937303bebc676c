"""One ledger shard process: a TasmServer behind a SocketTransport on a fixed port.

Started by ``workloads.ClusterWarm`` as ``python shard.py '<json spec>'``.
It speaks line-delimited JSON on stdout and takes one-word commands on stdin:

* on start: ``{"event": "ready", ...}`` — or ``{"event": "failed", "error"}``
  and exit code 3 when the port cannot be bound (the parent then tries its
  next base port);
* ``mark``  — forget the spans traced so far (warm-up is over);
* ``stats`` — cache, storage and decode figures right now;
* ``trace`` — the span aggregate since the last ``mark`` (traced shards only);
* ``stop`` / EOF — stop serving and exit 0.
"""

from __future__ import annotations

import json
import socket
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))


def _say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    from repro.cluster.supervisor import SceneDataset
    from repro.service.server import TasmServer
    from repro.service.transport import SocketTransport

    from measure import layout_fingerprint
    from tracer import Tracer
    from workloads import build_cluster_tasm, ledger_config

    spec = json.loads(sys.argv[1])
    spec["dataset"]["names"] = tuple(spec["dataset"]["names"])
    dataset = SceneDataset(**spec["dataset"])
    try:  # fail fast, before the multi-second build, when the port is taken
        socket.create_server(("127.0.0.1", spec["port"])).close()
    except OSError as error:
        _say({"event": "failed", "error": repr(error)})
        return 3
    tracer = Tracer().install() if spec["trace"] else None
    tasm = build_cluster_tasm(dataset, ledger_config(decode_cache_bytes=spec["cache_bytes"]))
    server = TasmServer(tasm).start()
    transport = SocketTransport(server, port=spec["port"]).start()
    tiled = [tasm.video(name) for name in dataset.names]
    _say(
        {
            "event": "ready",
            "fingerprint": "+".join(layout_fingerprint(video) for video in tiled),
        }
    )
    if tracer is not None:
        tracer.phase = "ops"
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            if tracer is not None:
                tracer.reset()
            _say({"event": "marked"})
        elif command == "stats":
            cache = tasm.tile_cache
            _say(
                {
                    "event": "stats",
                    "evictions": cache.stats.evictions,
                    "resident_bytes": cache.current_bytes,
                    "pixels_decoded": server.stats().pixels_decoded,
                    "stored_bytes": sum(video.total_size_bytes() for video in tiled),
                    "raw_bytes": sum(
                        v.video.width * v.video.height * v.video.frame_count for v in tiled
                    ),
                }
            )
        elif command == "trace":
            _say({"event": "trace", "trace": tracer.aggregate()})
        elif command == "stop":
            break
    transport.stop()
    server.stop()
    _say({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
