"""Shared helpers for the benchmark suite (imported by the bench modules)."""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.config import CodecConfig, TasmConfig

#: Frame rate of the benchmark videos; GOPs are one second long.
BENCH_FRAME_RATE = 10


def bench_config(**overrides) -> TasmConfig:
    """The TASM configuration used across the benchmark suite."""
    codec = CodecConfig(gop_frames=BENCH_FRAME_RATE, frame_rate=BENCH_FRAME_RATE)
    return TasmConfig(codec=codec, **overrides)


def served_count(server, series: str) -> int:
    """One unlabelled count (``tasm_*_total``) from a server's metrics registry."""
    return int(server.metrics_snapshot()[series]["values"][0]["value"])


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def _jsonable(value):
    """Coerce numpy scalars/arrays (and anything else odd) for json.dump."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    return str(value)


def emit_bench(name: str, section: str, payload) -> Path:
    """Merge one result section into ``BENCH_<name>.json``.

    Each benchmark module emits every table it prints under a named section,
    so a suite run leaves one machine-readable JSON document per module in
    ``$BENCH_OUTPUT_DIR`` (default: the current directory).  Re-running a
    benchmark overwrites only its own sections, so partial runs compose.
    """
    out_dir = Path(os.environ.get("BENCH_OUTPUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    document = {"bench": name, "sections": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("sections"), dict):
                document["sections"] = existing["sections"]
        except (ValueError, OSError):
            pass  # a corrupt file is rewritten from scratch
    document["sections"][section] = payload
    path.write_text(json.dumps(document, indent=2, default=_jsonable) + "\n")
    return path
