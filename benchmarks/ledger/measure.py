"""Measurement primitives of the perf ledger: order statistics, process
accounting from ``/proc``, result digests and the machine calibration loops.

Nothing here knows about workloads; ``workloads.py`` composes these.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import struct
import time
import zlib

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_REGION_HEADER = struct.Struct("<q4d")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(fraction * n)``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a lone sample is both."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median — the figure
    the driver holds against a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def summarise(samples, unit: str, reduce=statistics.median) -> dict:
    """One reported metric: the reduced value plus the spread it came from."""
    samples = [float(sample) for sample in samples]
    q1, q3 = quartiles(samples)
    return {
        "value": float(reduce(samples)),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


# ----------------------------------------------------------------------
# Process accounting (/proc — the container is Linux)
# ----------------------------------------------------------------------
def cpu_seconds(pid: int | None = None) -> float:
    """utime + stime of a process.  Our own process reads the finer clock."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _status_field(pid: int | None, key: str) -> int:
    with open(f"/proc/{pid if pid is not None else 'self'}/status") as handle:
        for line in handle:
            if line.startswith(key):
                return int(line.split()[1])
    return 0


def peak_rss_mib(pid: int | None = None) -> float:
    """High-water resident set (VmHWM) in MiB."""
    return _status_field(pid, "VmHWM:") / 1024.0


def thread_count(pid: int | None = None) -> int:
    return _status_field(pid, "Threads:")


# ----------------------------------------------------------------------
# Result digests (the correctness oracle compares these)
# ----------------------------------------------------------------------
def digest_regions(regions) -> bytes:
    """Digest of a scan's regions: frame, box, label and pixel bytes, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for region in regions:
        box = region.region
        digest.update(
            _REGION_HEADER.pack(region.frame_index, box.x1, box.y1, box.x2, box.y2)
        )
        digest.update((region.label or "").encode("utf-8"))
        pixels = np.ascontiguousarray(region.pixels)
        digest.update(struct.pack("<2q", *pixels.shape))
        digest.update(pixels)
    return digest.digest()


def layout_fingerprint(tiled) -> str:
    """Digest of a TiledVideo's per-SOT layouts (identical across repeats)."""
    digest = hashlib.blake2b(digest_size=8)
    for sot_index in range(tiled.sot_count):
        layout = tiled.layout_for(sot_index)
        digest.update(repr((sot_index, layout.row_heights, layout.column_widths)).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Host speed (end-to-end times are reported at reference speed)
# ----------------------------------------------------------------------
class SpeedProbe:
    """How slow is the host right now, relative to the reference container?

    The sandbox's CPU speed drifts by 10-15% over minutes (other tenants on
    the host), far more than a run's medians can absorb: ten identical runs
    spread 6-11% on raw clocks.  A change to the program cannot move a loop
    that does not call the program, so each repeat times this fixed loop
    between its windows and divides its clock readings by the slowdown it
    saw.  The loop is the three things the program spends time in — zlib
    inflate, numpy de-quantisation over freshly allocated arrays, and the
    bytecode interpreter — about 5 ms each at reference speed.
    """

    #: Seconds each part takes on the container the ledger was defined on.
    REFERENCE = (5.0e-3, 4.3e-3, 5.5e-3)

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._packed = zlib.compress(rng.integers(0, 64, size=1 << 16, dtype=np.uint8).tobytes(), 1)
        self._raster = rng.integers(0, 255, size=(256, 256), dtype=np.uint8)

    def slowdown(self) -> float:
        """One ~15 ms sample: mean over the parts of time / reference time."""
        clock, packed, raster = time.perf_counter, self._packed, self._raster
        started = clock()
        for _ in range(12):
            zlib.decompress(packed)
        inflated = clock()
        for _ in range(160):
            np.clip(raster.astype(np.int16) * 4 + 2, 0, 255).astype(np.uint8)
        dequantised = clock()
        total = 0
        for value in range(150_000):
            total += value
        interpreted = clock()
        parts = (inflated - started, dequantised - inflated, interpreted - dequantised)
        return sum(part / ref for part, ref in zip(parts, self.REFERENCE)) / len(parts)


# ----------------------------------------------------------------------
# Machine calibration (per-layer rows: drift between hosts and runs)
# ----------------------------------------------------------------------
def _best_rate(work, amount: float, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - started)
    return amount / best


def calibrate() -> dict[str, float]:
    """memcpy MB/s, zlib inflate MB/s and Python calls per microsecond."""
    block = np.random.default_rng(0).integers(0, 64, size=1 << 20, dtype=np.uint8)
    target = np.empty_like(block)
    packed = zlib.compress(block.tobytes(), 1)

    def noop() -> None:
        pass

    def calls() -> None:
        for _ in range(100_000):
            noop()

    return {
        "calib.memcpy_mb_s": _best_rate(lambda: np.copyto(target, block), block.nbytes / 1e6),
        "calib.zlib_mb_s": _best_rate(lambda: zlib.decompress(packed), block.nbytes / 1e6),
        "calib.pycalls_per_us": _best_rate(calls, 100_000) / 1e6,
    }
