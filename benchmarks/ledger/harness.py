"""Measure a workload: repeats, timed windows, failure accounting, the oracle.

One *repeat* rebuilds the workload from scratch (``setup_s``), then runs its
fixed op list as timed windows.  Results are kept only for the length of a
window: when it ends they are digested (outside every clock) and dropped, and
after the last repeat the digests are compared with the oracle's.  The oracle
is built last so that it never inflates the measured peak RSS.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter

from measure import SpeedProbe, digest_regions, summarise

#: Most ops a timed window may hold.  Bounds how many results are alive at
#: once (about 100 KB each on the road scene) without putting digest work
#: inside the timed wall or CPU clocks.
WINDOW_OPS = 50
_PROBE = SpeedProbe()


def _windows(ops: list, at_least: int) -> list[list]:
    """The op list cut into ``at_least`` or more windows of an even size
    (cluster_warm's op pairs stay whole), none above WINDOW_OPS."""
    size = min(WINDOW_OPS, max(2, -(-len(ops) // at_least)))
    size += size % 2
    return [ops[offset : offset + size] for offset in range(0, len(ops), size)]


class Repeat:
    """Everything one repeat measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.latencies: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.errors: list[str] = []
        #: Timed ops that decoded although the workload is warm.
        self.decoded_when_warm = 0
        #: (key, digest) -> how many ops answered it, timed and warm-up apart.
        self.timed_answers: Counter = Counter()
        self.warmup_answers: Counter = Counter()
        #: Pixels decoded over warm-up + timed ops; other DecodeStats sums over
        #: the timed ops only.
        self.pixels_decoded = 0
        self.timed = Counter()
        self.snapshot: dict = {}
        #: SpeedProbe readings taken before set-up and between windows.
        self.slowdowns: list[float] = []

    @property
    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def account(self, records, timed: bool, must_not_decode: bool) -> None:
        answers = self.timed_answers if timed else self.warmup_answers
        for key, elapsed, result in records:
            if timed:
                self.latencies.append(elapsed)
            if isinstance(result, Exception):
                self.errors.append(f"{key}: {result!r}")
                continue
            answers[(key, digest_regions(result.regions))] += 1
            stats = result.stats
            self.pixels_decoded += stats.pixels_decoded
            if timed:
                self.timed["tiles_decoded"] += stats.tiles_decoded
                self.timed["cache_hits"] += stats.cache_hits
                self.timed["cache_misses"] += stats.cache_misses
                self.timed["regions"] += len(result.regions)
                if must_not_decode and stats.pixels_decoded:
                    self.decoded_when_warm += 1


def run_repeat(workload, tracer=None, teardown: bool = True) -> Repeat:
    """Set the workload up from scratch and run its op list once."""
    repeat = Repeat()
    gc.collect()
    repeat.slowdowns.append(_PROBE.slowdown())
    if tracer is not None:
        tracer.phase = "setup"
    started = time.perf_counter()
    try:
        workload.setup()
        repeat.setup_s = time.perf_counter() - started
        repeat.account(workload.warmup, False, workload.must_not_decode)
        workload.warmup = []
        served = workload.server_decoded_pixels()
        if tracer is not None:
            tracer.phase = "ops"
        speed_samples = workload.scale.speed_samples
        windows = _windows(workload.ops, speed_samples)
        stride = max(1, len(windows) // speed_samples)
        for number, window in enumerate(windows):
            if number % stride == 0:
                repeat.slowdowns.append(_PROBE.slowdown())
            cpu_before = workload.cpu_seconds()
            wall_before = time.perf_counter()
            records = workload.run_window(window, tracer)
            repeat.wall_s += time.perf_counter() - wall_before
            repeat.cpu_s += workload.cpu_seconds() - cpu_before
            repeat.account(records, True, workload.must_not_decode)
            del records
            if served is not None:
                # Which op of the window decoded is not knowable from outside
                # the servers; on a warm workload all of them are suspect.
                previous, served = served, workload.server_decoded_pixels()
                if workload.must_not_decode and served > previous:
                    repeat.decoded_when_warm += len(window)
        if tracer is not None:
            tracer.phase = "drill"
        if served is not None:
            repeat.pixels_decoded = served
        repeat.snapshot = workload.snapshot()
    except BaseException:
        workload.teardown()
        raise
    if teardown:
        workload.teardown()
    return repeat


def verify(workload, repeats: list[Repeat]) -> dict:
    """Compare every op's digest with the oracle; count attempted and failed.

    An op fails when it raised, when its regions differ from the oracle's, or
    (warm workloads) when it decoded anything after the warm-up pass.  The run
    is *correct* when nothing failed — warm-up ops included — and every repeat
    ended with the oracle's layouts.
    """
    answers, fingerprint = workload.oracle()
    expected = {key: digest_regions(result.regions) for key, result in answers.items()}
    attempted = sum(repeat.ops for repeat in repeats)
    failed = 0
    problems: list[str] = []
    for number, repeat in enumerate(repeats):
        failed += len(repeat.errors) + repeat.decoded_when_warm
        problems += [f"repeat {number}: op {error}" for error in repeat.errors]
        if repeat.decoded_when_warm:
            problems.append(
                f"repeat {number}: {repeat.decoded_when_warm} ops decoded after warm-up"
            )
        for (key, digest), count in repeat.timed_answers.items():
            if expected.get(key) != digest:
                failed += count
                problems.append(f"repeat {number}: op {key} differs from the oracle ({count}x)")
        for (key, digest), count in repeat.warmup_answers.items():
            if expected.get(key) != digest:
                problems.append(f"repeat {number}: warm-up op {key} differs from the oracle")
        if repeat.pixels_decoded != repeats[0].pixels_decoded:
            problems.append(
                f"repeat {number}: decoded {repeat.pixels_decoded} px, "
                f"repeat 0 decoded {repeats[0].pixels_decoded}"
            )
        if repeat.snapshot["fingerprint"] != fingerprint:
            problems.append(
                f"repeat {number}: layouts {repeat.snapshot['fingerprint']} "
                f"differ from the oracle's {fingerprint}"
            )
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
    }


def end_to_end(repeats: list[Repeat]) -> dict:
    """The seven end-to-end metrics: median over repeats of each repeat's
    value.  The four clock-based ones are reported at reference speed (each
    repeat's reading over the slowdown its SpeedProbe samples saw); ``raw``
    keeps the median of the readings as the clock gave them."""
    clocked = {
        "setup_s": ("s", [r.setup_s for r in repeats], -1),
        "op_p50_ms": ("ms", [statistics.median(r.latencies) * 1e3 for r in repeats], -1),
        "ops_per_s": ("1/s", [r.ops / r.wall_s for r in repeats], 1),
        "cpu_ms_per_op": ("ms", [r.cpu_s / r.ops * 1e3 for r in repeats], -1),
    }
    metrics = {}
    for name, (unit, readings, power) in clocked.items():
        metrics[name] = summarise(
            [reading * r.slowdown**power for reading, r in zip(readings, repeats)], unit
        )
        metrics[name]["raw"] = statistics.median(readings)
    metrics["pixels_decoded_per_op"] = summarise([r.pixels_decoded / r.ops for r in repeats], "px")
    metrics["stored_bytes_per_raw_byte"] = summarise(
        [r.snapshot["stored_ratio"] for r in repeats], "ratio"
    )
    # A peak, not a rate: the worst repeat is the figure.
    metrics["peak_rss_mb"] = summarise([r.snapshot["peak_rss_mib"] for r in repeats], "MiB", max)
    return metrics


def measure(workload) -> tuple[dict, dict]:
    """The untraced run: ``(end-to-end metrics, verdict)``."""
    repeats = [run_repeat(workload) for _ in range(workload.repeats)]
    verdict = verify(workload, repeats)
    return end_to_end(repeats), verdict
