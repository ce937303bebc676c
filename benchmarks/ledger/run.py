"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload lib_warm --seed 1 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py                  # every workload, untraced then traced
    python3 benchmarks/ledger/run.py --scale smoke    # the same at tiny sizes (~15 s)

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (names and units as in
``BENCHMARK.json``).  Full results, with quartiles and the generated inputs,
are merged into ``bench-results/ledger/`` (``--out``).  Without ``--workload``
each workload runs in a process of its own and a table is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in CONTRACT["workloads"]]


def _pin_hash_seed() -> None:
    """str hashes order sets and dicts of labels; pin them across runs (and in
    the shard processes, which inherit the environment)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _children() -> list[int]:
    """Pids whose parent is this process (``/proc/<pid>/stat``, field 4)."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # it ended while we were listing
            if stat.rpartition(")")[2].split()[1] == me:
                found.append(int(entry))
    return found


def _stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended, on
    every path out of the benchmark.  Shards are stopped by their workload's
    teardown; what is left is ``multiprocessing``'s resource tracker, which the
    drill's shm transport starts and which ends only once its pipe closes —
    after this process is gone, unless it is told to — and the shards of a run
    that died between spawning them and tearing down."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()  # closes its pipe, then waits for it
        except OSError:
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        children = _children()
        for pid in children:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        for pid in children:
            try:
                while os.waitpid(pid, os.WNOHANG)[0] == 0 and (
                    sig == signal.SIGKILL or time.monotonic() < deadline
                ):
                    time.sleep(0.01)
            except ChildProcessError:
                pass  # reaped already (a Popen.wait got there first)


def _merge_into(path: Path, workload: str, section: dict) -> None:
    document = {"workloads": {}}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except ValueError:
            pass  # a torn file is rewritten from scratch
    document.setdefault("workloads", {})[workload] = section
    path.write_text(json.dumps(document, indent=1) + "\n")


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import layers
    from workloads import SCALES, WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, SCALES[args.scale])
    if args.trace:
        metrics, verdict, tracer = layers.traced_run(workload)
        tracer.dump(out / f"trace-{args.workload}.json")
        target = out / "layers.json"
    else:
        metrics, verdict = harness.measure(workload)
        target = out / "results.json"
    section = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        **verdict,
        "metrics": metrics,
        "inputs": workload.inputs,
    }
    _merge_into(target, args.workload, section)
    for problem in verdict["problems"]:
        print(f"ledger: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0


def run_suite(args) -> int:
    """Every workload, untraced then traced, each in its own process (so peak
    RSS and the tracer's patches never leak from one into the next)."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", args.scale, "--out", args.out,
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} --trace {trace}: exit {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(
                f"\n{workload}  ({'per-layer, traced' if trace else 'end-to-end'})  "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"correct={str(result['correct']).lower()}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:<40} {metric['value']:>16.4f} {metric['unit']}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run, split over the repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(ROOT / "bench-results" / "ledger"))
    args = parser.parse_args()
    _pin_hash_seed()
    # A polite kill must unwind through the teardowns below, not skip them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_workload(args) if args.workload else run_suite(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
