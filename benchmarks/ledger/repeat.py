"""Repeatability check: run the benchmark N times per workload, one seed each.

    python3 benchmarks/ledger/repeat.py --runs 10 --first-seed 1

Runs ``BENCHMARK.json``'s command exactly as the driver does, and reports for
every end-to-end metric x workload the spread of the N values — the distance
between their first and third quartile (``statistics.quantiles(n=4)``) as a
share of their median — against the metric's regression bound.  The target is
a spread below a third of the bound; past the bound itself the exit code is 1.
The runs are saved (``--save``) so two sets can be compared with
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import relative_spread

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--save", help="write every run's metrics to this JSON file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("a spread needs at least two runs")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    names = args.workloads or [workload["name"] for workload in contract["workloads"]]
    runs: dict[str, list[dict]] = {}
    worst = 0.0
    for name in names:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                *contract["command"], "--workload", name, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect ({result['failed']} failed)")
                return 1
            values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
            # The clock readings before speed normalisation, from the run's own file.
            written = json.loads((ROOT / "bench-results" / "ledger" / "results.json").read_text())
            raw = {
                f"raw.{metric}": entry["raw"]
                for metric, entry in written["workloads"][name]["metrics"].items()
                if "raw" in entry
            }
            runs[name].append(
                {"seed": seed, "wall_s": time.perf_counter() - started, **values, **raw}
            )
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        print(f"\n{name}  ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"  {'metric':<28}{'median':>16}{'spread':>10}{'bound':>8}{'spread/bound':>14}")
        for metric, bound in bounds.items():
            values = [run[metric] for run in runs[name]]
            share = relative_spread(values)
            if metric != "setup_s":  # the driver exempts set-up time's spread
                worst = max(worst, share / bound)
            print(
                f"  {metric:<28}{statistics.median(values):>16.4f}{share:>10.2%}"
                f"{bound:>8.1%}{share / bound:>14.2f}"
            )
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nworst spread/bound (setup_s apart): {worst:.2f}  (target < 0.33, limit 1)")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
