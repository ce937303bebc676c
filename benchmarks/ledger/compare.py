"""Compare two ledger result files against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py old.json new.json

Each file is either a ``results.json`` written by ``run.py`` (one run: each
metric's value is the median over that run's repeats, with their quartiles) or
a ``repeat.py --save`` file (many runs: the median and quartiles are taken
over the runs).  One row per end-to-end metric x workload:

* ``regressed``  — new is worse than old by more than the metric's bound;
* ``unresolved`` — either side's own quartiles are wider apart than the bound,
  so a move of that size cannot be told from noise (reported as ``improved``
  instead when every new sample beats every old one);
* ``ok`` / ``improved`` otherwise.

Exit code 1 when anything regressed, 0 otherwise.  A gain is *claimed* by the
rule in the choosing-metrics guide (ten alternating pairs); this tool is the
no-regression half of that rule and the repeatability check of the ledger.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from measure import relative_spread

ROOT = Path(__file__).resolve().parents[2]


def load(path: str, names: set) -> dict:
    """``{workload: {metric: (reported value, samples)}}`` for the metrics in
    ``names``, from either format."""
    document = json.loads(Path(path).read_text())
    loaded: dict[str, dict[str, tuple[float, list[float]]]] = {}
    if "workloads" in document:  # results.json: samples are one run's repeats
        for workload, section in document["workloads"].items():
            loaded[workload] = {
                metric: (entry["value"], entry["samples"])
                for metric, entry in section["metrics"].items()
                if metric in names
            }
    else:  # repeat.py --save: one value per run
        for workload, runs in document.items():
            loaded[workload] = {}
            for metric in (key for key in runs[0] if key in names):
                samples = [run[metric] for run in runs]
                loaded[workload][metric] = (statistics.median(samples), samples)
    return loaded


def judge(old, new, better: str, bound: float) -> tuple[float, str]:
    """(how much worse new is than old as a share of old, verdict); each side
    is ``(reported value, samples)``."""
    sign = 1.0 if better == "lower" else -1.0
    (old_value, old_samples), (new_value, new_samples) = old, new
    worse = sign * (new_value - old_value) / abs(old_value) if old_value else 0.0
    if max(sign * v for v in new_samples) < min(sign * v for v in old_samples):
        return worse, "improved"  # every new sample beats every old one
    if max(relative_spread(old_samples), relative_spread(new_samples)) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    return worse, "improved" if worse < -bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in contract["end_to_end"]}
    old, new = load(argv[1], names), load(argv[2], names)
    regressed = 0
    print(f"{'workload':<16}{'metric':<28}{'old':>14}{'new':>14}{'worse by':>10}{'bound':>8}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in old or workload not in new:
            print(f"{workload:<16}missing from {'old' if workload not in old else 'new'}")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            worse, verdict = judge(
                old[workload][name], new[workload][name], metric["better"], metric["bound"]
            )
            regressed += verdict == "regressed"
            print(
                f"{workload:<16}{name:<28}{old[workload][name][0]:>14.4f}"
                f"{new[workload][name][0]:>14.4f}{worse:>+10.2%}"
                f"{metric['bound']:>8.1%}  {verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
