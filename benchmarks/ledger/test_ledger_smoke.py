"""Smoke tests of the perf ledger: every metric named in ``BENCHMARK.json`` is
emitted with its unit, every workload is correct, and the tools around it
(``compare.py``, the bare-directory refusal) behave.

The benchmark always runs as a subprocess, exactly as the driver runs it: the
traced run patches ``repro``'s classes, which must never happen inside the
test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def _session_members(session: int) -> list[str]:
    """Command lines of the processes in ``session`` (``/proc/<pid>/stat``,
    field 6)."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
                if int(fields[3]) == session:
                    members.append((entry / "cmdline").read_text().replace("\0", " "))
            except OSError:
                continue  # it ended while we were listing
    return members


def run_ledger(workload: str, trace: int, out: Path) -> dict:
    """One run, in a session of its own so that whatever it leaves running — a
    shard, ``multiprocessing``'s resource tracker — is found."""
    process = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", "smoke", "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pid is the session id
    )
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    assert _session_members(process.pid) == [], "the run left processes behind"
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_contract_metric_is_emitted_and_correct(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_ledger(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
    # End-to-end metrics must never read zero (a ratio against zero is void).
    results = json.loads((tmp_path / "results.json").read_text())["workloads"][workload]
    assert all(metric["value"] > 0 for metric in results["metrics"].values())
    assert results["inputs"]["seed"] == 7
    layers = json.loads((tmp_path / "layers.json").read_text())["workloads"][workload]
    assert layers["metrics"]["cluster.failovers"]["value"] == 0
    if workload != "cluster_warm":  # library ops are covered by layer spans
        assert layers["metrics"]["bench.unattributed_share"]["value"] <= 0.15
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert any(span[1] == "bench.op" for span in trace["spans"])


def test_same_seed_same_inputs_and_exact_counts(tmp_path):
    first = run_ledger("lib_warm", 0, tmp_path / "a")
    second = run_ledger("lib_warm", 0, tmp_path / "b")
    for name in ("pixels_decoded_per_op", "stored_bytes_per_raw_byte"):
        assert first["metrics"][name] == second["metrics"][name]
    inputs = [
        json.loads((tmp_path / side / "results.json").read_text())["workloads"]["lib_warm"]["inputs"]
        for side in ("a", "b")
    ]
    assert inputs[0] == inputs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark's own files there is nothing
    to measure: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "lib_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _results(path: Path, op_p50: list[float]) -> Path:
    def metric(samples):
        return {"value": sorted(samples)[len(samples) // 2], "samples": samples}

    steady = {m["name"]: metric([1.0] * 5) for m in CONTRACT["end_to_end"]}
    document = {
        "workloads": {name: {"metrics": {**steady, "op_p50_ms": metric(op_p50)}} for name in WORKLOADS}
    }
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize(
    "new, code, verdict",
    [
        ([10.0, 10.1, 10.2, 10.1, 10.0], 0, "ok"),
        ([14.0, 14.1, 14.2, 14.1, 14.0], 1, "regressed"),
        ([6.0, 14.0, 10.0, 18.0, 3.0], 0, "unresolved"),
        ([7.0, 7.1, 7.2, 7.1, 7.0], 0, "improved"),
    ],
)
def test_compare_applies_the_bounds(tmp_path, new, code, verdict):
    old = _results(tmp_path / "old.json", [10.0, 10.1, 10.2, 10.1, 10.0])
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(old), str(_results(tmp_path / "new.json", new))],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == code, done.stdout
    rows = [line for line in done.stdout.splitlines() if " op_p50_ms " in line]
    assert len(rows) == len(WORKLOADS) and all(row.endswith(verdict) for row in rows)
