"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Every workload must pass its own checks, print exactly the metrics that
``BENCHMARK.json`` declares with their units, and repeat every count exactly
across two runs of the same seed, traced or not.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*DECLARED["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_declared_and_counts_repeat(workload, trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    first, second = result(workload, trace), result(workload, trace)
    for out in (first, second):
        assert {m: v["unit"] for m, v in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    for metric in declared:
        if metric["unit"] == "count":
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name
    if not trace:
        for name in ("setup_s", "wall_s", "mq_misses", "eq_queries", "peak_rss_mb"):
            assert first["metrics"][name]["value"] > 0, name


def test_fails_without_the_package(tmp_path):
    """A checkout holding only the benchmark exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
