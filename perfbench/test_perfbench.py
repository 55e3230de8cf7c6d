"""Self-test of the benchmark; not part of the library's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import nearest_rank, tail_percentile

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=175, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["catalog", "relations"])
def test_two_traced_runs_give_identical_counts(workload):
    first = traced_counts(workload, 3)
    assert any(first.values())
    assert traced_counts(workload, 3) == first


@pytest.mark.parametrize("n, q", [(7, 100), (19, 100), (20, 50), (44, 77), (60, 83), (100, 90)])
def test_tail_has_ten_items_beyond_it(n, q):
    assert tail_percentile(n) == q
    values = list(range(n))
    if q < 100:
        assert sum(v > nearest_rank(values, q) for v in values) >= 10
    else:
        assert nearest_rank(values, q) == n - 1
