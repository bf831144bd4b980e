"""The benchmark harness runs one round per workload and reports a correct result.

Only the shape of the report is checked: timings vary by host and are
not asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["rule-search", "persistent-metrics",
                                      "glider-search", "simulate-frames"])
def test_one_round_reports_correct_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert END_TO_END <= set(result["metrics"])
