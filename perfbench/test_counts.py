"""Exact counts repeat: two runs of one workload with one seed count the same work.

Run from the repository root (about two minutes):

    python3 -m pytest -q perfbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    (line,) = [line for line in lines if line.startswith("counts ")]
    return json.loads(line[len("counts "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep-gaussian", "audit", "fit"])
def test_counts_repeat_for_one_seed(workload, trace):
    first = counts(workload, trace)
    assert first["operations"] > 0
    assert first == counts(workload, trace)
