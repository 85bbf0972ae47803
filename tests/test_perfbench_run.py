"""Each benchmark workload runs end to end and passes its correctness checks.

Every operation of ``perfbench/run.py`` is checked against the recorded
reference (relative 1e-3, knots within 1% of the domain width, the selected
lambda best in the reference table).  Pool seed 63 is the seed whose
free-grid scores come closest to that tolerance (4.4e-4), so a change that
moves outputs shows here before the benchmark refuses it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["knot_search", "lambda_select", "replicate"])
def test_workload_passes_its_checks(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "63", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, done.stdout
    assert summary["attempted"] > 0
