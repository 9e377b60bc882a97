"""The benchmark's worker runs a traced pass of every workload correctly.

The tracer wraps the library's public functions and the `MultiMap`
constructor by position, so a library change that breaks it fails here
rather than only when the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# dense-forms has no recorded oracle: 200 seeded tuples for each n = 3, 4
DENSE_FORMS_CHECKED = 400


def expected_checked(workload: str) -> int:
    oracle = BENCH / "oracle" / f"{workload}.json"
    if not oracle.exists():
        return DENSE_FORMS_CHECKED
    with open(oracle, encoding="utf-8") as handle:
        return len(json.load(handle)["entries"])


@pytest.mark.parametrize("workload", ["verify-all-n4", "cumulants-n5",
                                      "dense-forms"])
def test_traced_pass_is_correct(workload, tmp_path):
    run = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--tmp", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        # leave no byte-code behind in the benchmark's directory
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["checked"] == expected_checked(workload)
