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


def run_worker(workload: str, seed: int, trace: int, tmp_path: Path) -> dict:
    run = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--tmp", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        # leave no byte-code behind in the benchmark's directory
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-all-n4", "cumulants-n5",
                                      "dense-forms"])
def test_traced_pass_is_correct(workload, tmp_path):
    result = run_worker(workload, 1, 1, tmp_path)
    assert result["failed"] == 0
    assert result["checked"] == expected_checked(workload)


def test_untraced_dense_forms_pass_on_another_seed_is_correct(tmp_path):
    """A second seed calls the maps on supports in another order, so the
    call tables grow in other steps."""
    result = run_worker("dense-forms", 7, 0, tmp_path)
    assert result["failed"] == 0
    assert result["checked"] == DENSE_FORMS_CHECKED


def test_untraced_cumulants_pass_is_correct(tmp_path):
    """The measured path: untraced, the suites load the cumulants family's
    layers on demand, while the tracer imports every layer when it
    installs."""
    result = run_worker("cumulants-n5", 1, 0, tmp_path)
    assert result["failed"] == 0
    assert result["checked"] == expected_checked("cumulants-n5")


def test_untraced_verify_all_pass_is_correct(tmp_path):
    """The measured path of verify-all-n4: untraced, the runners' own
    imports name the library's functions, not the tracer's wrappers, and
    every map's rule is the library's table function."""
    result = run_worker("verify-all-n4", 1, 0, tmp_path)
    assert result["failed"] == 0
    assert result["checked"] == expected_checked("verify-all-n4")
