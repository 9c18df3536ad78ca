"""The benchmark's own tests: every workload once at smoke sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END, HERE, PER_LAYER, ROOT, differences, failed_count
from workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    from workloads import make_jobs

    texts = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        jobs = make_jobs(ROOT, WORKLOADS["rate"], 5, True, str(work))
        texts.append([open(j.target).read() for j in jobs])
    assert texts[0] == texts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench(tmp_path, "--workload", "rate", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_comparison_tolerates_roundoff_only():
    want = {"mean": [1.0, 2e-9], "passed": True, "n": 3}
    assert differences({"mean": [1.0 + 1e-12, 2e-9], "passed": True, "n": 3}, want, 1e-7) == []
    assert differences({"mean": [1.001, 2e-9], "passed": True, "n": 3}, want, 1e-7)
    assert differences({"mean": [1.0, 2e-9], "passed": False, "n": 3}, want, 1e-7)
    assert differences({"mean": [1.0], "passed": True, "n": 3}, want, 1e-7)


def test_nonzero_exit_is_a_failed_operation():
    ops = [
        {"rc": 0, "problems": []},
        {"rc": 1, "problems": []},  # checked output, verdict "not converged"
        {"rc": 1, "problems": ["exit code 1 disagrees with the verdict True"]},
        {"rc": 0, "problems": ["report.json differs from the first run of job seed"]},
    ]
    assert failed_count(ops) == 3
