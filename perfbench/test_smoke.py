"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks that each
run prints every metric BENCHMARK.json declares, with its unit, and that
every output check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "church", "search", "cli"])
def test_every_metric_is_printed_and_every_check_passes(workload, trace):
    proc = run("--workload", workload, "--tiny", "--seconds", "1", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, outputs_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert json.loads(outputs_line.removeprefix("outputs "))["run_digest"], outputs_line
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["failed"] == 0, proc.stdout
    if workload == "cli":
        # The known-defect inputs run outside the timed inputs and are listed by name.
        known = json.loads(outputs_line.removeprefix("outputs "))["known_defects"]
        assert set(known) == {"deep-lambda-3000", "deep-bag-300", "trace-reload"}, outputs_line
        assert all(name in proc.stdout for name in known)


def test_runs_fail_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
