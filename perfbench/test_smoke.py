"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced on the ``smoke`` profile;
every metric named in BENCHMARK.json must be emitted with its unit and
every output check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every workload run.py accepts (eval-davis is runnable but not in
# BENCHMARK.json), with a per-layer count it must drive, so a dead patch shows
EXERCISED = {
    "stream-track": "harness.encode_frame.calls",
    "prune-replay": "memory.similarity.spearman.calls",
    "eval-davis": "metrics.dilate_disk.calls",
    "sweep-small": "io.atomic_write_bytes.calls",
}
WORKLOADS = list(EXERCISED)


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--profile", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"][EXERCISED[workload]]["value"] > 0
        assert json.loads(done.stdout.splitlines()[-2])["detail"]["unpatched"] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
