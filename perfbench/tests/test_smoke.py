"""Smoke test of the benchmark itself. It gates on no timing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from aeroshm.cli import main  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "train", 0, tiny=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tiny_pipeline_through_the_cli(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--seed", "0",
                 "--duration", "60", "--aoa", "0"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--window-count", "10", "--epochs", "1"]) == 0
    checkpoint = str(run / "checkpoint.ckpt")
    assert main(["ablate", "--checkpoint", checkpoint, "--data", str(data),
                 "--out", str(run)]) == 0
    assert main(["attribute", "--checkpoint", checkpoint, "--data", str(data),
                 "--max-samples", "2", "--out", str(run)]) == 0
    for name in ("report.json", "ablate_apb.json", "ablate_tvb.json",
                 "ablate_mvb.json", "attribution_apb.json"):
        assert (run / name).is_file(), name
