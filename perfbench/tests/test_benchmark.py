"""Tiny-size runs of every workload, the printed result format, and the
agreement between BENCHMARK.json and what the benchmark prints."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_has_no_failed_operation(workload, tmp_path):
    plain = workloads.run(workload, 3, 1, False, str(tmp_path), scale=workloads.TINY)
    traced = workloads.run(workload, 3, 1, True, str(tmp_path), scale=workloads.TINY)
    for result in (plain, traced):
        assert result["detail"]["errors"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(plain["metrics"]) == list(workloads.END_TO_END)
    assert all(v > 0 for v in plain["metrics"].values())
    assert set(traced["metrics"]) == set(workloads.layer_metric_units())
    # traced passes reproduce the untraced loss bit for bit
    losses = {p["final_loss"] for p in traced["detail"]["passes"]}
    assert losses == {plain["metrics"]["final_loss"]}
    assert list((tmp_path / ".perfbench_work").iterdir()) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_the_result_as_last_line(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(workloads, "run",
                        functools.partial(workloads.run, scale=workloads.TINY))
    rc = run.main(["--workload", "finetune", "--seed", "2", "--seconds", "1",
                   "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert list(last) == ["correct", "attempted", "failed", "metrics"]
    units = workloads.layer_metric_units() if trace else workloads.END_TO_END
    assert {k: m["unit"] for k, m in last["metrics"].items()} == units
    saved = json.loads(
        (tmp_path / ".perfbench_out" / f"finetune-seed2-trace{trace}.json").read_text())
    assert saved["env"]["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert saved["env"]["src_lines"] > 0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.layer_metric_units()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
