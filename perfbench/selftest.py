"""The benchmark's own tests, on toy-size (--smoke) runs of every workload.

    python3 -m pytest perfbench/selftest.py

Named so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def bench(*args, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return json.loads(lines[-2])["info"], result


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    info, result = smoke(workload, 0)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
        assert info["samples"][name] >= 1, name
    assert metrics["ops_ok_ratio"]["value"] == 1.0
    prov = info["provenance"]
    assert info["seed"] == 3 and prov["nproc"] >= 1
    for key in ("git_sha", "python", "numpy", "machine"):
        assert prov[key], key
    assert prov["blas"]["threads"] and prov["blas"]["version"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_layer_span(workload):
    info, result = smoke(workload, 1)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("per_layer")
    assert math.isfinite(metrics["trace.overhead_pct"]["value"])
    assert info["fixed_work_s"]["untraced"] > 0 and info["fixed_work_s"]["traced"] > 0
    missing = [span for span in layers.LAYER_SPANS if span not in info["span_names"]]
    assert not missing, f"layer spans that never fired on {workload}: {missing}"
    for name in ("encoder.forward_train_calls", "loss.scl_calls", "eval.dtw_cells",
                 "eval.ap_comparisons", "data.load_bytes", "encoder.ckpt_save_bytes"):
        assert metrics[name]["value"] > 0, name
    assert metrics["cli.nonzero_exits"]["value"] == 0
    assert set(layers.COMPUTED) == set(info["computed"])
    assert (ROOT / info["spans_file"]).stat().st_size > 0


def test_same_seed_gives_same_outputs():
    first = smoke("train-small", 0, seed=11)[0]["quality"]
    second = smoke("train-small", 0, seed=11)[0]["quality"]
    assert first == second
    assert set(first) == {"classification_acc", "progression_r2", "kendalls_tau", "ap_at_k"}


def test_all_prints_every_workload():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {f"{w}.{name}": unit
                for w in WORKLOADS for name, unit in units("end_to_end").items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
