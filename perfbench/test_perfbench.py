"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_ratio"] == 0
    assert detail["runtime"]["iepoly_file"].startswith(os.path.join(ROOT, "src"))
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("small", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_binding():
    import iepoly
    import tracing

    before = {
        "identities.indicator_many": importlib.import_module("iepoly.identities").indicator_many,
        "height.coeffs_series": importlib.import_module("iepoly.height").coeffs_series,
        "package.height": iepoly.height,
        "registry": dict(iepoly.IDENTITY_CHECKS),
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert iepoly.height is not before["package.height"]
        rec = iepoly.height(iepoly.Triple(3, 5, 7))
    finally:
        tracer.restore()
    assert rec.height == 2
    assert [s[0] for s in tracer.spans] == ["height.height", "engine.coeffs_series.half"]
    assert tracer.spans[1][3] == 0  # the engine span's parent is the height span
    assert importlib.import_module("iepoly.identities").indicator_many is before[
        "identities.indicator_many"]
    assert importlib.import_module("iepoly.height").coeffs_series is before[
        "height.coeffs_series"]
    assert iepoly.height is before["package.height"]
    assert dict(iepoly.IDENTITY_CHECKS) == before["registry"]


def test_self_time_subtracts_children():
    import tracing

    spans = [["height.height", 0.0, 1.0, None, 0, None],
             ["engine.coeffs_series.half", 0.2, 0.7, 0, 0, None]]
    metrics, calls = tracing.layer_metrics(spans, ())
    assert metrics["height.height.busy_s"] == pytest.approx(0.5)
    assert metrics["engine.coeffs_series.half.busy_s"] == pytest.approx(0.5)
    assert calls == {"height.height": 1, "engine.coeffs_series.half": 1}


def test_tail_keeps_ten_samples_beyond():
    import run

    assert run._tail([float(i) for i in range(1, 1001)], 99.0) == (99.0, 990.0)
    assert run._tail([float(i) for i in range(1, 101)], 99.0) == (90.0, 90.0)
    assert run._tail([1.0, 2.0, 3.0], 99.0) == (100.0, 3.0)
