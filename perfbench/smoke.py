"""Smoke tests of the benchmark itself, each workload at its smallest size.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps these out of the repository's own test run; they
start the benchmark as a subprocess, a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    info = json.loads(done.stdout.splitlines()[-2])["info"]
    assert info["seed"] == 3 and info["latency_samples"] >= 2
    assert info["rounds"] >= 2 and min(info["scales"]) > 0
    assert set(info["blas_threads"].values()) == {"1"}


def test_forced_tolerance_is_counted_as_failure():
    done = smoke("orders", 1, "--tol", "1e-30")
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["fail_rate"]["value"] == result["failed"] / result["attempted"]
    assert "input 0: exit code 1" in done.stderr


def test_reports_are_stable_across_runs():
    digests = []
    for _ in range(2):
        done = smoke("wide", 0)
        digests.append(json.loads(done.stdout.splitlines()[-2])["info"]["report_sha256"])
    assert digests[0] == digests[1]


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = run_bench("--workload", "suite", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_patches_every_binding_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from ergocert import algebra, linalg, maximal
    from layertrace import Tracer

    original = linalg.eigh
    tracer = Tracer(full=True)
    tracer.install()
    try:
        assert linalg.eigh is maximal.eigh is algebra.eigh is not original
        linalg.op_norm(linalg.HermitianOperator.identity((2, 3)))
        assert tracer.calls()["linalg.eigh"] == 1
        assert sum(tracer.self_times().values()) > 0.0
    finally:
        tracer.uninstall()
    assert linalg.eigh is maximal.eigh is algebra.eigh is original
