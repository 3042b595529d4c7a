"""Self-tests of the benchmark itself.

    python -m pytest -q bench

A minimum-size run of every workload, in both modes, must emit every
metric BENCHMARK.json names, with its unit, and no failed operation.  A
datapath that returns a wrong result must show up as failed operations,
which proves the correctness gates are live.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.load_package() is not None, "benchmark needs the src/ tree"

import workloads  # noqa: E402  (needs the package path set up by run)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimum_run_emits_every_metric(workload, trace):
    proc = _run_cli(run.ROOT, "--workload", workload, "--seed", "3",
                    "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in names}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


# A +1 on a GEMM accumulator is absorbed by the following requantize
# shift (up to 10 bits on conv3), so the logits gate cannot see it; the
# faults below are the smallest that must reach it: one requantize step
# of the widest shift, or one extra simulated cycle.
@pytest.mark.parametrize("fault", [
    lambda y, cycles: (y + (1 << 10), cycles),
    lambda y, cycles: (y, cycles + 1),
], ids=["accumulator", "cycles"])
def test_injected_gemm_fault_fails_operations(monkeypatch, fault):
    real = workloads.cnn.gemm_obc

    def faulty(*args, **kwargs):
        y, cycles, traces = real(*args, **kwargs)
        return (*fault(y, cycles), traces)

    monkeypatch.setattr(workloads.cnn, "gemm_obc", faulty)
    result, _ = run.run("lenet-infer", 3, 0.01, trace=False)
    assert result["failed"] > 0
    assert result["correct"] is False


def test_injected_ipc_fault_fails_operations(monkeypatch):
    real = workloads.ipc.ipc_obc

    def off_by_one(*args, **kwargs):
        got, trace = real(*args, **kwargs)
        return got + 1, trace

    monkeypatch.setattr(workloads.ipc, "ipc_obc", off_by_one)
    result, _ = run.run("ipc-verify", 3, 0.01, trace=False)
    assert result["failed"] > 0
    assert result["correct"] is False


def test_exact_count_drift_is_reported():
    assert run.exact_drift("ipc-verify", {"sim_cycles_per_call": 9.0}) == []
    assert run.exact_drift("ipc-verify", {"sim_cycles_per_call": 10.0})


def test_heldout_seed_is_verified():
    result, _ = run.run("ipc-verify", 3, 0.01, trace=False,
                        heldout_seed=4)
    assert result["correct"] is True
    assert result["attempted"] > 0


def test_fails_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "ipc-verify", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
