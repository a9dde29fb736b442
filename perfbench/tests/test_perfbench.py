"""Tests of the benchmark itself: its output schema and its correctness gates.

    python3 -m pytest perfbench/tests

The schema tests run the benchmark command for real at its shortest
setting (the step and epoch minimums still apply), about three minutes in all.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gates as G  # noqa: E402
import workloads as W  # noqa: E402
from able import dataio  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    return result


def _assert_metrics(result: dict, declared: list) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        entry = metrics[m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])


# ---- schema ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == W.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == W.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in W.WORKLOADS.items()}
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    _assert_metrics(result, _spec()["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for m in _spec()["end_to_end"]:
        assert f"{m['name']} = " in proc.stdout and m["unit"] in proc.stdout
    assert proc.stdout.startswith("record ")


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("burgers-1d", 1)
    result = _result(proc)
    _assert_metrics(result, _spec()["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["frame.density_ms.m1"] == 0.0          # m1 has no density head
    assert m["frame.density_ms.m2"] > 0.0
    assert m["fft.calls.gen"] == 0                  # pde uses numpy's FFT directly
    assert m["fft.calls.m1"] == 12                  # 3 layers x (fft, ifft) x (forward, backward)
    assert m["tensor.nodes_per_step.m2"] == int(m["tensor.nodes_per_step.m2"])
    assert m["pde.burgers_steps"] == 10000 and m["pde.darcy_solve_ms"] == 0.0
    assert 0.5 < m["trace.coverage.m2"] <= 1.0
    assert "gelu (not a count_flops term)" in proc.stdout
    assert "working set (computed)" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("burgers-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---- gates ------------------------------------------------------------------------------

def test_fno_gate_counts_a_perturbed_prediction():
    gates = G.Gates()
    want = np.random.default_rng(0).standard_normal((2, 4, 32))
    assert G.fno_reference(gates, "exact", want.copy(), want)
    assert not G.fno_reference(gates, "perturbed", want + 1e-6, want)
    assert (gates.attempted, gates.failed) == (2, 1)
    assert gates.misses[0].startswith("perturbed")


def test_frame_gate_counts_a_lossy_inverse():
    gates = G.Gates()
    rng = np.random.default_rng(1)
    field = rng.standard_normal((1, 2, 16))
    lifted = np.fft.fft(field, norm="ortho")
    assert G.frame_identities(gates, "exact", field, lifted, field.copy())
    assert not G.frame_identities(gates, "lossy", field, lifted, field * (1 + 1e-6))
    assert not G.frame_identities(gates, "scaled", field, 1.01 * lifted, field.copy())
    assert (gates.attempted, gates.failed) == (3, 2)


def test_darcy_gate_counts_an_inflated_residual():
    ds = dataio.make_darcy_dataset(1, seed=3, resolution=16, generate_at=32)
    gates = G.Gates()
    assert G.darcy_solver(gates, "solved", ds.meta, ds.targets)
    inflated = {**ds.meta, "solver": {**ds.meta["solver"], "max_residual": 1e-6}}
    assert not G.darcy_solver(gates, "inflated residual", inflated, ds.targets)
    assert not G.darcy_solver(gates, "negative target", ds.meta, -ds.targets)
    assert (gates.attempted, gates.failed) == (3, 2)


def test_burgers_gate_counts_drift_and_energy_growth():
    ds = dataio.make_burgers_dataset(2, nu=0.1, seed=4, resolution=32, generate_at=32,
                                     t_final=0.01)
    gates = G.Gates()
    assert G.burgers_solver(gates, "solved", ds.meta)
    drift = {"solver": {**ds.meta["solver"], "mean_drift_max": 1e-6}}
    growth = {"solver": {**ds.meta["solver"], "energy_nonincreasing": False}}
    assert not G.burgers_solver(gates, "drift", drift)
    assert not G.burgers_solver(gates, "energy growth", growth)
    assert (gates.attempted, gates.failed) == (3, 2)


def test_round_trip_gate_counts_a_flipped_bit():
    a = np.linspace(0.0, 1.0, 64)
    b = a.copy()
    b.view(np.uint64)[5] ^= 1
    gates = G.Gates()
    assert G.bitwise_equal(gates, "same", [("x", a, a.copy())])
    assert not G.bitwise_equal(gates, "flipped", [("x", a, b)])
    assert not G.bitwise_equal(gates, "reshaped", [("x", a, a.reshape(8, 8))])
    assert (gates.attempted, gates.failed) == (3, 2)


def test_loss_gates_count_nan_and_no_progress():
    gates = G.Gates()
    assert G.loss_finite(gates, "finite", 0.5)
    assert not G.loss_finite(gates, "nan", float("nan"))
    assert G.loss_decreased(gates, "down", 0.9, 0.2)
    assert not G.loss_decreased(gates, "flat", 0.4, 0.4)
    assert (gates.attempted, gates.failed) == (4, 2)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert W.tail_percentile(range(1, 21)) == (50, 10, 10)
    assert W.tail_percentile(range(1, 101)) == (90, 90, 10)
    q, value, beyond = W.tail_percentile(range(1, 27))
    assert beyond >= 10 and value == 26 - beyond
    with pytest.raises(ValueError):
        W.tail_percentile(range(10))
