"""The verification harness itself: checks pass, negative controls fail."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from able import tensor as T
from able import verify
from able.errors import DomainError
from able.operator import AbleLayer

from oracles import sawtooth_partition_error, step_dft_closed_form


ROOT = Path(__file__).resolve().parents[1]
QUICK = dict(seeds=(0,), extents_list=((8,), (16,)), slices_list=(1, 2))


def test_frame_properties_pass_on_correct_build():
    report = verify.run_frame_properties(**QUICK)
    assert report.passed, report.render_text()
    iso = [c for c in report.checks if c.name.startswith("isometry")]
    assert iso and max(c.residual for c in iso) < 1e-10


def test_injected_fft_bug_detected():
    report = verify.run_frame_properties(inject="fft-normalization", **QUICK)
    assert not report.passed
    assert any(c.name.startswith("isometry") and not c.passed for c in report.checks)


def test_injected_density_bug_fails_normalization_and_skips_dependents():
    report = verify.run_frame_properties(inject="density-normalization", **QUICK)
    assert not report.passed
    bad = [c for c in report.checks if c.name.startswith("density_normalization")]
    assert bad and all(not c.passed for c in bad)
    skipped = [c for c in report.checks if c.skipped]
    assert skipped and all(c.name.split("[")[0] in ("isometry", "roundtrip") for c in skipped)


def test_report_serialization_roundtrip():
    report = verify.run_frame_properties(**QUICK)
    d = report.to_dict()
    assert d["passed"] is True
    assert all({"name", "residual", "tolerance", "passed"} <= set(c) for c in d["checks"])
    text = report.render_text()
    assert "ALL CHECKS PASSED" in text


LAYER_CHECKS = {"fourier_layer_equivalence", "dense_kernel_equivalence", "resolution_of_identity",
                "high_temperature_multihead_collapse", "constant_density_reduction"}
MATRIX_CHECKS = LAYER_CHECKS | {
    "density_normalization", "isometry", "roundtrip", "fourier_reduction",
    "low_temperature_one_hot", "high_temperature_uniform", "entropy_monotone_in_temperature",
    "translation_invariance_single_slice", "translation_invariance_broken_with_adaptive_density"}
RATE_CHECKS = {"step_truncation_closed_form", "step_truncation_slope", "partition_closed_form",
               "partition_slope", "joint_truncation_partition_slope"}


def prefix(check):
    return check.name.split("[")[0]


@pytest.mark.parametrize("level,count,prefixes", [
    ("quick", 44, MATRIX_CHECKS), ("full", 149, MATRIX_CHECKS | RATE_CHECKS)])
def test_level_runs_its_pinned_checks(level, count, prefixes):
    report = verify.run_level(level)
    assert report.passed, report.render_text()
    assert len(report.checks) == count
    assert {prefix(c) for c in report.checks} == prefixes


def test_perturbed_layer_fails_every_layer_check(monkeypatch):
    # the catalogue must compare the layer with an oracle, never with itself
    forward = AbleLayer.__call__
    monkeypatch.setattr(AbleLayer, "__call__",
                        lambda self, f: T.Tensor(forward(self, f).data * (1.0 + 1e-6)))
    report = verify.run_frame_properties(seeds=(0,), extents_list=((8,),), slices_list=(1,))
    layer_checks = [c for c in report.checks if prefix(c) in LAYER_CHECKS]
    assert len(layer_checks) == 9
    assert not [c.name for c in layer_checks if c.passed]


# ---- step truncation study -------------------------------------------------------

def test_step_coefficients_match_independent_closed_form():
    got = verify.step_coefficients_closed_form(64)
    want = step_dft_closed_form(64)
    assert np.max(np.abs(got - want)) < 1e-12


def test_step_truncation_study_slope_and_closed_form():
    result = verify.fourier_step_truncation_study(n=2**14)
    assert result.extras["closed_form_max_abs_residual"] < 1e-8
    assert -0.55 < result.fitted_slope < -0.45
    lo, hi = result.slope_ci
    assert lo - 0.15 <= -0.5 <= hi + 0.15
    # sampling error against the continuum formula is O(k/N), far above 1e-8
    assert 1e-8 < result.extras["continuum_formula_max_abs_residual"] < 1e-2


def test_step_truncation_error_halves_per_quadrupling():
    result = verify.fourier_step_truncation_study(k_list=(16, 64, 256), n=2**14)
    e = result.errors
    assert e[0] / e[1] == pytest.approx(2.0, rel=0.1)
    assert e[1] / e[2] == pytest.approx(2.0, rel=0.1)


def test_constant_target_truncates_exactly():
    u = np.ones(256, dtype=np.complex128)
    from able import fft
    coeff = fft.fft_unitary(u, axes=(0,))
    assert np.sqrt(np.sum(np.abs(coeff[1:]) ** 2)) < 1e-12


# ---- partition study ----------------------------------------------------------------

def test_partition_study_matches_closed_form_and_slope():
    result = verify.able_partition_approximation_study(n=2**14)
    assert result.extras["closed_form_max_rel_dev"] < 1e-3
    assert abs(result.fitted_slope + 1.0) < 0.02


def test_partition_errors_match_bruteforce_oracle():
    result = verify.able_partition_approximation_study(m_list=(2, 8, 32), n=4096)
    for m, err in zip(result.x_values, result.errors):
        assert err == pytest.approx(sawtooth_partition_error(m, 4096), rel=1e-12)


def test_step_target_zero_error_for_m_at_least_two():
    u = np.where(np.arange(4096) >= 2048, 1.0, 0.0)
    for m in (2, 3, 5):
        labels = verify.equal_variation_partition(u, m)
        residual = u - verify.piecewise_mean(u, labels, m)
        assert np.sqrt(np.mean(residual ** 2)) < 1e-14


def test_zero_variation_target_is_degenerate():
    with pytest.raises(DomainError, match="variation"):
        verify.equal_variation_partition(np.ones(64), 4)


def test_joint_study_slope_near_minus_half():
    result = verify.joint_truncation_partition_study(n=2**12)
    assert -0.6 < result.fitted_slope < -0.4


def test_radial_2d_study_reports_negative_slope():
    result = verify.radial_step_partition_study_2d(n=128)
    assert result.fitted_slope < -0.45


# ---- density entropy at fixed weights ------------------------------------------------

def synthetic_dataset(samples=12, n=32, seed=0):
    from able.dataio import Dataset
    from able.frame import Grid

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, 1, n))
    xs = np.fft.irfft(np.fft.rfft(x, axis=2)[:, :, :4], n=n, axis=2)
    return Dataset(Grid((n,)), xs, 0.7 * xs, {})


def test_temperature_sweep_budget_zero_initial_losses(tmp_path):
    # `able sweep --axis T` at budget 0 reports, per row, the test loss of the
    # untrained network built from the "init" stream at that row's temperature
    import json
    from dataclasses import replace

    from able.cli import main
    from able.config import load_config, stream_seed
    from able.dataio import dataset_write
    from able.operator import build_network
    from able.training import evaluate, split_dataset

    ds = synthetic_dataset()
    dataset_write(ds, tmp_path / "data.bin")
    (tmp_path / "config.json").write_text(json.dumps({
        "task": "burgers", "seed": 3,
        "model": {"width": 4, "n_layers": 1, "k_max": 4, "slices": 2,
                  "density_arch": "mlp2", "density_hidden": 8, "proj_hidden": 8},
        "train": {"epochs": 0, "batch_size": 4},
        "data": {"n_test": 4},
    }))
    t_list = (0.5, 1.0, 2.0)
    assert main(["sweep", "--config", str(tmp_path / "config.json"),
                 "--data", str(tmp_path / "data.bin"), "--axis", "T",
                 "--values", ",".join(map(str, t_list)), "--out", str(tmp_path / "sweep")]) == 0
    rows = json.loads((tmp_path / "sweep/sweep.json").read_text())["rows"]
    assert [r["value"] for r in rows] == list(t_list)

    config = load_config(str(tmp_path / "config.json"))
    _, test_set = split_dataset(ds, config.data.n_test, seed=config.seed)
    for row, temperature in zip(rows, t_list):
        model = replace(config.model, ndim=1, in_channels=1, out_channels=1,
                        temperature=temperature)
        net = build_network(model, seed=stream_seed(config.seed, "init"))
        initial_loss, _ = evaluate(net, test_set, config.train.batch_size)
        assert np.isfinite(row["final_test"])
        assert row["final_test"] == initial_loss


def test_entropy_ladder_monotone_at_fixed_weights():
    from able.operator import ModelConfig, build_network

    ds = synthetic_dataset(seed=5)
    model = ModelConfig(ndim=1, in_channels=1, out_channels=1, width=4, n_layers=1,
                        k_max=4, slices=3, density_arch="mlp2", density_hidden=8,
                        proj_hidden=8)
    net = build_network(model, seed=9)
    for layer in net.layers:
        for w in layer.density_net.weights:
            w.data *= 20.0  # push energies apart so the ladder is nontrivial
    ladder = (0.05, 0.2, 1.0, 5.0, 25.0)
    entropies = verify.entropy_vs_temperature_at_fixed_weights(net, ds.inputs[:4], ladder)
    assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
    assert entropies[-1] - entropies[0] > 1e-3


# ---- slope fitting -------------------------------------------------------------------

def test_loglog_fit_recovers_power_law():
    x = np.array([2.0, 4.0, 8.0, 16.0])
    y = 3.0 * x**-0.7
    assert verify.fit_loglog_slope(x, y) == pytest.approx(-0.7, abs=1e-12)
    lo, hi = verify.bootstrap_slope_ci(x, y, seed=3)
    assert lo <= -0.7 <= hi


@pytest.mark.parametrize("call", [
    "fit_loglog_slope([8], [0.1])",
    "fourier_step_truncation_study(k_list=(8,))",
    "able_partition_approximation_study(m_list=(8, 8))",
    "joint_truncation_partition_study(k_list=(4,), m_list=(2,))",
], ids=["fit", "step", "partition", "joint"])
def test_rate_study_refuses_a_single_x_value(call):
    # a child process, so a study that resamples forever fails by timeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", f"from able import verify; verify.{call}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert "ContractError: a slope fit needs at least two distinct values" in done.stderr


def test_bootstrap_ci_deterministic():
    x = [2, 4, 8, 16, 32]
    y = [1.0, 0.52, 0.26, 0.125, 0.061]
    a = verify.bootstrap_slope_ci(x, y, seed=9)
    b = verify.bootstrap_slope_ci(x, y, seed=9)
    assert a == b
