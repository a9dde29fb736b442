"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets are wall-clock ceilings for the whole criterion.
"""

import time
import zlib

import numpy as np

from able import verify
from able import tensor as T
from able.config import stream_seed
from able.dataio import (dataset_write, make_burgers_dataset, make_darcy_dataset)
from able.frame import Grid, able_forward, density_from_energies
from able.operator import AbleLayer, ModelConfig, build_network
from able.training import TrainConfig, gradient_check, split_dataset, train


def _report(num: int, passed: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_parseval_isometry():
    t0 = time.perf_counter()
    worst_parseval = 0.0
    worst_inverse = 0.0
    for extents in [(8,), (32,), (64,), (8, 8), (16, 16)]:
        grid = Grid(extents)
        for m in (1, 2, 4, 8):
            for pair in range(20):
                rng = np.random.default_rng(hash((extents, m, pair)) % 2**32)
                shape = (1, 1) + grid.extents
                f = T.Tensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                e = rng.standard_normal((1,) + grid.extents + (m,)) * 2
                e = np.moveaxis(e, -1, 1)[:, None]
                p = density_from_energies(e, 0.8)
                coeff = able_forward(f, p).values.data
                worst_parseval = max(worst_parseval, verify.isometry_residual(f.data, coeff))
                worst_inverse = max(worst_inverse,
                                    verify.roundtrip_residual(f.data, coeff, p))
    ok = worst_parseval < 1e-10 and worst_inverse < 1e-9
    _report(1, ok, time.perf_counter() - t0, 10,
            f"Parseval residual {worst_parseval:.2e} < 1e-10, "
            f"inverse residual {worst_inverse:.2e} < 1e-9 "
            "(N in {8,32,64,8x8,16x16} x M in {1,2,4,8} x 20 pairs)")


def test_criterion_02_fourier_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for ndim, n in ((1, 32), (2, 16)):
        for draw in range(10):
            rng = np.random.default_rng(100 * ndim + draw)
            cfg = ModelConfig(ndim=ndim, width=2, k_max=3, slices=1, density_arch="mlp2",
                              density_hidden=8)
            layer = AbleLayer(cfg, None, rng=rng)
            f = rng.standard_normal((2, 2) + (n,) * ndim)
            worst = max(worst, verify.fno_residual(layer, f))
    _report(2, worst < 1e-12, time.perf_counter() - t0, 5,
            f"single-slice layer vs independent Fourier layer: max abs {worst:.2e} "
            "< 1e-12 (10 draws, 1-D and 2-D)")


def test_criterion_03_dense_kernel_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(1, (n,)) for n in (8, 16)] + [(2, (8, 8))]
    for kind in ("diagonal", "cross"):
        for m in (1, 2, 3):
            for ndim, extents in cases:
                rng = np.random.default_rng(zlib.crc32(repr((kind, m, extents)).encode()))
                cfg = ModelConfig(ndim=ndim, width=2, k_max=2, slices=m, kind=kind,
                                  temperature=0.8, density_arch="mlp2", density_hidden=8)
                layer = AbleLayer(cfg, None, rng=rng)
                f = rng.standard_normal((1, 2) + extents)
                worst = max(worst, verify.dense_kernel_residual(layer, f))
    _report(3, worst < 1e-8, time.perf_counter() - t0, 30,
            f"spectral vs dense-kernel path: worst rel {worst:.2e} < 1e-8 "
            "(diagonal+cross, M in {1,2,3}, 1-D and 2-D)")


def test_criterion_04_translation_invariance_witness():
    t0 = time.perf_counter()
    flat = verify.spectral_only(verify.make_layer("diagonal", 1, seed=30, channels=1))
    f = np.random.default_rng(31).standard_normal((1, 1, 16))
    circulant_residual, _ = verify.kernel_diagonal_spread(flat, f)

    adaptive = verify.spectral_only(
        verify.make_layer("diagonal", 2, seed=32, temperature=0.3, channels=1))
    f2 = (3.0 * np.sin(2 * np.pi * np.arange(16) / 16)).reshape(1, 1, 16)
    _, witness = verify.kernel_diagonal_spread(adaptive, f2)

    ok = circulant_residual < 1e-12 and witness > 1e-3
    _report(4, ok, time.perf_counter() - t0, 5,
            f"M=1 kernel circulant to {circulant_residual:.2e} (< 1e-12); "
            f"M=2 diagonal spread {witness:.2e} (> 1e-3)")


def test_criterion_05_temperature_limits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    layer = verify.spectral_only(verify.make_layer("diagonal", 3, seed=40, temperature=1e6))
    high_t_res = verify.high_temperature_residual(layer, rng.standard_normal((2, 2, 16)))

    energies = np.moveaxis(rng.standard_normal((1, 64, 4)), -1, 1)[:, None]
    low = density_from_energies(energies, 1e-6)
    min_max_entry = float(low.max(axis=2).min())

    ok = high_t_res < 1e-6 and min_max_entry >= 1.0 - 1e-6
    _report(5, ok, time.perf_counter() - t0, 5,
            f"high-T layer vs mean of Fourier branches rel {high_t_res:.2e} (< 1e-6); "
            f"low-T min max-density {min_max_entry:.10f} (>= 1-1e-6)")


def test_criterion_06_gradient_integrity():
    t0 = time.perf_counter()
    x = np.random.default_rng(13).standard_normal((1, 1, 32))
    y = np.random.default_rng(14).standard_normal((1, 1, 32)) + 2.0
    worst = 0.0
    density_ok = True
    for kind in ("diagonal", "cross"):
        cfg = ModelConfig(ndim=1, in_channels=1, out_channels=1, width=6, n_layers=2,
                          k_max=6, slices=2, kind=kind, density_arch="mlp2",
                          density_hidden=8, proj_hidden=12, temperature=0.8)
        net = build_network(cfg, seed=7)
        report = gradient_check(net, (x, y), n_params=50, h=1e-6, seed=1)
        worst = max(worst, report["max_rel_err"])
        density_ok = density_ok and report["density_grad_max"] > 1e-12
    ok = worst < 1e-4 and density_ok
    _report(6, ok, time.perf_counter() - t0, 60,
            f"finite-difference check (h=1e-6, 50 params incl. density head): "
            f"worst rel {worst:.2e} < 1e-4, both kinds, density gradients nonzero")


def test_criterion_07_fourier_bv_rate():
    t0 = time.perf_counter()
    result = verify.fourier_step_truncation_study(
        k_list=(8, 16, 32, 64, 128, 256, 512), n=2**14)
    closed = result.extras["closed_form_max_abs_residual"]
    slope = result.fitted_slope
    ok = closed < 1e-8 and -0.55 < slope < -0.45
    _report(7, ok, time.perf_counter() - t0, 10,
            f"step truncation slope {slope:.4f} in [-0.55,-0.45]; FFT vs exact "
            f"closed-form coefficients {closed:.2e} < 1e-8 "
            f"(continuum-formula sampling gap "
            f"{result.extras['continuum_formula_max_abs_residual']:.1e})")


def test_criterion_08_partition_rate():
    t0 = time.perf_counter()
    part = verify.able_partition_approximation_study(
        m_list=(2, 4, 8, 16, 32, 64), n=2**14)
    joint = verify.joint_truncation_partition_study()
    closed_dev = part.extras["closed_form_max_rel_dev"]
    ok = (abs(part.fitted_slope + 1.0) <= 0.02 and closed_dev < 1e-3
          and -0.6 < joint.fitted_slope < -0.4)
    _report(8, ok, time.perf_counter() - t0, 20,
            f"sawtooth partition slope {part.fitted_slope:.4f} = -1 +/- 0.02, "
            f"closed-form dev {closed_dev:.2e} < 1e-3; "
            f"joint (K,M) slope {joint.fitted_slope:.3f} in [-0.6,-0.4]")


def test_criterion_09_complexity_scaling():
    t0 = time.perf_counter()
    result = verify.complexity_scaling_check(m_list=(1, 2, 4, 8),
                                             n_list=(1024, 4096, 16384))
    slope = result["m_slope"]
    ratio = result["m1_vs_fno_ratio"]
    ok = 0.8 <= slope <= 1.2 and 0.75 <= ratio <= 1.25
    _report(9, ok, time.perf_counter() - t0, 60,
            f"time-vs-M slope {slope:.3f} in [0.8,1.2] at N=1024; single-slice vs "
            f"Fourier layer ratio {ratio:.3f} within 25%")


def test_criterion_10_solver_correctness(tmp_path):
    t0 = time.perf_counter()
    b_seed = stream_seed(5, "data")
    d_seed = stream_seed(6, "data")
    burgers = make_burgers_dataset(24, nu=0.1, seed=b_seed, resolution=256,
                                   generate_at=1024)
    darcy = make_darcy_dataset(16, seed=d_seed, resolution=64, generate_at=256)

    b_ok = (burgers.meta["solver"]["mean_drift_max"] < 1e-9
            and burgers.meta["solver"]["energy_nonincreasing"])
    d_ok = (darcy.meta["solver"]["max_residual"] < 1e-9
            and darcy.meta["solver"]["min_interior"] > 0.0
            and np.all(darcy.targets > 0))

    dataset_write(burgers, tmp_path / "b1.bin")
    dataset_write(darcy, tmp_path / "d1.bin")
    burgers2 = make_burgers_dataset(24, nu=0.1, seed=b_seed, resolution=256,
                                    generate_at=1024)
    darcy2 = make_darcy_dataset(16, seed=d_seed, resolution=64, generate_at=256)
    dataset_write(burgers2, tmp_path / "b2.bin")
    dataset_write(darcy2, tmp_path / "d2.bin")
    deterministic = ((tmp_path / "b1.bin").read_bytes() == (tmp_path / "b2.bin").read_bytes()
                     and (tmp_path / "d1.bin").read_bytes() == (tmp_path / "d2.bin").read_bytes())

    ok = b_ok and d_ok and deterministic
    _report(10, ok, time.perf_counter() - t0, 120,
            f"40-sample desk data: mean drift {burgers.meta['solver']['mean_drift_max']:.1e} "
            f"< 1e-9, energy monotone {burgers.meta['solver']['energy_nonincreasing']}, "
            f"darcy residual {darcy.meta['solver']['max_residual']:.1e} < 1e-9, "
            f"positivity {bool(np.all(darcy.targets > 0))}, bitwise deterministic {deterministic}")


def test_criterion_11_paired_training_smoke():
    t0 = time.perf_counter()
    seed = 11
    dataset = make_burgers_dataset(250, nu=0.1, seed=stream_seed(seed, "data"),
                                   resolution=256, generate_at=1024)
    train_set, test_set = split_dataset(dataset, 50, seed=seed)

    def model(m):
        return ModelConfig(ndim=1, in_channels=1, out_channels=1, width=16,
                           n_layers=3, k_max=12, slices=m, kind="diagonal",
                           density_arch="fd4", density_hidden=16, proj_hidden=32,
                           temperature=0.8)

    def run(m, epochs=50):
        net = build_network(model(m), seed=stream_seed(seed, "init"))
        cfg = TrainConfig(epochs=epochs, batch_size=20, learning_rate=3e-3,
                          schedule="step", schedule_gamma=0.5, schedule_every=15,
                          seed=seed)
        return train(net, train_set, test_set, cfg)

    able_metrics = run(2)
    fno_metrics = run(1)

    # determinism: a fresh 3-epoch run must replay the first 3 epochs exactly
    partial = run(2, epochs=3)
    strip = lambda rs: [{k: v for k, v in r.items() if k != "seconds"} for r in rs]
    deterministic = strip(partial.records) == strip(able_metrics.records[:3])

    able_best = able_metrics.best_test
    fno_best = fno_metrics.best_test
    trained_down = (able_metrics.records[-1]["train_loss"]
                    < able_metrics.records[0]["train_loss"])
    ok = able_best < 0.1 and fno_best < 0.1 and deterministic and trained_down
    ordering = "adaptive better" if able_best < fno_best else "Fourier baseline better"
    _report(11, ok, time.perf_counter() - t0, 1200,
            f"paired smoke (nu=0.1, N=256, 200/50 split, 50 epochs): "
            f"M=2 best test {able_best:.4f} < 0.1, M=1 best test {fno_best:.4f} < 0.1, "
            f"deterministic replay {deterministic}; ordering observed (not asserted): "
            f"{ordering}")
