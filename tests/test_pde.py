"""Data generators and solvers: conservation identities, oracles, containers."""

import numpy as np
import pytest

from able import dataio, pde
from able.errors import (ContractError, DataFormatError, DomainError, NumericalFailure,
                         UnsupportedSizeError)
from able.frame import Grid

import oracles

# u(center) for -lap(u) = 1 on the unit square, zero walls, computed once
# with the same finite-volume discretization at 512x512 (CG rtol 1e-10)
MEMBRANE_CENTER_512 = 0.07367113183885421


# ---- gaussian random fields ---------------------------------------------------

def test_zero_scale_gives_zero_field():
    spec = pde.GrfSpec(dims=1, tau=5, alpha=2, scale=0.0)
    f = pde.sample_grf(spec, Grid((64,)), seed=0, n_samples=3)
    assert np.all(f == 0)


def test_grf_deterministic_per_seed():
    spec = pde.GrfSpec(**pde.BURGERS_GRF)
    a = pde.sample_grf(spec, Grid((128,)), seed=42, n_samples=2)
    b = pde.sample_grf(spec, Grid((128,)), seed=42, n_samples=2)
    assert np.array_equal(a, b)
    c = pde.sample_grf(spec, Grid((128,)), seed=43, n_samples=2)
    assert not np.array_equal(a, c)


def test_grf_alpha_at_or_below_half_dims_rejected():
    with pytest.raises(DomainError):
        pde.GrfSpec(dims=1, tau=1, alpha=0.5, scale=1)
    with pytest.raises(DomainError):
        pde.GrfSpec(dims=2, tau=1, alpha=1.0, scale=1)


def test_grf_variance_matches_spectral_sum():
    spec = pde.GrfSpec(**pde.BURGERS_GRF)
    grid = Grid((4096,))
    fields = pde.sample_grf(spec, grid, seed=123, n_samples=200)
    analytic = spec.point_variance(grid)
    point = fields[:, 1000].var()
    assert abs(point - analytic) / analytic < 0.10
    averaged = fields.var(axis=0).mean()
    assert abs(averaged - analytic) / analytic < 0.03


def test_grf_periodic_autocorrelation_symmetric():
    spec = pde.GrfSpec(**pde.BURGERS_GRF)
    f = pde.sample_grf(spec, Grid((256,)), seed=5)[0]
    spec_pow = np.abs(np.fft.fft(f)) ** 2
    corr = np.fft.ifft(spec_pow).real
    assert np.allclose(corr[1:], corr[1:][::-1], atol=1e-9 * corr[0])


def test_grf_2d_shape_and_realness():
    spec = pde.GrfSpec(**pde.DARCY_GRF)
    f = pde.sample_grf(spec, Grid((64, 32)), seed=9, n_samples=2)
    assert f.shape == (2, 64, 32)
    assert f.dtype == np.float64


def test_darcy_coefficient_two_phase():
    spec = pde.GrfSpec(**pde.DARCY_GRF)
    a = pde.make_darcy_coefficient(spec, Grid((64, 64)), seed=3, n_samples=4)
    assert set(np.unique(a)) == {3.0, 12.0}


def test_darcy_coefficient_phase_fraction_balanced():
    spec = pde.GrfSpec(**pde.DARCY_GRF)
    grid = Grid((64, 64))
    fracs = [
        (pde.make_darcy_coefficient(spec, grid, seed=s) == 12.0).mean()
        for s in range(100)
    ]
    assert 0.4 < np.mean(fracs) < 0.6


def test_darcy_coefficient_requires_threshold():
    spec = pde.GrfSpec(**pde.BURGERS_GRF)
    with pytest.raises(ContractError):
        pde.make_darcy_coefficient(spec, Grid((8,)), seed=0)


# ---- burgers -------------------------------------------------------------------

def test_burgers_constant_initial_stays_constant():
    grid = Grid((128,))
    u0 = np.full(128, 1.7)
    u1, diag = pde.solve_burgers(u0, nu=0.05, grid=grid, t_final=0.01)
    assert np.max(np.abs(u1 - 1.7)) < 1e-13
    assert diag["mean_drift"].max() == 0.0


def test_burgers_mean_conserved_energy_dissipated():
    grid = Grid((256,))
    x = np.arange(256) / 256
    u0 = np.sin(2 * np.pi * x)
    u1, diag = pde.solve_burgers(u0, nu=0.1, grid=grid)
    assert abs(u1.mean() - u0.mean()) < 1e-10
    energies = diag["energies"][0]
    assert np.all(np.diff(energies) < 0), "energy must strictly decrease for this flow"


@pytest.mark.parametrize("nu", [0.1, 0.01, 0.001])
def test_burgers_energy_nonincreasing_on_grf_data(nu):
    grid = Grid((512,))
    spec = pde.GrfSpec(**pde.BURGERS_GRF)
    u0 = pde.sample_grf(spec, grid, seed=17, n_samples=2)
    _, diag = pde.solve_burgers(u0, nu=nu, grid=grid, t_final=0.2)
    en = diag["energies"]
    assert np.all(np.diff(en, axis=1) <= 1e-12 * en[:, :1])
    assert diag["mean_drift"].max() < 1e-9


def test_burgers_grid_self_convergence():
    # frozen instance: resolved viscous flow, both grids hit the same solution
    for n in (256, 512):
        x = np.arange(n) / n
        u, _ = pde.solve_burgers(0.5 * np.sin(2 * np.pi * x), nu=0.01, grid=Grid((n,)))
        if n == 256:
            coarse = u
        else:
            fine = u[::2]
    assert np.sqrt(np.mean((coarse - fine) ** 2)) < 1e-6


def _grf_burgers_data(samples=2):
    # the initial data of test_burgers_energy_nonincreasing_on_grf_data
    return pde.sample_grf(pde.GrfSpec(**pde.BURGERS_GRF), Grid((512,)), seed=17,
                          n_samples=samples)


def _relative_l2(a, b):
    return np.max(np.linalg.norm(a - b, axis=-1) / np.linalg.norm(b, axis=-1))


@pytest.mark.parametrize("nu", [0.1, 0.01, 0.001])
def test_burgers_step_self_convergence(nu):
    # a 1000x tighter tolerance moves the solution by less than 10 rtol
    grid, rtol = Grid((512,)), 1e-8
    u0 = _grf_burgers_data()
    coarse, _ = pde.solve_burgers(u0, nu=nu, grid=grid, t_final=0.2, rtol=rtol)
    fine, _ = pde.solve_burgers(u0, nu=nu, grid=grid, t_final=0.2, rtol=rtol / 1000)
    assert _relative_l2(coarse, fine) < 10 * rtol


def test_burgers_batch_independent_within_tolerance():
    # the step sequence follows the whole batch, so a sample solved alone
    # takes other steps and agrees only to within the tolerance
    grid, rtol = Grid((512,)), 1e-8
    u0 = _grf_burgers_data(samples=3)
    batched, _ = pde.solve_burgers(u0, nu=0.01, grid=grid, t_final=0.2, rtol=rtol)
    for i in range(3):
        alone, _ = pde.solve_burgers(u0[i], nu=0.01, grid=grid, t_final=0.2, rtol=rtol)
        assert _relative_l2(alone, batched[i]) < 10 * rtol


@pytest.mark.parametrize("samples, n, nu, t_final, seed", [
    (1, 256, 0.1, 0.1, 0),       # a 1-D input: the squeezed path
    (2, 1024, 0.1, 1.0, 0),      # the benchmark's generation shape
    (5, 512, 0.01, 1.0, 3),      # a batch above 2 with a rejected attempt
    (2, 512, 0.1, 0.02827, 1),   # a last step clipped to land on t_final
], ids=["squeezed", "2x1024", "5x512-rejected", "clipped-last"])
def test_burgers_solve_matches_the_unstacked_reference_bitwise(samples, n, nu, t_final,
                                                                seed):
    grid = Grid((n,))
    u0 = pde.sample_grf(pde.GrfSpec(**pde.BURGERS_GRF), grid, seed=seed, n_samples=samples)
    u0 = u0[0] if samples == 1 else u0
    u, diag = pde.solve_burgers(u0, nu=nu, grid=grid, t_final=t_final)
    want_u, want = oracles.burgers_step_doubling_reference(np.atleast_2d(u0), nu, t_final)
    assert u.shape == u0.shape
    assert np.array_equal(np.atleast_2d(u), want_u)
    assert diag.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(diag[key], value), key
    if samples == 5:
        assert diag["rejected"] > 0
    if t_final == 0.02827:
        # the eighth step ends at t = 0.0282661 and the controller proposes
        # 5.9e-3, so the ninth is clipped to about 4e-6; every other step is
        # at least 1.2e-3
        assert diag["steps"] == 9 and diag["dt_min"] < 1e-5


def test_burgers_blowup_detected_with_named_step():
    grid = Grid((64,))
    x = np.arange(64) / 64
    u0 = 1e160 * np.sin(2 * np.pi * x)   # u*u overflows in the first flux
    with pytest.raises(NumericalFailure, match="step"):
        pde.solve_burgers(u0, nu=1e-6, grid=grid)


def test_burgers_step_below_floor_refused():
    grid = Grid((64,))
    x = np.arange(64) / 64
    with pytest.raises(NumericalFailure, match="fell below"):
        pde.solve_burgers(1e9 * np.sin(2 * np.pi * x), nu=1e-6, grid=grid)


def test_burgers_attempt_limit_refused(monkeypatch):
    # unbounded, this input needs about 6e7 steps, each above the dt floor
    monkeypatch.setattr(pde, "_MAX_ATTEMPTS", 50)
    grid = Grid((64,))
    x = np.arange(64) / 64
    with pytest.raises(NumericalFailure, match=r"50 attempts .*step \d+ \(t=.*N=64\)"):
        pde.solve_burgers(1e6 * np.sin(2 * np.pi * x), nu=1e-6, grid=grid)


@pytest.mark.parametrize("rtol", [0.0, -1e-8, 1e-16])
def test_burgers_rejects_roundoff_tolerance(rtol):
    with pytest.raises(DomainError):
        pde.solve_burgers(np.zeros(64), nu=0.1, grid=Grid((64,)), rtol=rtol)


def test_burgers_rejects_nonpositive_viscosity():
    with pytest.raises(DomainError):
        pde.solve_burgers(np.zeros(64), nu=0.0, grid=Grid((64,)))


@pytest.mark.parametrize("t_final", [0.0, -1.0])
def test_burgers_rejects_nonpositive_horizon(t_final):
    # no step is taken, so the solution would be the initial data itself
    with pytest.raises(DomainError, match="t_final"):
        pde.solve_burgers(np.zeros(64), nu=0.1, grid=Grid((64,)), t_final=t_final)


# ---- darcy ----------------------------------------------------------------------

def test_darcy_zero_forcing_zero_solution():
    u = pde.solve_darcy(np.ones((32, 32)), 0.0, Grid((32, 32)))
    assert np.all(u == 0)


def test_darcy_membrane_center_against_fine_oracle():
    n = 64
    u = pde.solve_darcy(np.ones((n, n)), 1.0, Grid((n, n)))
    center = u[n // 2, n // 2]
    assert abs(center - MEMBRANE_CENTER_512) / MEMBRANE_CENTER_512 < 1e-2


def test_darcy_maximum_principle_positivity():
    spec = pde.GrfSpec(**pde.DARCY_GRF)
    grid = Grid((64, 64))
    a = pde.make_darcy_coefficient(spec, grid, seed=11)[0]
    u = pde.solve_darcy(a, 1.0, grid)
    assert np.all(u > 0)


def test_darcy_residual_below_tolerance():
    spec = pde.GrfSpec(**pde.DARCY_GRF)
    grid = Grid((64, 64))
    a = pde.make_darcy_coefficient(spec, grid, seed=12)[0]
    u = pde.solve_darcy(a, 1.0, grid)
    assert pde.darcy_residual(a, 1.0, u, grid) < 1e-9


def test_darcy_rejects_nonpositive_coefficient():
    a = np.ones((16, 16))
    a[3, 3] = 0.0
    with pytest.raises(DomainError):
        pde.solve_darcy(a, 1.0, Grid((16, 16)))


def test_darcy_nonconvergence_reported():
    # a two-phase medium needs ~23 iterations; a constant one is solved in one
    grid = Grid((32, 32))
    a = pde.make_darcy_coefficient(pde.GrfSpec(**pde.DARCY_GRF), grid, seed=0)[0]
    with pytest.raises(NumericalFailure, match="iterations"):
        pde.solve_darcy(a, 1.0, grid, max_iter=2)


@pytest.mark.parametrize("n", [8, 16])
def test_sine_basis_orthonormal_and_diagonalises_laplacian(n):
    basis, eig = pde._dirichlet_sine_basis(n)
    assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-14)
    h = 1.0 / n
    matvec = pde._darcy_operator(np.ones((n, n)), (h, h))
    # dense operator, one column per unit vector
    dense = np.stack([matvec(e.reshape(n, n)).ravel() for e in np.eye(n * n)], axis=1)
    s2 = np.kron(basis, basis)
    expected = np.diag((eig[:, None] + eig[None, :]).ravel() / (h * h))
    assert np.allclose(s2 @ dense @ s2.T, expected, atol=1e-10 * expected.max())


@pytest.mark.parametrize("n", [2, 4, 64, 256])
def test_sine_parity_blocks_reproduce_the_dense_transform(n):
    basis, eig = pde._dirichlet_sine_basis(n)
    blocks, blocks_t, eig_split = pde._sine_parity_blocks(n)
    h = n // 2
    assert blocks.shape == blocks_t.shape == (2, h, h)
    assert not (blocks.flags.writeable or blocks_t.flags.writeable or eig_split.flags.writeable)
    x, y = np.random.default_rng(n).standard_normal((2, n, 3))
    # forward: fold the mirrored halves, coefficients come out even|odd
    top, bottom = x[:h], x[h:][::-1]
    coef = np.concatenate([blocks[0] @ (top + bottom), blocks[1] @ (top - bottom)])
    want = basis @ x
    order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
    assert np.allclose(coef, want[order], rtol=0, atol=1e-14 * np.abs(want).max())
    assert np.array_equal(eig_split, eig[order])
    # back: S^T of coefficients in even|odd order unfolds the two products
    even, odd = blocks_t[0] @ y[order][:h], blocks_t[1] @ y[order][h:]
    back = np.concatenate([even + odd, (even - odd)[::-1]])
    want = basis.T @ y
    assert np.allclose(back, want, rtol=0, atol=1e-14 * np.abs(want).max())


def _dense_preconditioner(grid, r):
    (s0, eig0), (s1, eig1) = (pde._dirichlet_sine_basis(n) for n in grid.extents)
    hx, hy = grid.spacing
    lam = eig0[:, None] / hx**2 + eig1[None, :] / hy**2
    return s0.T @ ((s0 @ r @ s1.T) / lam) @ s1


@pytest.mark.parametrize("extents", [(2, 2), (32, 32), (16, 64), (64, 4)])
def test_sine_preconditioner_matches_the_dense_products(extents):
    grid = Grid(extents)
    precondition = pde._sine_preconditioner(grid)
    for seed in range(3):
        r = np.random.default_rng(seed).standard_normal(extents)
        want = _dense_preconditioner(grid, r)
        got = precondition(r)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("extents", [(32, 32), (16, 64)])
def test_sine_preconditioner_is_symmetric(extents):
    # PCG needs <x, M^-1 y> = <M^-1 x, y>
    precondition = pde._sine_preconditioner(Grid(extents))
    x, y = np.random.default_rng(7).standard_normal((2,) + extents)
    lhs, rhs = np.sum(x * precondition(y)), np.sum(precondition(x) * y)
    scale = np.linalg.norm(x) * np.linalg.norm(precondition(y))
    assert abs(lhs - rhs) <= 1e-14 * scale


def test_darcy_transposed_grid_gives_transposed_solution():
    # each axis has its own spacing, so both grids describe the unit square
    grid = Grid((32, 16))
    a = pde.make_darcy_coefficient(pde.GrfSpec(**pde.DARCY_GRF), Grid((32, 32)), seed=2)[0]
    a = np.ascontiguousarray(a[:, ::2])
    u1 = pde.solve_darcy(a, 1.0, grid)
    u2 = pde.solve_darcy(a.T, 1.0, Grid((16, 32)))
    assert pde.darcy_residual(a, 1.0, u1, grid) < 1e-9
    assert np.max(np.abs(u1 - u2.T)) <= 1e-9 * np.max(np.abs(u1))


def test_darcy_constant_coefficient_one_iteration():
    grid = Grid((32, 32))
    u = pde.solve_darcy(np.full((32, 32), 4.0), 1.0, grid, max_iter=1)
    assert pde.darcy_residual(np.full((32, 32), 4.0), 1.0, u, grid) < 1e-10


def test_darcy_two_phase_iterations_grid_independent():
    # Jacobi-preconditioned CG needed more than 250 iterations here
    grid = Grid((64, 64))
    a = pde.make_darcy_coefficient(pde.GrfSpec(**pde.DARCY_GRF), grid, seed=4)[0]
    u = pde.solve_darcy(a, 1.0, grid, max_iter=40)
    assert pde.darcy_residual(a, 1.0, u, grid) < 1e-9


# ---- dataset container --------------------------------------------------------------

def tiny_dataset(samples=3, seed=0):
    grid = Grid((16,))
    rng = np.random.default_rng(seed)
    return dataio.Dataset(
        grid,
        rng.standard_normal((samples, 1, 16)),
        rng.standard_normal((samples, 2, 16)),
        {"task": "synthetic", "seed": seed},
    )


def test_dataset_roundtrip_bitwise(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "d.bin"
    dataio.dataset_write(ds, path)
    back = dataio.dataset_read(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)
    assert back.meta == ds.meta
    assert back.grid == ds.grid


def test_empty_dataset_roundtrip(tmp_path):
    grid = Grid((8, 8))
    ds = dataio.Dataset(grid, np.zeros((0, 1, 8, 8)), np.zeros((0, 1, 8, 8)), {"empty": True})
    path = tmp_path / "e.bin"
    dataio.dataset_write(ds, path)
    back = dataio.dataset_read(path)
    assert back.samples == 0 and back.grid == grid and back.meta == {"empty": True}


def test_truncated_file_structured_error(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "t.bin"
    dataio.dataset_write(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        dataio.dataset_read(path)


def test_wrong_magic_and_version_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTADATA" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        dataio.dataset_read(path)
    ds = tiny_dataset()
    good = tmp_path / "g.bin"
    dataio.dataset_write(ds, good)
    blob = bytearray(good.read_bytes())
    blob[6:8] = b"99"
    bad = tmp_path / "v.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="version"):
        dataio.dataset_read(bad)


def test_dataset_rejects_nonfinite():
    grid = Grid((8,))
    bad = np.ones((1, 1, 8))
    bad[0, 0, 3] = np.nan
    with pytest.raises(ContractError):
        dataio.Dataset(grid, bad, np.ones((1, 1, 8)))


def test_make_burgers_dataset_deterministic():
    a = dataio.make_burgers_dataset(3, nu=0.1, seed=7, resolution=64, generate_at=128,
                                    t_final=0.05)
    b = dataio.make_burgers_dataset(3, nu=0.1, seed=7, resolution=64, generate_at=128,
                                    t_final=0.05)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert a.inputs.shape == (3, 1, 64)
    solver = a.meta["solver"]
    assert set(solver) == {"rtol", "steps", "rejected", "dt_min", "dt_max",
                           "error_estimate_max", "mean_drift_max", "energy_nonincreasing"}
    assert solver == b.meta["solver"]
    assert solver["rtol"] == 1e-8 and solver["steps"] > 0
    assert 0 < solver["dt_min"] <= solver["dt_max"] <= 0.05
    assert solver["error_estimate_max"] <= solver["rtol"]


def test_make_burgers_dataset_empty():
    ds = dataio.make_burgers_dataset(0, nu=0.1, seed=0, resolution=32, generate_at=32)
    assert ds.samples == 0


def test_make_darcy_dataset_small_and_deterministic():
    a = dataio.make_darcy_dataset(2, seed=5, resolution=32, generate_at=64)
    b = dataio.make_darcy_dataset(2, seed=5, resolution=32, generate_at=64)
    assert np.array_equal(a.targets, b.targets)
    assert a.inputs.shape == (2, 1, 32, 32)
    assert np.all(a.targets > 0)


DATASET_BUILDERS = {
    "burgers": lambda samples, resolution: dataio.make_burgers_dataset(
        samples, nu=0.1, seed=0, resolution=resolution, generate_at=32),
    "darcy": lambda samples, resolution: dataio.make_darcy_dataset(
        samples, seed=0, resolution=resolution, generate_at=32),
}


@pytest.mark.parametrize("samples,resolution,error", [(-1, 16, ContractError),
                                                      (2, 0, UnsupportedSizeError)],
                         ids=["negative-samples", "resolution-zero"])
@pytest.mark.parametrize("task", list(DATASET_BUILDERS))
def test_dataset_builders_refuse_bad_sizes(task, samples, resolution, error):
    with pytest.raises(error):
        DATASET_BUILDERS[task](samples, resolution)
