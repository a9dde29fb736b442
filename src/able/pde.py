"""Desk-scale PDE data generation: random fields and reference solvers.

These generators are plain numpy (no tape) and use numpy's FFT: they only
produce training data, and every solver property the package relies on
(mean conservation, energy dissipation, residuals, determinism) is tested
directly against independent identities. The Burgers solver chooses each
time step from a step-doubling error estimate held to a relative
tolerance, so the step follows the data rather than a fixed cap. Each
attempt runs its full step and first half step as one RK4 stacked on a
leading axis, bitwise equal to running them apart (the test suite keeps
the unstacked loop as its reference). The Darcy
solver is conjugate gradients preconditioned with the exact sine-transform
inverse of the constant-coefficient Laplacian, so its iteration count does
not grow with the grid. Its stencil and preconditioner use each axis's own
spacing, and the preconditioner applies each sine transform split by the
parity of its rows, as two half-size products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError, NumericalFailure
from .frame import Grid

BURGERS_GRF = dict(dims=1, tau=5.0, alpha=2.0, scale=25.0)
DARCY_GRF = dict(dims=2, tau=3.0, alpha=2.0, scale=1.0, threshold_levels=(12.0, 3.0))


@dataclass
class GrfSpec:
    """Periodic Gaussian field with spectral covariance scale^2 (4 pi^2 |k|^2 + tau^2)^-alpha."""

    dims: int = 1
    tau: float = 5.0
    alpha: float = 2.0
    scale: float = 25.0
    threshold_levels: Optional[tuple] = None   # (high, low) split at zero

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ContractError("GRF dims must be 1 or 2")
        if self.tau <= 0:
            raise DomainError("tau must be positive")
        if self.alpha <= self.dims / 2:
            raise DomainError(
                f"alpha={self.alpha} <= dims/2={self.dims / 2}: covariance is not trace class")

    def spectral_std(self, grid: Grid) -> np.ndarray:
        """Per-mode standard deviations on the grid's integer wavenumbers."""
        ks = [np.fft.fftfreq(n) * n for n in grid.extents]
        mesh = np.meshgrid(*ks, indexing="ij")
        ksq = sum(k**2 for k in mesh)
        sigma = self.scale * (4 * np.pi**2 * ksq + self.tau**2) ** (-self.alpha / 2)
        sigma[(0,) * grid.dims] = 0.0  # zero-mean field
        return sigma

    def point_variance(self, grid: Grid) -> float:
        """Analytic variance of the field at any fixed point (spectral sum)."""
        return float(np.sum(self.spectral_std(grid) ** 2))


def sample_grf(spec: GrfSpec, grid: Grid, seed: int, n_samples: int = 1) -> np.ndarray:
    """(n_samples, *extents) real periodic fields, deterministic per seed."""
    if grid.dims != spec.dims:
        raise ContractError(f"grid dims {grid.dims} != spec dims {spec.dims}")
    rng = np.random.default_rng(seed)
    axes = tuple(range(1, 1 + grid.dims))
    white = rng.standard_normal((n_samples,) + grid.extents)
    sigma = spec.spectral_std(grid)
    spec_noise = sigma * np.fft.fftn(white, axes=axes)
    fields = np.sqrt(grid.points) * np.fft.ifftn(spec_noise, axes=axes).real
    return np.ascontiguousarray(fields)


def make_darcy_coefficient(spec: GrfSpec, grid: Grid, seed: int,
                           n_samples: int = 1) -> np.ndarray:
    """Two-phase piecewise-constant medium: GRF thresholded at zero."""
    if spec.threshold_levels is None:
        raise ContractError("threshold_levels must be set for a two-phase coefficient")
    high, low = spec.threshold_levels
    if high <= 0 or low <= 0:
        raise DomainError("both coefficient levels must be positive")
    psi = sample_grf(spec, grid, seed, n_samples)
    return np.where(psi >= 0, float(high), float(low))


# ---- 1-D viscous Burgers -----------------------------------------------------

_RTOL_MIN = 1e-13   # below this the step-doubling estimate measures FFT roundoff
_DT_MIN = 1e-10     # a step this small means the flow is not resolved on the grid
_MAX_ATTEMPTS = 100_000   # accepted plus rejected steps; ~1000x a resolved solve


def solve_burgers(u0: np.ndarray, nu: float, grid: Grid, t_final: float = 1.0,
                  rtol: float = 1e-8) -> tuple:
    """Pseudo-spectral solve of u_t + (u^2/2)_x = nu u_xx on the unit circle.

    Conservative flux form with 2/3 dealiasing and integrating-factor RK4 at
    a step chosen by step doubling: each attempt takes one full step and two
    half steps, and estimates the error of the half-step result as
    max over samples of ||half - full||_2 / ||half||_2 / 15. The half steps
    are accepted when the estimate is at most `rtol`; either way the next
    step is scaled by clip(0.9 (rtol/err)^(1/5), 0.2, 4), and the last step
    is clipped to land on `t_final`. The step sequence follows the whole
    batch, so a sample solved alone agrees with its batched solve only to
    within the tolerance.

    The full step and the first half step both start from the current
    state and its nonlinear term, so they run as one RK4 on a leading axis
    of the two step sizes, with the integrating factors of both computed
    once per attempt and the half step's reused by the second half step:
    eight evaluations of the nonlinear term per attempt instead of eleven.
    Every floating-point operation keeps its operands and order, and the
    FFT transforms each row on its own, so the result is bitwise that of
    three separate RK4 steps (`burgers_step_doubling_reference` in the
    test suite's oracles). Returns (u(t_final), diagnostics), where
    diagnostics carries the energy of every sample after every accepted
    step, the mean drift, and the step statistics.

    The k=0 mode is untouched by every term, so the spatial mean is
    conserved to roundoff by construction.
    """
    if nu <= 0:
        raise DomainError("viscosity must be positive")
    if not t_final > 0:
        raise DomainError(f"t_final must be positive, got {t_final}")
    if not rtol >= _RTOL_MIN:
        raise DomainError(f"rtol={rtol} must be at least {_RTOL_MIN}: a smaller "
                          "tolerance asks the error estimate to resolve roundoff")
    if grid.dims != 1:
        raise ContractError("burgers solver is 1-D")
    squeeze = u0.ndim == 1
    u = np.atleast_2d(np.asarray(u0, dtype=np.float64))
    n = grid.extents[0]
    if u.shape[1] != n:
        raise ContractError(f"initial data length {u.shape[1]} != grid extent {n}")

    # real-to-complex transforms: data is real, so half the spectrum suffices
    k = np.arange(n // 2 + 1, dtype=np.float64)
    flux_coef = -0.5j * 2.0 * np.pi * k * (k <= n / 3)
    lam = -nu * (2 * np.pi * k) ** 2
    # Parseval weights of the half spectrum: sq_norm(rfft(u)) == n * sum(u**2)
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0

    def sq_norm(v_hat):
        return np.sum(weight * (v_hat.real**2 + v_hat.imag**2), axis=1)

    def nonlinear(v_hat):
        v = np.fft.irfft(v_hat, n=n, axis=-1)
        np.multiply(v, v, out=v)
        w = np.fft.rfft(v, axis=-1)
        w *= flux_coef
        return w

    def rk4(v_hat, h, na, e_half, e_full):
        # h, e_half and e_full may carry a leading axis of steps, which
        # then runs one RK4 per step from the same v_hat and na
        e_v = e_full * v_hat
        half_h = 0.5 * h
        h_e = h * e_half
        nb = nonlinear(e_half * (v_hat + half_h * na))
        nc = nonlinear(e_half * v_hat + half_h * nb)
        nd = nonlinear(e_v + h_e * nc)
        return e_v + h / 6.0 * (e_full * na + 2 * e_half * (nb + nc) + nd)

    v_hat = np.fft.rfft(u, axis=1)
    mean0 = v_hat[:, 0].real.copy() / n
    # first guess at Courant number one; the controller corrects it
    dt = min(t_final, 1.0 / (n * max(float(np.max(np.abs(u))), 1e-12)))
    t, rejected, err_max, taken = 0.0, 0, 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        energies = [sq_norm(v_hat) / n**2]
        while t < t_final:
            last = t + dt >= t_final
            h = t_final - t if last else dt
            # the full step and the first half step as one stacked RK4
            hs = np.array([h, h / 2.0])[:, None, None]
            e_half = np.exp(lam * hs / 2.0)
            e_full = np.exp(lam * hs)
            full, mid = rk4(v_hat, hs, nonlinear(v_hat), e_half, e_full)
            half = rk4(mid, h / 2.0, nonlinear(mid), e_half[1], e_full[1])
            half_sq = sq_norm(half)
            ratio = sq_norm(half - full) / np.maximum(half_sq, np.finfo(float).tiny)
            err = float(np.sqrt(np.max(ratio))) / 15.0
            where = f"step {len(taken) + 1} (t={t:.6g}, dt={h:.3g}, nu={nu}, N={n})"
            if not (math.isfinite(err) and np.all(np.isfinite(half_sq))):
                raise NumericalFailure(f"burgers solve blew up at {where}")
            if err <= rtol:
                v_hat = half
                t = t_final if last else t + h
                taken.append(h)
                err_max = max(err_max, err)
                energies.append(half_sq / n**2)
            else:
                rejected += 1
            dt = h * (4.0 if err == 0 else min(4.0, max(0.2, 0.9 * (rtol / err) ** 0.2)))
            if dt < _DT_MIN and t < t_final:
                raise NumericalFailure(f"burgers step fell below {_DT_MIN} at {where}")
            if len(taken) + rejected >= _MAX_ATTEMPTS and t < t_final:
                raise NumericalFailure(f"burgers solve made {_MAX_ATTEMPTS} attempts "
                                       f"without reaching t_final={t_final} at {where}")

    u_final = np.fft.irfft(v_hat, n=n, axis=1)
    diagnostics = {
        "energies": np.stack(energies, axis=1),
        "mean_drift": np.abs(v_hat[:, 0].real / n - mean0),
        "rtol": rtol,
        "steps": len(taken),
        "rejected": rejected,
        "dt_min": min(taken, default=0.0),
        "dt_max": max(taken, default=0.0),
        "error_estimate_max": err_max,
    }
    return (u_final[0] if squeeze else u_final), diagnostics


# ---- 2-D Darcy flow -----------------------------------------------------------

def _darcy_operator(a: np.ndarray, spacing: tuple):
    """Harmonic-mean finite-volume stencil for -div(a grad u), zero Dirichlet,
    with the spacing pair (hx, hy) of axis 0 and axis 1."""
    hx, hy = spacing
    inv_hx2, inv_hy2 = 1.0 / (hx * hx), 1.0 / (hy * hy)
    tx = 2.0 * a[1:, :] * a[:-1, :] / (a[1:, :] + a[:-1, :]) * inv_hx2
    ty = 2.0 * a[:, 1:] * a[:, :-1] / (a[:, 1:] + a[:, :-1]) * inv_hy2
    diag = np.zeros_like(a)
    diag[1:, :] += tx
    diag[:-1, :] += tx
    diag[:, 1:] += ty
    diag[:, :-1] += ty
    diag[0, :] += 2.0 * a[0, :] * inv_hx2
    diag[-1, :] += 2.0 * a[-1, :] * inv_hx2
    diag[:, 0] += 2.0 * a[:, 0] * inv_hy2
    diag[:, -1] += 2.0 * a[:, -1] * inv_hy2

    def matvec(u):
        out = diag * u
        out[:-1, :] -= tx * u[1:, :]
        out[1:, :] -= tx * u[:-1, :]
        out[:, :-1] -= ty * u[:, 1:]
        out[:, 1:] -= ty * u[:, :-1]
        return out

    return matvec


@lru_cache(maxsize=None)
def _dirichlet_sine_basis(n: int) -> tuple:
    """Orthonormal DST-II matrix S and eigenvalues of the 1-D cell-centred Laplacian.

    S[k-1, i] = sqrt(2/n) sin(pi k (i + 1/2) / n) for k = 1..n, last row
    divided by sqrt(2); the rows diagonalise the unit-spacing stencil
    (-1, 2, -1) with a mirrored-odd ghost cell at each wall, with eigenvalues
    4 sin^2(pi k / 2n). The phase k (2i + 1) is reduced modulo 4n in
    integers first, so every sine is taken of an angle below 2 pi and each
    entry is accurate to a few ulps at any n. Both arrays are read-only
    because the cache shares them.
    """
    k = np.arange(1, n + 1)[:, None]
    i = np.arange(n)[None, :]
    basis = math.sqrt(2.0 / n) * np.sin(np.pi * ((k * (2 * i + 1)) % (4 * n)) / (2 * n))
    basis[-1] /= math.sqrt(2.0)
    eig = 4.0 * np.sin(np.pi * k[:, 0] / (2 * n)) ** 2
    basis.setflags(write=False)
    eig.setflags(write=False)
    return basis, eig


@lru_cache(maxsize=None)
def _sine_parity_blocks(n: int) -> tuple:
    """`_dirichlet_sine_basis(n)` split by parity, for an even n.

    Row j of S is symmetric under i -> n-1-i for even j and antisymmetric
    for odd j. With h = n/2, Se = S[0::2, :h], So = S[1::2, :h] and J the
    reversal, S r = [Se (r_top + J r_bot); So (r_top - J r_bot)] and
    S^T [ce; co] = [a + b; J (a - b)] with a = Se^T ce, b = So^T co: two
    (h, h) products per transform where S takes one (n, n). Returns the
    stack (Se, So), its blockwise transpose (Se^T, So^T), both (2, h, h),
    and the eigenvalues in the same even|odd order. All three are
    read-only because the cache shares them.
    """
    basis, eig = _dirichlet_sine_basis(n)
    h = n // 2
    blocks = np.stack([basis[0::2, :h], basis[1::2, :h]])
    blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
    eig_split = np.concatenate([eig[0::2], eig[1::2]])
    for array in (blocks, blocks_t, eig_split):
        array.setflags(write=False)
    return blocks, blocks_t, eig_split


def _sine_preconditioner(grid: Grid):
    """M^-1 r = S0^T ((S0 r S1^T) / lam) S1, the exact inverse of the
    unit-coefficient operator on `grid`, with lam = lam0 / hx^2 + lam1 / hy^2
    and S0, S1 the DST-II of each axis, applied through the parity blocks of
    `_sine_parity_blocks` at half the flops of the four dense products.

    Each axis runs as one batched matmul over its two parity blocks. The
    coefficients stay in even|odd order along both axes, laid out (parity
    along axis 1, n0, n1/2) after the axis-1 transform, with lam permuted to
    match. The folds and products write into buffers, and views of them,
    made once when the preconditioner is built; only the result is a fresh
    array.
    """
    (n0, n1), (hx, hy) = grid.extents, grid.spacing
    h0, h1 = n0 // 2, n1 // 2
    b0, b0t, eig0 = _sine_parity_blocks(n0)
    b1, b1t, eig1 = _sine_parity_blocks(n1)
    inv_eig = 1.0 / (eig0[:, None] / (hx * hx) + eig1[None, :] / (hy * hy))
    inv_eig = np.ascontiguousarray(inv_eig.reshape(n0, 2, h1).transpose(1, 0, 2))
    fold0, coef0, back0 = (np.empty((2, h0, n1)) for _ in range(3))
    fold1, coef1, back1 = (np.empty((2, n0, h1)) for _ in range(3))
    unfold1 = np.empty((n0, n1))
    c = coef0.reshape(n0, n1)
    c_left, c_right = c[:, :h1], c[:, h1:][:, ::-1]
    u_left, u_right = unfold1[:, :h1], unfold1[:, h1:][:, ::-1]
    unfold1_blocks = unfold1.reshape(2, h0, n1)

    def precondition(r):
        # axis 0: fold the mirrored halves, then one product per parity
        top, bottom = r[:h0], r[h0:][::-1]
        np.add(top, bottom, out=fold0[0])
        np.subtract(top, bottom, out=fold0[1])
        np.matmul(b0, fold0, out=coef0)
        # axis 1, from the right
        np.add(c_left, c_right, out=fold1[0])
        np.subtract(c_left, c_right, out=fold1[1])
        np.matmul(fold1, b1t, out=coef1)
        np.multiply(coef1, inv_eig, out=coef1)
        # back along axis 1, then axis 0, unfolding each pair of halves
        np.matmul(coef1, b1, out=back1)
        np.add(back1[0], back1[1], out=u_left)
        np.subtract(back1[0], back1[1], out=u_right)
        np.matmul(b0t, unfold1_blocks, out=back0)
        z = np.empty((n0, n1))
        np.add(back0[0], back0[1], out=z[:h0])
        np.subtract(back0[0], back0[1], out=z[h0:][::-1])
        return z

    return precondition


def solve_darcy(a: np.ndarray, f, grid: Grid, rtol: float = 1e-10,
                max_iter: int = 50_000) -> np.ndarray:
    """Solve -div(a grad u) = f with zero Dirichlet walls by preconditioned CG.

    Cell-centered finite volumes with harmonic-mean face coefficients give a
    symmetric positive-definite system; each axis uses its own spacing
    `grid.spacing`, so the domain is the unit square on any grid. The
    preconditioner is the exact inverse of the unit-coefficient operator,
    applied in the 2-D sine basis that diagonalises it: a DST-II forward and
    back on each axis, each split by parity into two half-size products
    (`_sine_preconditioner`). CG is invariant to its scale, so the iteration
    count depends on the coefficient contrast, not on the grid. Iterates to
    a relative residual of `rtol`.
    """
    if grid.dims != 2:
        raise ContractError("darcy solver is 2-D")
    a = np.asarray(a, dtype=np.float64)
    if a.shape != grid.extents:
        raise ContractError(f"coefficient shape {a.shape} != grid extents {grid.extents}")
    if np.any(a <= 0):
        raise DomainError("coefficient must be strictly positive")
    rhs = np.broadcast_to(np.asarray(f, dtype=np.float64), a.shape).copy()
    matvec = _darcy_operator(a, grid.spacing)
    precondition = _sine_preconditioner(grid)

    u = np.zeros_like(rhs)
    r = rhs - matvec(u)
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0:
        return u
    z = precondition(r)
    p = z.copy()
    rz = float(np.dot(r.ravel(), z.ravel()))
    for it in range(max_iter):
        ap = matvec(p)
        alpha = rz / float(np.dot(p.ravel(), ap.ravel()))
        u += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rtol * b_norm:
            return u
        z = precondition(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NumericalFailure(
        f"darcy CG did not reach rtol={rtol} in {max_iter} iterations "
        f"(residual {np.linalg.norm(r) / b_norm:.2e})")


def darcy_residual(a: np.ndarray, f, u: np.ndarray, grid: Grid) -> float:
    """Relative residual ||A u - f|| / ||f|| of a candidate solution."""
    matvec = _darcy_operator(np.asarray(a, dtype=np.float64), grid.spacing)
    rhs = np.broadcast_to(np.asarray(f, dtype=np.float64), a.shape)
    return float(np.linalg.norm(matvec(u) - rhs) / np.linalg.norm(rhs))
