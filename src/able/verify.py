"""Executable verification harness: frame properties, rate studies, scaling.

The identity catalogue writes each identity of the paper once, as a
function that returns a residual and leaves the bound to its caller:
`isometry_residual` and `roundtrip_residual` (the tight frame),
`fno_residual` (one slice reduces to the Fourier layer),
`identity_residual` (the identity multiplier resolves the identity),
`dense_kernel_residual` (the spectral path equals its dense kernel),
`high_temperature_residual` and `constant_density_residual` (the layer
collapses to Fourier layers with averaged or p-weighted weights), and
`kernel_diagonal_spread` (circulance and its witness). `able verify`
(`run_level` over the `LEVELS` table) records each residual against a
fixed tolerance; the acceptance criteria and the unit tests call the same
functions on their own cases and bounds.

Rate studies reproduce the provable approximation laws
for bounded-variation targets: Fourier truncation of a step decays like
K^(-1/2), a zero-mode partition approximant of a sawtooth like 1/M, and
the windowed-truncation combination like (KM)^(-1/2). Slopes are fitted
on log-log points with a bootstrap confidence interval; `RATE_STUDIES`
names each study once for `able rate-study` and the scripts.

`entropy_vs_temperature_at_fixed_weights` reads the density entropy of a
built network across a temperature ladder; `able sweep` reports it per
trained row. `complexity_scaling_check` times layer forwards for the
slice-count and grid-size scaling laws.

The `inject` hooks corrupt the harness's own data path (never the library)
so the suite can prove it actually detects failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from . import fft as _fft
from . import tensor as T
from . import reference
from .errors import ContractError, DomainError
from .frame import (Grid, LiftedCoefficients, able_forward, able_inverse, density_entropy,
                    density_from_energies, uniform_density)
from .operator import AbleLayer, ModelConfig, kernel_diagonals, materialize_kernel


# ---- report structures ---------------------------------------------------------

@dataclass
class PropertyCheck:
    name: str
    claim: str                 # what property is being certified, in words
    residual: float
    tolerance: float
    direction: str = "at_most"  # at_most: residual <= tol; at_least: residual >= tol
    skipped: bool = False

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        if self.direction == "at_most":
            return self.residual <= self.tolerance
        return self.residual >= self.tolerance


@dataclass
class PropertyReport:
    checks: list = field(default_factory=list)

    def add(self, **kw) -> PropertyCheck:
        check = PropertyCheck(**kw)
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [dict(asdict(c), passed=c.passed) for c in self.checks],
        }

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.skipped:
                status = "SKIP"
            else:
                status = "PASS" if c.passed else "FAIL"
            op = "<=" if c.direction == "at_most" else ">="
            lines.append(f"[{status}] {c.name}: {c.residual:.3e} {op} {c.tolerance:.1e}"
                         f"  ({c.claim})")
        lines.append(f"{'ALL CHECKS PASSED' if self.passed else 'FAILURES PRESENT'}"
                     f" ({len(self.checks)} checks)")
        return "\n".join(lines)


@dataclass
class RateStudyResult:
    x_values: list
    errors: list
    fitted_slope: float
    slope_ci: tuple
    extras: dict = field(default_factory=dict)

    @classmethod
    def fit(cls, x_values, errors, seed: int = 0, **extras) -> "RateStudyResult":
        """A study's points with their log-log slope and its bootstrap interval."""
        return cls(list(x_values), errors, fit_loglog_slope(x_values, errors),
                   bootstrap_slope_ci(x_values, errors, seed=seed), extras)

    def to_dict(self) -> dict:
        return asdict(self)


def _require_distinct(name: str, values) -> None:
    """A slope needs at least two distinct x values."""
    if len(set(np.asarray(values, float).tolist())) < 2:
        raise ContractError(f"{name} needs at least two distinct values, got {list(values)}")


def fit_loglog_slope(x, y) -> float:
    _require_distinct("a slope fit", x)
    y = np.asarray(y, float)
    if np.any(y <= 0):
        return float("nan")
    lx, ly = np.log(np.asarray(x, float)), np.log(y)
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def bootstrap_slope_ci(x, y, n_boot: int = 200, seed: int = 0, level: float = 0.95) -> tuple:
    _require_distinct("a slope fit", x)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if np.any(y <= 0):
        return float("nan"), float("nan")
    rng = np.random.default_rng(seed)
    slopes = []
    while len(slopes) < n_boot:
        idx = rng.integers(0, len(x), size=len(x))
        if len(np.unique(x[idx])) < 2:
            continue
        slopes.append(fit_loglog_slope(x[idx], y[idx]))
    lo, hi = np.quantile(slopes, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(lo), float(hi)


# ---- identity catalogue ------------------------------------------------------------

def isometry_residual(f: np.ndarray, coeff: np.ndarray) -> float:
    """Relative gap between the squared norms of f and of its lifted coefficients."""
    norm_in = np.sum(np.abs(f) ** 2)
    return float(abs(np.sum(np.abs(coeff) ** 2) - norm_in) / norm_in)


def roundtrip_residual(f: np.ndarray, coeff: np.ndarray, p: np.ndarray) -> float:
    """Max-norm error of synthesizing f back from its lifted coefficients."""
    back = able_inverse(LiftedCoefficients(T.Tensor(coeff)), p).data
    return float(np.max(np.abs(back - f)) / np.max(np.abs(f)))


def _fno_branch(layer: AbleLayer, f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """`reference.fno_layer` with the layer's pointwise path and these spectral weights."""
    return reference.fno_layer(f, weights, layer.pointwise.data, layer.bias.data,
                               layer.multiplier.k_max)


def _rel_max(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def fno_residual(layer: AbleLayer, f: np.ndarray) -> float:
    """Max abs gap between a single-slice layer and the plain Fourier layer."""
    w = layer.multiplier.weights.data
    want = _fno_branch(layer, f, w[(Ellipsis,) + (0,) * (w.ndim - 2 - layer.config.ndim)])
    return float(np.max(np.abs(layer(T.Tensor(f)).data - want)))


def dense_kernel_residual(layer: AbleLayer, f: np.ndarray) -> float:
    """Relative gap between the layer and its dense kernel plus pointwise path."""
    flat = f.reshape(f.shape[:2] + (-1,)).astype(np.complex128)
    dense = np.einsum("boixz,biz->box", materialize_kernel(layer, T.Tensor(f)), flat)
    dense = dense.real.reshape((f.shape[0], -1) + f.shape[2:])
    sp = "xy"[:layer.config.ndim]
    local = np.einsum(f"bi{sp},io->bo{sp}", f, layer.pointwise.data)
    want = dense + local + layer.bias.data.reshape((1, -1) + (1,) * layer.config.ndim)
    return _rel_max(layer(T.Tensor(f)).data, want)


def identity_residual(layer: AbleLayer, f: np.ndarray) -> float:
    """Max abs gap between f and a diagonal layer's spectral path with the
    identity multiplier on the full spectrum, for any density (resolution of
    identity). Needs k_max = N/2; sets the spectral weights to the identity
    and zeroes the pointwise path in place."""
    w = spectral_only(layer).multiplier.weights.data
    w[...] = np.eye(layer.config.width).reshape(w.shape[:2] + (1,) * (w.ndim - 2))
    return float(np.max(np.abs(layer(T.Tensor(f)).data - f)))


def high_temperature_residual(layer: AbleLayer, f: np.ndarray) -> float:
    """Relative gap between a huge-temperature diagonal layer and its mean Fourier branch."""
    w = layer.multiplier.weights.data
    m = layer.config.slices
    want = sum(_fno_branch(layer, f, w[..., mi]) for mi in range(m)) / m
    return _rel_max(layer(T.Tensor(f)).data, want)


def constant_density_residual(layer: AbleLayer, f: np.ndarray, p: Sequence[float]) -> float:
    """Relative gap between the layer at the constant density p and the Fourier
    layer with weights sum_m p_m R_m (diagonal) or sum sqrt(p_m p_m') R_mm' (cross).

    Sets the density head's last weights to 0 and its biases to T log p in place.
    """
    p = np.asarray(p, dtype=np.float64)
    head = layer.density_net
    head.weights[-1].data[...] = 0.0
    head.biases[-1].data[...] = np.tile(head.temperature * np.log(p), head.heads)
    w = layer.multiplier.weights.data
    reduced = (w @ np.sqrt(p)) @ np.sqrt(p) if layer.config.kind == "cross" else w @ p
    return _rel_max(layer(T.Tensor(f)).data, _fno_branch(layer, f, reduced))


def kernel_diagonal_spread(layer: AbleLayer, f: np.ndarray) -> tuple:
    """(circulance, witness) of a one-channel layer's dense kernel on f: the
    largest change along a displacement diagonal (0 for a translation-invariant
    kernel) and the largest spread of moduli along one."""
    diags = kernel_diagonals(materialize_kernel(layer, T.Tensor(f))[0, 0, 0], f.shape[2:])
    return (float(np.abs(diags - diags[:, :1]).max()),
            float((np.abs(diags).max(axis=1) - np.abs(diags).min(axis=1)).max()))


def spectral_only(layer: AbleLayer) -> AbleLayer:
    """The layer with its pointwise path zeroed, so a residual sees the spectral path alone."""
    layer.pointwise.data[...] = 0.0
    layer.bias.data[...] = 0.0
    return layer


# ---- frame / operator property matrix ----------------------------------------------

LEVELS = {  # level: seeds, grid extents, slice counts, whether the rate laws run
    "quick": ((0,), ((8,), (32,), (8, 8)), (1, 2, 4), False),
    "full": ((0, 1), ((8,), (32,), (64,), (8, 8), (16, 16)), (1, 2, 4, 8), True),
}


def run_level(level: str, inject: Optional[str] = None) -> PropertyReport:
    """`able verify --level <level>`: the level's property matrix, then the
    rate-law checks where the level has them and no fault is injected."""
    seeds, extents_list, slices_list, rates = LEVELS[level]
    report = run_frame_properties(seeds, extents_list, slices_list, inject)
    if rates and inject is None:
        rate_checks(report)
    return report


def _random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _slice_major(energies: np.ndarray) -> np.ndarray:
    """Shared-density energies drawn point-major, (batch, spatial..., M), as
    the slice-major (batch, 1, M, spatial...) the frame takes."""
    return np.moveaxis(energies, -1, 1)[:, None]


def run_frame_properties(seeds: Sequence[int], extents_list: Sequence[tuple],
                         slices_list: Sequence[int],
                         inject: Optional[str] = None) -> PropertyReport:
    """Transform and layer identities over the (grid, slices, seed) matrix.

    inject: None, or one of "fft-normalization" (harness applies a wrongly
    scaled transform) and "density-normalization" (harness corrupts the
    density rows); used as a negative control of the harness itself.
    """
    report = PropertyReport()
    for extents in extents_list:
        grid = Grid(tuple(extents))
        for m in slices_list:
            for seed in seeds:
                rng = np.random.default_rng(1000 * seed + 10 * m + grid.points)
                tag = f"N={'x'.join(map(str, extents))},M={m},seed={seed}"
                f = T.Tensor(_random_complex((1, 1) + grid.extents, rng))
                energies = _slice_major(rng.standard_normal((1,) + grid.extents + (m,)) * 2)
                p = density_from_energies(energies, 0.8)
                if inject == "density-normalization":
                    p = p * 0.9

                norm_res = float(np.max(np.abs(p.sum(axis=2) - 1.0)))
                norm_ok = report.add(
                    name=f"density_normalization[{tag}]",
                    claim="density rows sum to one at every grid point",
                    residual=norm_res, tolerance=1e-10).passed
                if not norm_ok:
                    for dep in ("isometry", "roundtrip"):
                        report.add(name=f"{dep}[{tag}]",
                                   claim="skipped: density precondition failed",
                                   residual=float("nan"), tolerance=0.0, skipped=True)
                    continue

                coeff = able_forward(f, p).values.data
                if inject == "fft-normalization":
                    coeff = coeff * np.sqrt(2.0)
                report.add(
                    name=f"isometry[{tag}]",
                    claim="analysis preserves the squared grid norm",
                    residual=isometry_residual(f.data, coeff), tolerance=1e-10)
                report.add(
                    name=f"roundtrip[{tag}]",
                    claim="synthesis after analysis is the identity",
                    residual=roundtrip_residual(f.data, coeff, p), tolerance=1e-9)

                if m == 1:
                    plain = _fft.fft_unitary(f.data, axes=tuple(range(2, 2 + grid.dims)))
                    uni = uniform_density(grid)
                    red = np.max(np.abs(able_forward(f, uni).values.data[:, :, 0] - plain))
                    report.add(
                        name=f"fourier_reduction[{tag}]",
                        claim="single-slice transform bit-matches the plain FFT",
                        residual=float(red), tolerance=1e-14)

    _temperature_checks(report)
    _layer_checks(report)
    return report


def _temperature_checks(report: PropertyReport) -> None:
    rng = np.random.default_rng(77)
    energies = _slice_major(rng.standard_normal((1, 32, 4)) * 2)
    low = density_from_energies(energies, 1e-6)
    report.add(
        name="low_temperature_one_hot",
        claim="at vanishing temperature every density row is one-hot",
        residual=float(1.0 - low.max(axis=2).min()), tolerance=1e-6)
    spread = np.broadcast_to(np.array([3.0, 1.0, -2.0])[:, None], (1, 1, 3, 32))
    high = density_from_energies(spread, 1e6)
    report.add(
        name="high_temperature_uniform",
        claim="at huge temperature the density is uniform over slices",
        residual=float(np.max(np.abs(high - 1.0 / 3.0))), tolerance=1e-6)
    entropies = [density_entropy(density_from_energies(energies, t))
                 for t in (0.01, 0.1, 1.0, 10.0, 100.0)]
    worst_drop = max(0.0, max(a - b for a, b in zip(entropies, entropies[1:])))
    report.add(
        name="entropy_monotone_in_temperature",
        claim="density entropy is nondecreasing in temperature",
        residual=worst_drop, tolerance=1e-12)


def make_layer(kind: str, m: int, seed: int, temperature: float = 0.8,
               channels: int = 2, k_max: int = 3) -> AbleLayer:
    """A 1-D layer with an mlp2 density head and no activation, drawn from seed."""
    config = ModelConfig(width=channels, k_max=k_max, slices=m, kind=kind,
                         temperature=temperature, density_arch="mlp2", density_hidden=8)
    return AbleLayer(config, None, rng=np.random.default_rng(seed))


def _layer_checks(report: PropertyReport) -> None:
    rng = np.random.default_rng(5)

    layer = make_layer("diagonal", 1, seed=11)
    report.add(name="fourier_layer_equivalence",
               claim="single-slice layer equals an independently coded Fourier layer",
               residual=fno_residual(layer, rng.standard_normal((1, 2, 16))),
               tolerance=1e-12)

    for kind in ("diagonal", "cross"):
        for m in (1, 2):
            layer = spectral_only(make_layer(kind, m, seed=20 + m))
            report.add(name=f"dense_kernel_equivalence[{kind},M={m}]",
                       claim="spectral path equals the materialized dense kernel",
                       residual=dense_kernel_residual(layer, rng.standard_normal((1, 2, 16))),
                       tolerance=1e-8)

    layer = make_layer("diagonal", 3, seed=31, k_max=8)
    report.add(name="resolution_of_identity",
               claim="full-spectrum identity multiplier acts as the identity operator",
               residual=identity_residual(layer, rng.standard_normal((1, 2, 16))),
               tolerance=1e-10)

    layer = spectral_only(make_layer("diagonal", 3, seed=41, temperature=1e6))
    report.add(name="high_temperature_multihead_collapse",
               claim="at huge temperature the layer averages independent Fourier branches",
               residual=high_temperature_residual(layer, rng.standard_normal((1, 2, 16))),
               tolerance=1e-6)

    layer = spectral_only(make_layer("diagonal", 1, seed=51, channels=1))
    circulance, _ = kernel_diagonal_spread(layer, rng.standard_normal((1, 1, 16)))
    report.add(name="translation_invariance_single_slice",
               claim="single-slice kernels are circulant (every diagonal constant)",
               residual=circulance, tolerance=1e-12)

    layer = spectral_only(make_layer("diagonal", 2, seed=52, channels=1, temperature=0.3))
    f = (3.0 * np.sin(2 * np.pi * np.arange(16) / 16)).reshape(1, 1, 16)
    _, witness = kernel_diagonal_spread(layer, f)
    report.add(name="translation_invariance_broken_with_adaptive_density",
               claim="a nonuniform density produces a non-circulant kernel (witness spread)",
               residual=witness, tolerance=1e-3, direction="at_least")

    for kind, seed in (("diagonal", 61), ("cross", 62)):
        layer = make_layer(kind, 3, seed=seed)
        res = constant_density_residual(layer, rng.standard_normal((1, 2, 16)), (0.5, 0.3, 0.2))
        report.add(name=f"constant_density_reduction[{kind},M=3]",
                   claim="a constant density reduces the layer to a Fourier layer "
                         "with p-weighted spectral weights",
                   residual=res, tolerance=1e-12)


# ---- rate studies --------------------------------------------------------------------

def step_coefficients_closed_form(n: int) -> np.ndarray:
    """Exact unitary DFT of the half-interval indicator by geometric summation."""
    k = np.arange(1, n)
    ratio = np.exp(-2j * np.pi * k / n)
    numerator = np.exp(-1j * np.pi * k) * (1.0 - np.exp(-1j * np.pi * k))
    out = np.empty(n, dtype=np.complex128)
    out[0] = (n // 2) / np.sqrt(n)
    out[1:] = numerator / (1.0 - ratio) / np.sqrt(n)
    return out


def continuum_step_coefficients(k: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the ideal (continuum) half-interval indicator."""
    k = np.asarray(k, dtype=np.float64)
    out = np.zeros(k.shape, dtype=np.complex128)
    nonzero = k != 0
    out[nonzero] = (1.0 - (-1.0) ** k[nonzero]) / (-2j * np.pi * k[nonzero])
    out[~nonzero] = 0.5
    return out


def fourier_step_truncation_study(k_list: Sequence[int] = (8, 16, 32, 64, 128, 256, 512),
                                  n: int = 2**14, seed: int = 0) -> RateStudyResult:
    """L2 error of K-mode truncation of the step; expected slope -1/2."""
    u = np.zeros(n)
    u[n // 2:] = 1.0
    coeff = _fft.fft_unitary(u.astype(np.complex128), axes=(0,))
    closed = step_coefficients_closed_form(n)
    closed_residual = float(np.max(np.abs(coeff - closed)))

    wavenumber = np.fft.fftfreq(n) * n
    k_small = np.arange(1, 64)
    cont = continuum_step_coefficients(k_small)
    sampling_err = np.max(np.abs(coeff[1:64] / np.sqrt(n) - cont))

    errors = []
    for kk in k_list:
        mask = np.abs(wavenumber) > kk
        errors.append(float(np.sqrt(np.sum(np.abs(coeff[mask]) ** 2) / n)))
    return RateStudyResult.fit(k_list, errors, seed,
                               closed_form_max_abs_residual=closed_residual,
                               continuum_formula_max_abs_residual=float(sampling_err),
                               expected_slope=-0.5)


def equal_variation_partition(u: np.ndarray, m: int) -> np.ndarray:
    """Cell labels splitting [0,1) so each interval carries equal variation."""
    jumps = np.abs(np.diff(u))
    total = jumps.sum()
    if total == 0:
        raise DomainError("target has zero total variation; partition study is degenerate")
    cum = np.concatenate([[0.0], np.cumsum(jumps)])
    labels = np.minimum((cum / total * m).astype(int), m - 1)
    return labels


def piecewise_mean(u: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    out = np.empty_like(u)
    for c in range(m):
        mask = labels == c
        if mask.any():
            out[mask] = u[mask].mean()
    return out


def _grid_l2(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


def sawtooth(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def able_partition_approximation_study(m_list: Sequence[int] = (2, 4, 8, 16, 32, 64),
                                       n: int = 2**14, seed: int = 0) -> RateStudyResult:
    """Zero-mode partition approximant error of a sawtooth; expected slope -1."""
    u = sawtooth(n)
    errors = []
    for m in m_list:
        labels = equal_variation_partition(u, m)
        errors.append(_grid_l2(u - piecewise_mean(u, labels, m)))
    result = RateStudyResult.fit(m_list, errors, seed, expected_slope=-1.0)
    closed_form = [1.0 / (math.sqrt(12.0) * m) for m in m_list]
    result.extras["closed_form_errors"] = closed_form
    result.extras["closed_form_max_rel_dev"] = float(max(
        abs(e - c) / c for e, c in zip(errors, closed_form)))
    return result


def joint_truncation_partition_study(k_list: Sequence[int] = (2, 4, 8, 16),
                                     m_list: Sequence[int] = (2, 4, 8),
                                     n: int = 2**13, seed: int = 0) -> RateStudyResult:
    """Windowed K-mode truncation on an M-cell partition; slope vs K*M near -1/2.

    Each window is centered on its cell mean before truncation, so its edge
    jumps scale with the within-cell variation (order 1/M) and the combined
    error follows the (K*M)^(-1/2) law.
    """
    u = sawtooth(n)
    wavenumber = np.fft.fftfreq(n) * n
    xs, errors = [], []
    for m in m_list:
        labels = equal_variation_partition(u, m)
        means = piecewise_mean(u, labels, m)
        for kk in k_list:
            keep = np.abs(wavenumber) <= kk
            approx = means.copy()
            for c in range(m):
                mask = labels == c
                windowed = np.where(mask, u - means, 0.0).astype(np.complex128)
                coeff = np.fft.fft(windowed) * keep
                approx[mask] += np.fft.ifft(coeff).real[mask]
            xs.append(kk * m)
            errors.append(_grid_l2(u - approx))
    return RateStudyResult.fit(xs, errors, seed, expected_slope=-0.5)


def radial_step_partition_study_2d(m_list: Sequence[int] = (4, 16, 64),
                                   n: int = 256) -> RateStudyResult:
    """Optional 2-D study: disk indicator approximated on jump-adapted annuli.

    The annulus band containing the jump circle shrinks like 1/M, so the
    piecewise-mean error decays like M^(-1/2); interior edges are offset by
    half a band so the circle never coincides with a partition boundary.
    """
    ax = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    r = np.hypot(xx - 0.5, yy - 0.5)
    u = (r < 0.3).astype(np.float64)
    width = 0.08
    errors = []
    for m in m_list:
        bands = max(m - 2, 1)
        interior = np.linspace(0.3 - width, 0.3 + width, bands + 1)
        interior = interior + width / (bands + 1)
        edges = np.concatenate([[0.0], interior, [np.sqrt(0.5) + 1e-9]])
        labels = np.digitize(r, edges) - 1
        approx = piecewise_mean(u.ravel(), labels.ravel(), len(edges) - 1).reshape(u.shape)
        errors.append(_grid_l2(u - approx))
    return RateStudyResult.fit(m_list, errors, expected_slope_upper_bound=-0.5)


RATE_STUDIES = {
    "step": fourier_step_truncation_study,
    "partition": able_partition_approximation_study,
    "joint": joint_truncation_partition_study,
    "radial2d": radial_step_partition_study_2d,
}


def rate_checks(report: PropertyReport) -> None:
    """The rate-law checks of `able verify --level full`: closed forms and
    fitted slopes of the step, partition and joint studies."""
    step = fourier_step_truncation_study()
    part = able_partition_approximation_study()
    joint = joint_truncation_partition_study()
    for name, claim, residual, tolerance in (
            ("step_truncation_closed_form",
             "FFT of the step matches the exact closed-form coefficients",
             step.extras["closed_form_max_abs_residual"], 1e-8),
            ("step_truncation_slope", "truncation error of the step decays like K^-1/2",
             abs(step.fitted_slope + 0.5), 0.05),
            ("partition_closed_form", "sawtooth partition error matches 1/(sqrt(12) M)",
             part.extras["closed_form_max_rel_dev"], 1e-3),
            ("partition_slope", "zero-mode partition error decays like 1/M",
             abs(part.fitted_slope + 1.0), 0.02),
            ("joint_truncation_partition_slope",
             "windowed truncation error decays like (K M)^-1/2",
             abs(joint.fitted_slope + 0.5), 0.1)):
        report.add(name=name, claim=claim, residual=residual, tolerance=tolerance)


# ---- density entropy at fixed weights ---------------------------------------------------

def entropy_vs_temperature_at_fixed_weights(net, probe: np.ndarray,
                                            t_list: Sequence[float]) -> list:
    """Mean density entropy of the first adaptive layer across a T ladder.

    The layer sees the lifted probe, as in the network's forward; a network
    without an adaptive layer (M = 1) reads entropy 0 at every T.
    """
    layer = next((l for l in net.layers if l.density_net is not None), None)
    if layer is None:
        return [0.0] * len(t_list)
    with T.no_grad():
        energies = layer.density_net.energies(net.lift_input(T.Tensor(probe))).data
    return [density_entropy(density_from_energies(energies, t)) for t in t_list]


# ---- complexity scaling ---------------------------------------------------------------

def _interleaved_best_times(fns: Sequence[Callable[[], None]], repeats: int,
                            min_time: float = 1e-3) -> list:
    """Per-subject best-of wall times, sampled round-robin.

    Interleaving shares transient machine load across subjects, and the
    minimum is the standard contention-robust statistic. Repeats double
    until the fastest subject clears the timer-resolution floor.
    """
    for fn in fns:
        fn()  # warm-up, excluded
    while True:
        times = [[] for _ in fns]
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                fn()
                times[i].append(time.perf_counter() - t0)
        best = [float(min(ts)) for ts in times]
        if min(best) >= min_time or repeats >= 64:
            return best
        repeats *= 2


def complexity_scaling_check(m_list: Sequence[int] = (1, 2, 4, 8),
                             n_list: Sequence[int] = (1024, 4096, 16384),
                             channels: int = 4, k_max: int = 8,
                             repeats: int = 9, seed: int = 0) -> dict:
    """Measured layer-forward scaling in slice count and grid size.

    Each time is the best of round-robin wall times of one no-grad layer
    forward. The M slope fits log time against log M at the first grid
    size, all M timed in one round-robin; every forward also pays a fixed
    per-call Python cost, so the slope measures how the whole forward
    grows with M, not the FFT arithmetic alone. The ratio sets the M=1
    layer against the plain-numpy Fourier layer on the same input, from a
    separate head-to-head round-robin of just those two, which also gives
    `m1_time` and `fno_time`. Each list needs two distinct values
    for a slope to be fitted.
    """
    _require_distinct("m_list", m_list)
    _require_distinct("n_list", n_list)
    timing_n = n_list[0]
    # Grid refuses an extent that is not a power of two >= 2 before any data
    f_by_n = {n: np.random.default_rng(seed).standard_normal((1, channels) + Grid((n,)).extents)
              for n in n_list}

    subjects = []
    for m in m_list:
        layer = make_layer("diagonal", m, seed=seed + m, channels=channels, k_max=k_max)
        x = T.Tensor(f_by_n[timing_n])
        subjects.append((layer, x))
    fno_layer = make_layer("diagonal", 1, seed=seed + 1, channels=channels, k_max=k_max)
    w = fno_layer.multiplier.weights.data[..., 0]
    pw, b = fno_layer.pointwise.data, fno_layer.bias.data
    x_np = f_by_n[timing_n]

    with T.no_grad():
        fns = [(lambda layer=layer, x=x: layer(x)) for layer, x in subjects]
        m_times = _interleaved_best_times(fns, repeats)
        # head-to-head pair measured alone so both see the same cache state
        m1_layer, m1_x = subjects[0]
        pair = _interleaved_best_times(
            [lambda: m1_layer(m1_x),
             lambda: reference.fno_layer(x_np, w, pw, b, k_max)], repeats)
    m1_time, fno_time = pair

    layer2 = make_layer("diagonal", 2, seed=seed + 99, channels=channels, k_max=k_max)
    with T.no_grad():
        n_fns = [(lambda x=T.Tensor(f_by_n[n]): layer2(x)) for n in n_list]
        n_times = _interleaved_best_times(n_fns, repeats)

    m_slope = fit_loglog_slope(m_list, m_times)
    log_adjusted = [t / np.log2(n) for t, n in zip(n_times, n_list)]
    n_exponent = fit_loglog_slope(n_list, log_adjusted)
    return {
        "m_list": list(m_list), "m_times": m_times, "m_slope": m_slope,
        "n_list": list(n_list), "n_times": n_times, "n_exponent_after_log": n_exponent,
        "fno_time": fno_time, "m1_time": m1_time,
        "m1_vs_fno_ratio": m1_time / fno_time,
        "timing_n": timing_n,
    }
