"""Learnable per-point densities and the adaptive lifted transform.

A density field assigns each grid point a probability vector over M
slices. Scaling a signal by the square root of each slice and applying
the unitary FFT lifts it into (frequency x slice) coefficients; the
synthesis direction applies the inverse FFT per slice, reweights by the
same square roots and sums over slices. Because the slice weights sum to
one pointwise, analysis preserves the grid norm and synthesis after
analysis is the identity, for every admissible density.

Square roots on the density path keep the exact forward value but use an
epsilon-regularized derivative so one-hot densities (the low-temperature
regime) keep finite gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, UnsupportedSizeError
from .fft import is_power_of_two

SQRT_GRAD_EPS = 1e-12

FIRST_DIFF_STENCIL = (0.5, 0.0, -0.5)
SECOND_DIFF_STENCIL = (-0.5, 1.0, -0.5)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit torus, power-of-two extents."""

    extents: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        if not self.extents or len(self.extents) > 2:
            raise ContractError(f"grids are 1-D or 2-D, got extents {self.extents}")
        for n in self.extents:
            if not is_power_of_two(n):
                raise UnsupportedSizeError(f"grid extent {n} is not a power of two")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple:
        return tuple(1.0 / n for n in self.extents)

    @property
    def points(self) -> int:
        return int(np.prod(self.extents))


def spatial_axes(ndim_spatial: int) -> tuple:
    """Axes carrying space in the (batch, channel, spatial..., slice) layout."""
    return tuple(range(2, 2 + ndim_spatial))


@dataclass
class DensityField:
    """Discrete p(x, m): nonnegative, summing to one over m at every point.

    values has shape (batch, spatial..., M) in shared mode or
    (batch, channels, spatial..., M) in per-channel mode.
    """

    values: T.Tensor
    grid: Grid
    per_channel: bool = False

    @property
    def slices(self) -> int:
        return self.values.shape[-1]

    def validate(self, tol: float = 1e-10) -> None:
        v = self.values.data
        expected_ndim = 1 + self.grid.dims + 1 + (1 if self.per_channel else 0)
        if v.ndim != expected_ndim:
            raise ContractError(
                f"density rank {v.ndim} does not match grid dims {self.grid.dims}")
        spatial = v.shape[-1 - self.grid.dims:-1]
        if spatial != self.grid.extents:
            raise ContractError(
                f"density spatial shape {spatial} != grid extents {self.grid.extents}")
        if np.any(v < -tol) or np.any(v > 1.0 + tol):
            raise ContractError("density entries outside [0, 1]")
        rows = v.sum(axis=-1)
        if np.max(np.abs(rows - 1.0)) > tol:
            raise ContractError(
                f"density rows must sum to 1, worst residual {np.max(np.abs(rows - 1.0)):.3e}")


@dataclass
class LiftedCoefficients:
    """Analysis coefficients on (batch, channels, frequency..., slice)."""

    values: T.Tensor
    grid: Grid
    per_channel: bool = False


def uniform_density(grid: Grid, slices: int, batch: int = 1,
                    channels: Optional[int] = None) -> DensityField:
    shape = (batch,) + ((channels,) if channels else ()) + grid.extents + (slices,)
    vals = T.Tensor(np.full(shape, 1.0 / slices))
    return DensityField(vals, grid, per_channel=channels is not None)


# ---- density network --------------------------------------------------------

@dataclass
class DensityNetConfig:
    slices: int = 2
    arch: str = "mlp2"          # "mlp2" pointwise, or "fd4" on stencil features (1-D)
    hidden: int = 24
    per_channel: bool = False
    temperature: float = 0.8
    learn_temperature: bool = False
    residual: bool = True       # fd4 only: identity skip, first hidden into third
    activation: str = "silu"

    def __post_init__(self):
        if self.arch not in ("mlp2", "fd4"):
            raise ContractError(f"unknown density arch {self.arch!r}")
        if self.temperature <= 0:
            raise DomainError("temperature must be positive")
        if self.slices < 1:
            raise ContractError("slice count must be >= 1")


def _stencil_conv(f: T.Tensor, kernel) -> T.Tensor:
    """3-tap periodic convolution along the last axis (true convolution)."""
    k0, k1, k2 = kernel
    out = T.mul(T.roll(f, -1, axis=-1), k0)
    if k1 != 0.0:
        out = T.add(out, T.mul(f, k1))
    return T.add(out, T.mul(T.roll(f, 1, axis=-1), k2))


class DensityNetwork:
    """Softmax-MLP density head: per-point features -> M energies -> p(x, m)."""

    def __init__(self, config: DensityNetConfig, in_channels: int, ndim: int,
                 rng: np.random.Generator):
        if config.arch == "fd4" and ndim != 1:
            raise ContractError("stencil features are 1-D only")
        self.config = config
        self.in_channels = in_channels
        self.ndim = ndim
        m_out = config.slices * (in_channels if config.per_channel else 1)
        if config.arch == "fd4":
            h = config.hidden
            widths = [3 * in_channels + 1, h, h // 2, h, m_out]
        else:
            widths = [in_channels, config.hidden, m_out]
        self.weights = []
        self.biases = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            if i == len(widths) - 2:
                scale *= 0.1  # small head: starts near the uniform density
            self.weights.append(T.parameter(rng.normal(0.0, scale, size=(fan_in, fan_out))))
            self.biases.append(T.parameter(np.zeros(fan_out)))
        # a learned temperature lives on the log scale so it stays positive
        # no matter what the optimizer does
        self.log_temperature = (
            T.parameter(np.array(np.log(config.temperature)))
            if config.learn_temperature else None
        )
        self._fixed_temperature = T.Tensor(np.array(config.temperature))

    @property
    def temperature(self) -> T.Tensor:
        if self.log_temperature is not None:
            return T.texp(self.log_temperature)
        return self._fixed_temperature

    def named_parameters(self, prefix: str = "") -> dict:
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"{prefix}mlp.{i}.weight"] = w
            params[f"{prefix}mlp.{i}.bias"] = b
        if self.log_temperature is not None:
            params[f"{prefix}log_temperature"] = self.log_temperature
        return params

    def _features(self, f: T.Tensor) -> T.Tensor:
        """Channels-last feature tensor (batch, spatial..., F)."""
        if self.config.arch == "fd4":
            d1 = _stencil_conv(f, FIRST_DIFF_STENCIL)
            d2 = _stencil_conv(f, SECOND_DIFF_STENCIL)
            ones = T.Tensor(np.ones(f.shape[:1] + (1,) + f.shape[2:]))
            feats = T.concatenate([f, d1, d2, ones], axis=1)
        else:
            feats = f
        return T.moveaxis(feats, 1, -1)

    def energies(self, f: T.Tensor) -> T.Tensor:
        """Per-point energies; (batch, spatial..., M) or (batch, C, spatial..., M)."""
        if f.ndim != 2 + self.ndim:
            raise ContractError(f"expected (batch, channels, spatial...), got {f.shape}")
        if f.shape[1] != self.in_channels:
            raise ContractError(
                f"channel count {f.shape[1]} does not match network width {self.in_channels}")
        x = self._features(f)
        act = T.ACTIVATIONS[self.config.activation]
        if self.config.arch == "fd4":
            h1 = act(T.add(T.matmul(x, self.weights[0]), self.biases[0]))
            h2 = act(T.add(T.matmul(h1, self.weights[1]), self.biases[1]))
            pre3 = T.add(T.matmul(h2, self.weights[2]), self.biases[2])
            if self.config.residual:
                pre3 = T.add(pre3, h1)
            h3 = act(pre3)
            out = T.add(T.matmul(h3, self.weights[3]), self.biases[3])
        else:
            h = act(T.add(T.matmul(x, self.weights[0]), self.biases[0]))
            out = T.add(T.matmul(h, self.weights[1]), self.biases[1])
        if self.config.per_channel:
            # (batch, spatial..., C*M) -> (batch, C, spatial..., M)
            out = T.reshape(out, out.shape[:-1] + (self.in_channels, self.config.slices))
            out = T.moveaxis(out, -2, 1)
        return out


def density_from_energies(energies: T.Tensor, temperature, grid: Optional[Grid] = None,
                          per_channel: bool = False) -> DensityField:
    """Temperature softmax over the slice axis; rows sum to one by construction."""
    t_val = temperature.item() if isinstance(temperature, T.Tensor) else float(temperature)
    if t_val <= 0:
        raise DomainError("temperature must be positive")
    scaled = T.div(energies, temperature if isinstance(temperature, T.Tensor) else t_val)
    p = T.softmax(scaled, axis=-1)
    if grid is None:
        start = 2 if per_channel else 1
        grid = Grid(p.shape[start:-1])
    return DensityField(p, grid, per_channel=per_channel)


# ---- forward / inverse transform --------------------------------------------

def _sqrt_density(p: DensityField) -> T.Tensor:
    """(batch, 1 or C, spatial..., M) broadcastable against channel-major fields."""
    sp = T.sqrt(p.values, grad_eps=SQRT_GRAD_EPS)
    if not p.per_channel:
        sp = T.reshape(sp, sp.shape[:1] + (1,) + sp.shape[1:])
    return sp


def _check_compatible(f: T.Tensor, p: DensityField) -> None:
    d = p.grid.dims
    if f.ndim != 2 + d:
        raise ContractError(f"field rank {f.ndim} does not match grid dims {d}")
    if tuple(f.shape[2:]) != p.grid.extents:
        raise ContractError(
            f"field spatial shape {tuple(f.shape[2:])} != grid extents {p.grid.extents}")
    if f.shape[0] != p.values.shape[0]:
        raise ContractError("field and density batch sizes differ")
    if p.per_channel and f.shape[1] != p.values.shape[1]:
        raise ContractError("per-channel density channel count does not match field")


def able_forward(f: T.Tensor, p: DensityField, validate: bool = True) -> LiftedCoefficients:
    """Analysis: FFT of the square-root-density-weighted field, one slice per m."""
    if validate:
        p.validate()
    _check_compatible(f, p)
    sp = _sqrt_density(p)
    fe = T.reshape(f, f.shape + (1,))
    prod = T.mul(fe, sp)
    if not prod.is_complex:
        prod = T.to_complex(prod)
    coeffs = T.fft(prod, axes=spatial_axes(p.grid.dims))
    return LiftedCoefficients(coeffs, p.grid, p.per_channel)


def able_inverse(c, p: DensityField, validate: bool = True) -> T.Tensor:
    """Synthesis: inverse FFT per slice, reweight by sqrt(p), sum over slices.

    The same formula is applied to any coefficient tensor; on the image of
    the forward transform it is the exact left inverse.
    """
    if validate:
        p.validate()
    values = c.values if isinstance(c, LiftedCoefficients) else c
    if values.shape[-1] != p.slices:
        raise ContractError("coefficient slice count does not match density")
    d = p.grid.dims
    if tuple(values.shape[2:2 + d]) != p.grid.extents:
        raise ContractError("coefficient frequency shape does not match grid")
    if values.shape[0] != p.values.shape[0]:
        raise ContractError("coefficient and density batch sizes differ")
    per_slice = T.ifft(values, axes=spatial_axes(d))
    weighted = T.mul(per_slice, _sqrt_density(p))
    return T.tsum(weighted, axis=-1)


# ---- diagnostics --------------------------------------------------------------

def density_entropy(p_values: np.ndarray) -> float:
    """Mean Shannon entropy over all grid points of a density array."""
    p = np.clip(np.asarray(p_values), 1e-300, 1.0)
    return float(np.mean(-(p * np.log(p)).sum(axis=-1)))
