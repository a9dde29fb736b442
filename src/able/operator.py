"""Spectral operator layers on the adaptive frame, and their dense oracle.

A layer computes a per-point density from its input, lifts each slice
with the unitary FFT, mixes the retained low frequencies with learnable
complex weights (per slice, or across slice pairs in the cross variant),
synthesizes back, and adds a pointwise linear path. With a single slice
the density is identically one and the layer reduces to a plain Fourier
layer, which the code short-circuits: softmax over one logit is exactly 1,
so the square-root weighting is the identity and is skipped.

Frequency truncation keeps, per axis, the k_max lowest nonnegative and
the k_max lowest negative wavenumbers in the natural FFT layout, so
k_max = N/2 retains the full spectrum.

`materialize_kernel` assembles the equivalent dense kernel
sum_m sqrt(p(x,m)) r(x-z; m) sqrt(p(z,m)) by inverse-transforming the
zero-padded multiplier and gathering displacements; it is the O(N^2)
reference path the spectral implementation is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fft as _fft
from . import tensor as T
from .errors import ContractError
from .frame import (DensityField, DensityNetConfig, DensityNetwork, Grid,
                    SQRT_GRAD_EPS, density_from_energies, spatial_axes,
                    uniform_density)

_EINSUM_SPATIAL = "xy"

KERNEL_POINT_LIMIT = 4096


def mode_indices(k_max: int, extent: int) -> np.ndarray:
    """Retained frequency indices along one axis, natural FFT layout."""
    if 2 * k_max > extent:
        raise ContractError(f"k_max {k_max} exceeds grid extent {extent} (need 2*k_max <= N)")
    if 2 * k_max == extent:
        return np.arange(extent)
    return np.concatenate([np.arange(k_max), np.arange(extent - k_max, extent)])


def _pointwise_spec(ndim: int) -> str:
    sp = _EINSUM_SPATIAL[:ndim]
    return f"bi{sp},io->bo{sp}"


@dataclass
class SpectralMultiplier:
    """Learnable complex mode weights, diagonal R(k,m) or cross R(k; m, m')."""

    kind: str
    k_max: int
    weights: T.Tensor

    @property
    def slices(self) -> int:
        return self.weights.shape[-1]


def make_multiplier(kind: str, k_max: int, in_channels: int, out_channels: int,
                    slices: int, ndim: int, rng: np.random.Generator) -> SpectralMultiplier:
    if kind not in ("diagonal", "cross"):
        raise ContractError(f"unknown multiplier kind {kind!r}")
    modes = (2 * k_max,) * ndim
    tail = (slices, slices) if kind == "cross" else (slices,)
    shape = (in_channels, out_channels) + modes + tail
    scale = 1.0 / (in_channels * out_channels)
    w = scale * (rng.random(shape) + 1j * rng.random(shape))
    return SpectralMultiplier(kind, k_max, T.parameter(w))


class AbleLayer:
    """One adaptive spectral layer: density -> lift -> mix -> synthesize -> +W."""

    def __init__(self, in_channels: int, out_channels: int, k_max: int, ndim: int,
                 density: DensityNetConfig, kind: str = "diagonal",
                 activation: Optional[str] = "gelu",
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if density.per_channel and in_channels != out_channels:
            raise ContractError("per-channel densities require equal in/out channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ndim = ndim
        self.kind = kind
        self.activation = activation
        self.density_cfg = density
        self.multiplier = make_multiplier(kind, k_max, in_channels, out_channels,
                                          density.slices, ndim, rng)
        self.density_net = (
            DensityNetwork(density, in_channels, ndim, rng) if density.slices > 1 else None
        )
        self.pointwise = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(in_channels),
                                                size=(in_channels, out_channels)))
        self.bias = T.parameter(np.zeros(out_channels))

    @property
    def slices(self) -> int:
        return self.density_cfg.slices

    def named_parameters(self, prefix: str = "") -> dict:
        params = {
            f"{prefix}spectral.weights": self.multiplier.weights,
            f"{prefix}pointwise.weight": self.pointwise,
            f"{prefix}pointwise.bias": self.bias,
        }
        if self.density_net is not None:
            params.update(self.density_net.named_parameters(f"{prefix}density."))
        return params

    def density(self, f: T.Tensor) -> DensityField:
        """Density this layer derives from its input; uniform ones when M == 1."""
        grid = Grid(f.shape[2:])
        if self.density_net is None:
            return uniform_density(grid, 1, batch=f.shape[0])
        e = self.density_net.energies(f)
        return density_from_energies(e, self.density_net.temperature, grid,
                                     per_channel=self.density_cfg.per_channel)

    def _index_lists(self, extents: Sequence[int]):
        return [mode_indices(self.multiplier.k_max, n) for n in extents]

    def forward(self, f: T.Tensor) -> T.Tensor:
        if f.ndim != 2 + self.ndim:
            raise ContractError(f"expected (batch, channels, {self.ndim} spatial axes), got {f.shape}")
        if f.shape[1] != self.in_channels:
            raise ContractError(f"channel count {f.shape[1]} != layer width {self.in_channels}")
        extents = tuple(f.shape[2:])
        idx = self._index_lists(extents)
        axes = spatial_axes(self.ndim)

        if self.density_net is None:
            # single slice: the density is identically one, so this is the
            # plain Fourier path with no slice axis at all
            coeff = T.fft(T.to_complex(f), axes=axes)
            kept = T.take_modes(coeff, axes=axes, index_lists=idx)
            w = T.reshape(self.multiplier.weights,
                          self.multiplier.weights.shape[:2 + self.ndim])
            sp_spec = _EINSUM_SPATIAL[:self.ndim]
            mixed = T.einsum2(f"bi{sp_spec},io{sp_spec}->bo{sp_spec}", kept, w)
            padded = T.put_modes(mixed, axes=axes, index_lists=idx, full_extents=extents)
            spectral = T.real(T.ifft(padded, axes=axes))
        else:
            # slice-major layout (batch, C, M, spatial...): transforms run on
            # the trailing contiguous axes
            p = self.density(f)
            sp = T.sqrt(p.values, grad_eps=SQRT_GRAD_EPS)
            if self.density_cfg.per_channel:
                sp = T.moveaxis(sp, -1, 2)          # (B, C, M, spatial...)
            else:
                sp = T.reshape(T.moveaxis(sp, -1, 1),
                               (sp.shape[0], 1, self.slices) + tuple(sp.shape[1:-1]))
            z = T.to_complex(T.mul(T.reshape(f, f.shape[:2] + (1,) + extents), sp))
            m_axes = tuple(ax + 1 for ax in axes)
            m_idx = idx
            coeff = T.fft(z, axes=m_axes)
            kept = T.take_modes(coeff, axes=m_axes, index_lists=m_idx)
            sp_spec = _EINSUM_SPATIAL[:self.ndim]
            if self.kind == "cross":
                mix = f"biq{sp_spec},io{sp_spec}pq->bop{sp_spec}"
            else:
                mix = f"bim{sp_spec},io{sp_spec}m->bom{sp_spec}"
            mixed = T.einsum2(mix, kept, self.multiplier.weights)
            padded = T.put_modes(mixed, axes=m_axes, index_lists=m_idx,
                                 full_extents=extents)
            synth = T.mul(T.ifft(padded, axes=m_axes), sp)
            spectral = T.real(T.tsum(synth, axis=2))

        local = T.einsum2(_pointwise_spec(self.ndim), f, self.pointwise)
        local = T.add(local, T.reshape(self.bias, (1, -1) + (1,) * self.ndim))
        out = T.add(spectral, local)
        act = T.ACTIVATIONS[self.activation]
        return act(out) if act is not None else out

    __call__ = forward


# ---- dense kernel oracle ------------------------------------------------------

def _pad_multiplier(weights: np.ndarray, k_max: int, extents: Sequence[int],
                    ndim: int) -> np.ndarray:
    idx = [mode_indices(k_max, n) for n in extents]
    tail = weights.ndim - 2 - ndim
    shape = weights.shape[:2] + tuple(extents) + weights.shape[2 + ndim:]
    out = np.zeros(shape, dtype=np.complex128)
    mesh = np.ix_(*idx)
    out[(slice(None), slice(None)) + mesh + (slice(None),) * tail] = weights
    return out


def _flat_displacements(extents: Sequence[int]) -> np.ndarray:
    """disp[xf, zf] = flattened index of (x - z) mod N, row-major."""
    grids = np.meshgrid(*[np.arange(n) for n in extents], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=0)
    disp = [(coords[d][:, None] - coords[d][None, :]) % extents[d]
            for d in range(len(extents))]
    flat = disp[0]
    for d in range(1, len(extents)):
        flat = flat * extents[d] + disp[d]
    return flat


def materialize_kernel(layer: AbleLayer, f: T.Tensor) -> np.ndarray:
    """Dense kernel K[b, co, ci, x, z] on flattened points, density taken from f.

    O(N^2) memory and time; refuses grids above KERNEL_POINT_LIMIT points.
    """
    extents = tuple(f.shape[2:])
    points = int(np.prod(extents))
    if points > KERNEL_POINT_LIMIT:
        raise ContractError(
            f"dense kernel refused: {points} grid points exceeds limit {KERNEL_POINT_LIMIT}")
    axes = tuple(range(2, 2 + layer.ndim))
    with T.no_grad():
        p = layer.density(f)
    padded = _pad_multiplier(layer.multiplier.weights.data, layer.multiplier.k_max,
                             extents, layer.ndim)
    r = _fft.ifft_unitary(padded, axes=axes) / np.sqrt(points)
    cin, cout = layer.in_channels, layer.out_channels
    m = layer.slices
    tail = (m, m) if layer.kind == "cross" else (m,)
    r_flat = r.reshape((cin, cout, points) + tail)
    disp = _flat_displacements(extents)

    pv = p.values.data
    batch = pv.shape[0]
    if layer.density_cfg.per_channel and layer.density_net is not None:
        sq = np.sqrt(pv).reshape(batch, cin, points, m)
    else:
        sq_shared = np.sqrt(pv).reshape(batch, points, m)
        sq = None

    kernel = np.zeros((batch, cout, cin, points, points), dtype=np.complex128)
    for b in range(batch):
        for mi in range(m):
            syn = sq[b, :, :, mi] if sq is not None else sq_shared[b, :, mi]
            anas = [sq[b, :, :, mi2] if sq is not None else sq_shared[b, :, mi2]
                    for mi2 in range(m)] if layer.kind == "cross" else None
            if layer.kind == "cross":
                for mj in range(m):
                    g = r_flat[:, :, :, mi, mj][:, :, disp]
                    if sq is None:
                        kernel[b] += np.einsum("x,icxz,z->cixz", syn, g, sq_shared[b, :, mj])
                    else:
                        kernel[b] += np.einsum("cx,icxz,iz->cixz", syn, g, anas[mj])
            else:
                g = r_flat[:, :, :, mi][:, :, disp]
                if sq is None:
                    kernel[b] += np.einsum("x,icxz,z->cixz", syn, g, syn)
                else:
                    kernel[b] += np.einsum("cx,icxz,iz->cixz", syn, g, syn)
    return kernel


def apply_dense_kernel(kernel: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply a materialized kernel to (batch, C_in, spatial...); real output."""
    batch = f.shape[0]
    flat = f.reshape(batch, f.shape[1], -1)
    out = np.einsum("boixz,biz->box", kernel, flat.astype(np.complex128))
    return out.real


def kernel_diagonals(kernel_2d: np.ndarray, extents: Sequence[int]) -> np.ndarray:
    """Group a (P, P) kernel by displacement: out[d, x] = K(x, z) with x - z = d."""
    points = int(np.prod(extents))
    disp = _flat_displacements(extents)
    out = np.empty((points, points), dtype=kernel_2d.dtype)
    x_rep = np.repeat(np.arange(points), points)
    out[disp.ravel(), x_rep] = kernel_2d.ravel()
    return out


# ---- full network ----------------------------------------------------------------

@dataclass
class ModelConfig:
    """Architecture hyperparameters; everything a checkpoint needs to rebuild."""

    ndim: int = 1
    in_channels: int = 1
    out_channels: int = 1
    width: int = 24
    n_layers: int = 4
    k_max: int = 16
    slices: int = 2
    kind: str = "diagonal"
    temperature: float = 0.8
    learn_temperature: bool = False
    density_arch: str = "fd4"
    density_hidden: int = 16
    per_channel: bool = False
    residual: bool = True
    activation: str = "gelu"
    act_flags: Optional[tuple] = None      # per-layer activation on/off
    coord_features: bool = True
    proj_hidden: int = 64

    def density_config(self) -> DensityNetConfig:
        return DensityNetConfig(
            slices=self.slices, arch=self.density_arch, hidden=self.density_hidden,
            per_channel=self.per_channel, temperature=self.temperature,
            learn_temperature=self.learn_temperature, residual=self.residual,
        )

    def layer_activations(self) -> tuple:
        if self.act_flags is not None:
            if len(self.act_flags) != self.n_layers:
                raise ContractError("act_flags length must equal n_layers")
            return tuple(bool(v) for v in self.act_flags)
        return tuple(i < self.n_layers - 1 for i in range(self.n_layers))


class AbleNetwork:
    """Lifting -> stacked adaptive spectral layers -> pointwise projection."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        lift_in = config.in_channels + (config.ndim if config.coord_features else 0)
        self.lift_w = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(lift_in),
                                             size=(lift_in, config.width)))
        self.lift_b = T.parameter(np.zeros(config.width))
        dcfg = config.density_config()
        flags = config.layer_activations()
        self.layers = [
            AbleLayer(config.width, config.width, config.k_max, config.ndim,
                      density=dcfg, kind=config.kind,
                      activation=config.activation if flags[i] else None, rng=rng)
            for i in range(config.n_layers)
        ]
        self.proj1_w = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(config.width),
                                              size=(config.width, config.proj_hidden)))
        self.proj1_b = T.parameter(np.zeros(config.proj_hidden))
        self.proj2_w = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(config.proj_hidden),
                                              size=(config.proj_hidden, config.out_channels)))
        self.proj2_b = T.parameter(np.zeros(config.out_channels))

    def named_parameters(self) -> dict:
        params = {
            "lift.weight": self.lift_w, "lift.bias": self.lift_b,
            "proj1.weight": self.proj1_w, "proj1.bias": self.proj1_b,
            "proj2.weight": self.proj2_w, "proj2.bias": self.proj2_b,
        }
        for i, layer in enumerate(self.layers):
            params.update(layer.named_parameters(f"layers.{i}."))
        return params

    def _coords(self, f: T.Tensor) -> T.Tensor:
        batch = f.shape[0]
        extents = f.shape[2:]
        channels = []
        for d, n in enumerate(extents):
            ax = np.arange(n) / n
            shape = [1, 1] + [1] * len(extents)
            shape[2 + d] = n
            grid = np.broadcast_to(ax.reshape(shape), (batch, 1) + tuple(extents))
            channels.append(T.Tensor(np.ascontiguousarray(grid)))
        return T.concatenate([f] + channels, axis=1)

    def _pointwise(self, x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
        out = T.einsum2(_pointwise_spec(self.config.ndim), x, w)
        return T.add(out, T.reshape(b, (1, -1) + (1,) * self.config.ndim))

    def forward(self, f: T.Tensor) -> T.Tensor:
        if f.ndim != 2 + self.config.ndim:
            raise ContractError(f"expected (batch, channels, spatial...), got {f.shape}")
        if f.shape[1] != self.config.in_channels:
            raise ContractError(
                f"input channels {f.shape[1]} != configured {self.config.in_channels}")
        x = self._coords(f) if self.config.coord_features else f
        x = self._pointwise(x, self.lift_w, self.lift_b)
        for layer in self.layers:
            x = layer(x)
        act = T.ACTIVATIONS[self.config.activation]
        h = self._pointwise(x, self.proj1_w, self.proj1_b)
        if act is not None:
            h = act(h)
        return self._pointwise(h, self.proj2_w, self.proj2_b)

    __call__ = forward


def build_network(config: ModelConfig, seed: int = 0) -> AbleNetwork:
    return AbleNetwork(config, rng=np.random.default_rng(seed))


# ---- flop accounting -----------------------------------------------------------

def count_flops(net: AbleNetwork, grid: Grid) -> dict:
    """Analytic per-forward flop estimate, broken down by term.

    Convention (documented, not a hardware claim): one complex multiply-add
    is 8 real flops; each length-N transform costs 5 N log2 N real flops;
    forward and inverse transforms are counted separately.
    """
    cfg = net.config
    points = grid.points
    logn = float(np.log2(points))
    fft_term = mixing_term = pointwise_term = density_term = 0.0
    for layer in net.layers:
        m = layer.slices
        fft_term += m * (layer.in_channels + layer.out_channels) * 5.0 * points * logn
        modes_total = float(np.prod([len(mode_indices(layer.multiplier.k_max, n))
                                     for n in grid.extents]))
        heads = m * m if layer.kind == "cross" else m
        mixing_term += heads * modes_total * layer.in_channels * layer.out_channels * 8.0
        pointwise_term += points * layer.in_channels * layer.out_channels * 2.0
        if layer.density_net is not None:
            for w in layer.density_net.weights:
                density_term += points * 2.0 * w.shape[0] * w.shape[1]
    lift_in = cfg.in_channels + (cfg.ndim if cfg.coord_features else 0)
    pointwise_term += points * 2.0 * (lift_in * cfg.width
                                      + cfg.width * cfg.proj_hidden
                                      + cfg.proj_hidden * cfg.out_channels)
    spectral = fft_term + mixing_term
    return {
        "fft": fft_term,
        "mixing": mixing_term,
        "spectral": spectral,
        "pointwise": pointwise_term,
        "density": density_term,
        "total": spectral + pointwise_term + density_term,
    }
