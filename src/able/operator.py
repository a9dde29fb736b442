"""Spectral operator layers on the adaptive frame, and their dense oracle.

`ModelConfig` is the one place the model's settings are held and checked.
Each layer, `AbleLayer`, maps the network's width to itself and is built
from the network's config, as is its density head.

A layer computes a per-point square-root density from its input in two
tape nodes (the density head, `frame.DensityNetwork.energies`, and its
softmax and square root, `frame.sqrt_softmax`) and runs the rest as one
tape node, `frame.spectral`: it lifts the input onto the retained low
frequencies, mixes them with learnable complex weights (per slice, or
across slice pairs in the cross variant), synthesizes back, keeps the real
part, adds the pointwise map W^T f + b and applies the activation. The
node reads the grid off the input and the retained modes off the weights,
so the layer passes neither. Its synthesis is one c2r per line in the
forward and in the VJP; its forward analysis is `frame.lift`'s c2c
kernel, since acceptance criterion 09 wants the one-slice forward within
25% of a plain Fourier layer and an r2c analysis measured 0.65-0.67 of
it. The rest of the VJP works on the real half spectrum too. Lifting and
projection are `frame.linear`, the same per-point map on the same
batched-matmul kernels, the first projection with the activation inside
its node; the coordinate channels are joined to the input in numpy, since
the input is data. One pipeline serves every slice count.
With a single slice the density is identically one and the layer reduces
to a plain Fourier layer: it passes no square-root density (None), so the
spectral node skips the weighting, which softmax over one logit makes
the identity.

Frequency truncation keeps, per axis, the k_max lowest nonnegative and
the k_max lowest negative wavenumbers in the natural FFT layout, so
k_max = N/2 retains the full spectrum. A layer's density, `density`, is
the slice-major array the frame API takes.

`materialize_kernel` assembles the equivalent dense kernel
sum_m sqrt(p(x,m)) r(x-z; m) sqrt(p(z,m)) by inverse-transforming the
zero-padded multiplier and gathering displacements; it reads the density
slice-major and broadcasts a shared density's single head over the
channels, so one contraction covers shared and per-channel densities. It
is the O(N^2) reference path the spectral implementation is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fft as _fft
from . import tensor as T
from .errors import ContractError, DomainError
from .frame import (DensityNetwork, Grid, density_from_energies, linear, spectral,
                    sqrt_softmax, uniform_density)

KERNEL_POINT_LIMIT = 4096


def mode_indices(k_max: int, extent: int) -> np.ndarray:
    """Retained frequency indices along one axis, natural FFT layout."""
    if 2 * k_max > extent:
        raise ContractError(f"k_max {k_max} exceeds grid extent {extent} (need 2*k_max <= N)")
    if 2 * k_max == extent:
        return np.arange(extent)
    return np.concatenate([np.arange(k_max), np.arange(extent - k_max, extent)])


@dataclass
class SpectralMultiplier:
    """Learnable complex mode weights, diagonal R(k,m) or cross R(k; m, m').

    `weights.data` has the canonical shape (I, O, modes..., M[, M]), which
    checkpoints, `materialize_kernel` and the oracles read. It is a
    transposed view of one C-contiguous buffer stored in the order in which
    the mix's matmul reads it (`tensor._matmul_plan`): cross weights
    w[i, o, x..., p, q] (output slice p, input slice q) are stored as
    (x..., i, q, o, p), diagonal weights w[i, o, x..., m] as (m, x..., i, o).
    The mix then reshapes the weights without a copy, and their gradient
    arrives in the stored order. Writes go through the view
    (`data[...] = ...`), which keeps the layout.
    """

    weights: T.Tensor

    @property
    def k_max(self) -> int:
        """Retained wavenumbers per sign and axis: the weights hold 2 k_max modes per axis."""
        return self.weights.shape[2] // 2


def mix_spec(kind: str, ndim: int) -> str:
    """The two-operand einsum spec of a layer's mode mixing, lifted modes by
    weights, as `tensor._contract` runs it."""
    xy = "xy"[:ndim]
    return f"biq{xy},io{xy}pq->bop{xy}" if kind == "cross" else f"bim{xy},io{xy}m->bom{xy}"


def make_multiplier(kind: str, k_max: int, in_channels: int, out_channels: int,
                    slices: int, ndim: int, rng: np.random.Generator) -> SpectralMultiplier:
    if kind not in ("diagonal", "cross"):
        raise ContractError(f"unknown multiplier kind {kind!r}")
    modes = (2 * k_max,) * ndim
    tail = (slices, slices) if kind == "cross" else (slices,)
    shape = (in_channels, out_channels) + modes + tail
    scale = 1.0 / (in_channels * out_channels)
    w = scale * (rng.random(shape) + 1j * rng.random(shape))
    lifted = (1, in_channels, slices) + modes
    stored = T._matmul_plan(mix_spec(kind, ndim), lifted, shape)[2]
    w = np.ascontiguousarray(w.transpose(stored)).transpose(np.argsort(stored))
    return SpectralMultiplier(T.parameter(w))


class AbleLayer:
    """One adaptive spectral layer, width to width: density -> lift -> mix ->
    synthesize -> +W -> activation. `config` is the network's `ModelConfig`
    and `activation` this layer's, or None."""

    def __init__(self, config: ModelConfig, activation: Optional[str], *,
                 rng: np.random.Generator):
        self.config = config
        self.activation = activation
        c = config.width
        self.multiplier = make_multiplier(config.kind, config.k_max, c, c, config.slices,
                                          config.ndim, rng)
        self.density_net = DensityNetwork(config, rng) if config.slices > 1 else None
        self.pointwise = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(c), size=(c, c)))
        self.bias = T.parameter(np.zeros(c))

    def named_parameters(self, prefix: str = "") -> dict:
        params = {
            f"{prefix}spectral.weights": self.multiplier.weights,
            f"{prefix}pointwise.weight": self.pointwise,
            f"{prefix}pointwise.bias": self.bias,
        }
        if self.density_net is not None:
            params.update(self.density_net.named_parameters(f"{prefix}density."))
        return params

    def density(self, f: T.Tensor) -> np.ndarray:
        """Density this layer derives from its input, off the tape; uniform when M == 1."""
        if self.density_net is None:
            return uniform_density(Grid(f.shape[2:]), batch=f.shape[0])
        with T.no_grad():
            e = self.density_net.energies(f).data
        return density_from_energies(e, self.density_net.temperature)

    def forward(self, f: T.Tensor) -> T.Tensor:
        cfg = self.config
        if f.ndim != 2 + cfg.ndim:
            raise ContractError(
                f"expected (batch, channels, {cfg.ndim} spatial axes), got {f.shape}")
        if f.shape[1] != cfg.width:
            raise ContractError(f"channel count {f.shape[1]} != layer width {cfg.width}")
        head = self.density_net
        sp = None if head is None else sqrt_softmax(head.energies(f), cfg.temperature,
                                                    head.log_temperature)
        return spectral(f, sp, self.multiplier.weights, mix_spec(cfg.kind, cfg.ndim),
                        (self.pointwise, self.bias), self.activation)

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
    cfg = layer.config
    axes = tuple(range(2, 2 + cfg.ndim))
    with T.no_grad():
        p = layer.density(f)
    padded = _pad_multiplier(layer.multiplier.weights.data, layer.multiplier.k_max,
                             extents, cfg.ndim)
    r = _fft.ifft_unitary(padded, axes=axes) / np.sqrt(points)
    c, m = cfg.width, cfg.slices
    tail = (m, m) if cfg.kind == "cross" else (m,)
    r_flat = r.reshape((c, c, points) + tail)
    disp = _flat_displacements(extents)

    # sqrt(p) per channel head, (batch, 1 or C, M, P); a shared head broadcasts
    sq = np.sqrt(p).reshape(p.shape[:3] + (points,))
    batch = sq.shape[0]
    sq = np.broadcast_to(sq, (batch, c, m, points))
    if cfg.kind == "cross":
        terms = [(mi, mj, r_flat[..., mi, mj]) for mi in range(m) for mj in range(m)]
    else:
        terms = [(mi, mi, r_flat[..., mi]) for mi in range(m)]

    kernel = np.zeros((batch, c, c, points, points), dtype=np.complex128)
    for b in range(batch):
        for mi, mj, r_m in terms:
            kernel[b] += np.einsum("cx,icxz,iz->cixz", sq[b, :, mi], r_m[:, :, disp],
                                   sq[b, :, mj])
    return kernel


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

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise ContractError(f"ndim must be 1 or 2, got {self.ndim}")
        for name in ("in_channels", "out_channels", "width", "n_layers", "k_max", "slices",
                     "proj_hidden"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.density_arch not in ("mlp2", "fd4"):
            raise ContractError(f"unknown density arch {self.density_arch!r}")
        least = 2 if self.density_arch == "fd4" else 1     # fd4's middle stage is hidden // 2 wide
        if self.density_hidden < least:
            raise ContractError(f"the {self.density_arch} density head needs "
                                f"density_hidden >= {least}, got {self.density_hidden}")
        if self.density_arch == "fd4" and self.ndim != 1 and self.slices > 1:
            raise ContractError("the fd4 density head's stencil features are 1-D only")
        if not self.temperature > 0:
            raise DomainError(f"temperature must be positive, got {self.temperature}")
        if self.activation not in T.ACTIVATION_KERNELS:
            raise ContractError(f"unknown activation {self.activation!r}; "
                                "expected gelu, silu, relu or none")
        if self.act_flags is not None:
            self.act_flags = tuple(self.act_flags)

    def layer_activations(self) -> tuple:
        if self.act_flags is not None:
            if len(self.act_flags) != self.n_layers:
                raise ContractError("act_flags length must equal n_layers")
            return tuple(bool(v) for v in self.act_flags)
        return tuple(i < self.n_layers - 1 for i in range(self.n_layers))


class AbleNetwork:
    """Lifting -> stacked adaptive spectral layers -> pointwise projection."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        lift_in = config.in_channels + (config.ndim if config.coord_features else 0)
        self.lift_w = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(lift_in),
                                             size=(lift_in, config.width)))
        self.lift_b = T.parameter(np.zeros(config.width))
        self.layers = [AbleLayer(config, config.activation if on else None, rng=rng)
                       for on in config.layer_activations()]
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
        """The input and one coordinate channel per axis, in numpy: the input is data."""
        batch = f.shape[0]
        extents = f.shape[2:]
        channels = [f.data]
        for d, n in enumerate(extents):
            shape = [1, 1] + [1] * len(extents)
            shape[2 + d] = n
            channels.append(np.broadcast_to((np.arange(n) / n).reshape(shape),
                                            (batch, 1) + tuple(extents)))
        return T.Tensor(np.concatenate(channels, axis=1))

    def lift_input(self, f: T.Tensor) -> T.Tensor:
        """The input lifted to the layer width: what the first layer sees."""
        if f.ndim != 2 + self.config.ndim:
            raise ContractError(f"expected (batch, channels, spatial...), got {f.shape}")
        if f.shape[1] != self.config.in_channels:
            raise ContractError(
                f"input channels {f.shape[1]} != configured {self.config.in_channels}")
        x = self._coords(f) if self.config.coord_features else f
        return linear(x, self.lift_w, self.lift_b)

    def forward(self, f: T.Tensor) -> T.Tensor:
        x = self.lift_input(f)
        for layer in self.layers:
            x = layer(x)
        h = linear(x, self.proj1_w, self.proj1_b, self.config.activation)
        return linear(h, self.proj2_w, self.proj2_b)

    __call__ = forward


def build_network(config: ModelConfig, seed: int = 0) -> AbleNetwork:
    return AbleNetwork(config, rng=np.random.default_rng(seed))


# ---- flop accounting -----------------------------------------------------------

def _transform_flops(extents: Sequence[int], kept: Sequence[int], analysis: bool) -> float:
    """One pruned transform's flops, 5 N log2 N per c2c line each pass
    computes. Both directions run the same lines along axis a,
    prod(N_b, b < a) * prod(K_b, b > a): the analysis last axis first, the
    synthesis the other axes first and then one c2r per line along the
    last axis, charged at half a c2c line."""
    total = 0.0
    last = len(extents) - 1
    for a, n in enumerate(extents):
        lines = float(np.prod(extents[:a])) * float(np.prod(kept[a + 1:]))
        per_line = 2.5 if a == last and not analysis else 5.0
        total += lines * per_line * n * np.log2(n)
    return total


def count_flops(net: AbleNetwork, grid: Grid) -> dict:
    """Analytic per-forward flop estimate, broken down by term.

    Convention (documented, not a hardware claim): one complex multiply-add
    is 8 real flops; each length-N c2c line transform costs 5 N log2 N real
    flops and each c2r line 2.5 N log2 N; forward and inverse transforms
    are counted separately. The fft term counts only the lines the pruned
    transform computes, prod(N_b, b < a) * prod(K_b, b > a) along axis a
    in both directions, with N the grid extents and K the retained mode
    counts: the analysis runs c2c passes from the last axis back, the
    synthesis (`frame._expand_real`) c2c passes on the other axes and then
    one c2r per line along the last axis.
    """
    cfg = net.config
    points = grid.points
    c, m = cfg.width, cfg.slices
    kept = [len(mode_indices(cfg.k_max, n)) for n in grid.extents]
    modes_total = float(np.prod(kept))
    heads = m * m if cfg.kind == "cross" else m
    fft_term = mixing_term = pointwise_term = density_term = 0.0
    for layer in net.layers:
        fft_term += m * (c * _transform_flops(grid.extents, kept, True)
                         + c * _transform_flops(grid.extents, kept, False))
        mixing_term += heads * modes_total * c * c * 8.0
        pointwise_term += points * c * c * 2.0
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
