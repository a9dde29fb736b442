"""Learnable per-point densities and the adaptive lifted transform.

A density is an array that assigns each grid point a probability vector
over M slices. It is stored slice-major, (batch, heads, M, spatial...),
with one head for a density shared by all channels or one per channel;
broadcasting over the head axis makes the shared case a per-channel
density with one channel. Its grid is its spatial shape, and
`check_density` refuses an array that is not a density. `lift` (analysis)
scales a signal by the square root of each slice, applies the unitary FFT
and keeps the retained modes; `synthesize` zero-fills the retained modes,
applies the inverse FFT per slice, reweights by the same square roots and
sums over slices. Along an axis of extent N the retained modes are the
slice blocks [0, k) and [N - k, N), so k = N/2 keeps the whole axis. For
any density and k synthesis is the adjoint of analysis, so each is one
tape node whose VJP is the other's numpy kernel. Because the slice weights
sum to one pointwise the frame is tight: on the full spectrum analysis
preserves the grid norm and synthesis after analysis is the identity, for
every admissible density. Their kernels are `_analyze`, `_reweight` and
the one synthesis kernel, the layer's c2r `_expand_real`, run by parts on
complex c: expand(c) = Re expand(c) + i Re expand(-i c). Lifted data is
slice-major too, (batch, channels, M, modes...). The frame API
(`able_forward`, `able_inverse`) runs `lift` and `synthesize` on the full
spectrum, and the tests hold the operator layers' node, `spectral`, to
their chain. `lift` and `synthesize` take a square-root density; a single
slice of density one is an array of ones.

An operator layer is one tape node after its density nodes,
`spectral(f, sp, weights, spec, pointwise, activation)`: lift, mix,
synthesize, real part, the pointwise map w^T f + b of the required pair
`pointwise` = (w, b) and the activation. A square-root density of None
stands there for a single slice of density one, and its kernels
(`_analyze`, `_reweight`, `_analyze_real`) then skip the weighting. It
reads the grid off the field and the retained modes off the weights, 2k
per axis. Its output is real, so its synthesis, in the forward and in the
VJP alike, is one `_expand_real`, with no complex spectrum kept. Its
forward analysis is `lift`'s c2c `_analyze`: acceptance criterion 09 sets
the one-slice layer's forward against a plain Fourier layer and wants the
ratio in [0.75, 1.25], and with an r2c analysis as well it measured
0.65-0.67. The pointwise map is `_affine` into the node's own buffer, to
which the reweighted synthesis is added, and the activation is one of the
kernel pairs of `T.ACTIVATION_KERNELS`, which `linear` shares: it
overwrites that buffer with the node's output. Its VJP gets a real
gradient, so past the activation's gradient it runs on the half spectrum:
`_analyze_real` (r2c along the last axis, the negative block by Hermitian
symmetry) and `_expand_real`. There is no real-part tape op.

In 2-D both prune the FFT to the retained modes, one pass per axis, so
no pass transforms a line whose output is discarded or whose input is all
zero. Analysis runs the last axis first, as `fftn` does, and keeps an
axis's retained modes right after its pass, bitwise the all-axes transform
(at 64 x 64 keeping 16 modes per axis, 80 of 128 line FFTs). Synthesis
zero-fills the first axis on the retained columns, then runs a c2r per row.

The density head, `DensityNetwork`, is built from the model's
`operator.ModelConfig`, which holds and checks its settings; its energies
are one tape node per layer, `DensityNetwork.energies`, with a
hand-written VJP. It runs channels-first on (batch, channels,
points), each stage one batched matmul plus its bias with silu between
(the kernels `T.ACTIVATION_KERNELS` holds, which overwrite a stage's
pre-activation, so the node keeps each hidden stage's output and sigmoid),
and the last stage's output channel h*M + m is slice m of head h, so one
reshape makes it slice-major.
The fd4 head's stencil features are never formed: a stencil along x
commutes with a channel map, so its taps (`_taps`) combine the first-stage
weights and `_shift_sum` applies them to the H-wide outputs.
`sqrt_softmax`, the next node, is the square-root density the spectral
node reads: the softmax over slices of energies / T (`_softmax`) and its
square root, whose derivative is epsilon-regularized so one-hot densities
(the low-temperature regime) keep finite gradients; a learned
log-temperature is its parent. `density_from_energies` is the same softmax
off the tape, the density array the frame API and the checks read, and
the frame API takes its square roots off the tape too (`sqrt_density`).
`linear`, the per-point map of the lifting and projections, is one node on
the head's kernels: `_affine` and an optional activation forward; the
activation's gradient, W g, `_weight_grad` and the sum of g in its VJP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import fft as _fft
from . import tensor as T
from .errors import ContractError, DomainError, UnsupportedSizeError
from .fft import is_power_of_two

if TYPE_CHECKING:
    from .operator import ModelConfig

SQRT_GRAD_EPS = 1e-12
DENSITY_TOL = 1e-10     # `check_density`'s slack on entries and row sums

FIRST_DIFF_STENCIL = (0.5, 0.0, -0.5)
SECOND_DIFF_STENCIL = (-0.5, 1.0, -0.5)
# the fd4 first stage's blocks [f, d1 f, d2 f] as stencils
_FD4_KERNELS = ((0.0, 1.0, 0.0), FIRST_DIFF_STENCIL, SECOND_DIFF_STENCIL)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit torus, power-of-two extents >= 2."""

    extents: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        if not self.extents or len(self.extents) > 2:
            raise ContractError(f"grids are 1-D or 2-D, got extents {self.extents}")
        for n in self.extents:
            if n < 2 or not is_power_of_two(n):
                raise UnsupportedSizeError(f"grid extent {n} is not a power of two >= 2")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple:
        return tuple(1.0 / n for n in self.extents)

    @property
    def points(self) -> int:
        return int(np.prod(self.extents))


def check_density(p: np.ndarray) -> Grid:
    """The grid of a density array p, (batch, heads, M, spatial...), after
    refusing non-finite entries, entries outside [0, 1] and rows that do
    not sum to one over the slices, each to within DENSITY_TOL."""
    grid = Grid(p.shape[3:])
    if not np.all(np.isfinite(p)):
        raise ContractError("density has non-finite entries")
    if np.any(p < -DENSITY_TOL) or np.any(p > 1.0 + DENSITY_TOL):
        raise ContractError("density entries outside [0, 1]")
    residual = np.max(np.abs(p.sum(axis=2) - 1.0))
    if residual > DENSITY_TOL:
        raise ContractError(f"density rows must sum to 1, worst residual {residual:.3e}")
    return grid


@dataclass
class LiftedCoefficients:
    """Analysis coefficients, slice-major: (batch, channels, M, frequency...)."""

    values: T.Tensor


def uniform_density(grid: Grid, batch: int = 1) -> np.ndarray:
    """The one-slice density, identically one: (batch, 1, 1, spatial...)."""
    return np.ones((batch, 1, 1) + grid.extents)


# ---- density network --------------------------------------------------------

def linear(x: T.Tensor, w: T.Tensor, b: T.Tensor,
           activation: Optional[str] = None) -> T.Tensor:
    """Per-point linear map on real channels-first data, (batch, I, spatial...)
    with weights (I, O) and bias (O,) -> (batch, O, spatial...), then the
    `activation` of `T.ACTIVATION_KERNELS`. One tape node: `_affine` on the
    flattened spatial axes into a fresh buffer, which the activation's
    kernel overwrites with the output; its VJP the activation's gradient
    kernel on that output, W g, `_weight_grad` and the sum of g."""
    act = T.ACTIVATION_KERNELS[activation]
    batch, spatial = x.shape[0], x.shape[2:]
    x3 = x.data.reshape(batch, x.shape[1], -1)
    wd = w.data
    pre = _affine(wd, b.data, x3)
    out, saved = (pre, None) if act is None else act[0](pre)

    def vjp(g):
        g3 = g.reshape(batch, wd.shape[1], -1)
        if act is not None:
            g3 = act[1](g3, out, saved)
        return (np.matmul(wd, g3).reshape(x.shape) if x.requires_grad else None,
                _weight_grad(x3, g3) if w.requires_grad else None,
                g3.sum(axis=(0, 2)) if b.requires_grad else None)

    return T._make(out.reshape((batch, wd.shape[1]) + spatial), (x, w, b), vjp)


def _taps(blocks, kernels) -> np.ndarray:
    """The taps (ahead, centre, behind) of a sum of 3-tap stencils: tap t is
    the sum over j of kernels[j][t] * blocks[j], stacked on a new first axis.
    A stencil along x commutes with a map over the other axes, so blocks may
    be outputs or the weights that make them."""
    return np.tensordot(np.array(kernels).T, np.asarray(blocks), axes=1)


def _shift_sum(ahead: np.ndarray, centre: np.ndarray, behind: np.ndarray) -> np.ndarray:
    """Periodic out[i] = ahead[i+1] + centre[i] + behind[i-1] along the last
    axis, summed in that order through slices of one buffer. With the taps of
    kernel k it is the true convolution out[i] = k0 x[i+1] + k1 x[i] + k2 x[i-1]."""
    out = np.empty(ahead.shape)
    out[..., :-1] = ahead[..., 1:]
    out[..., -1] = ahead[..., 0]
    out += centre
    out[..., 1:] += behind[..., :-1]
    out[..., 0] += behind[..., -1]
    return out


def _affine(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One head stage on (batch, I, P): w^T x + b, (batch, O, P)."""
    out = np.matmul(w.T, x)
    out += b[:, None]
    return out


def _weight_grad(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum over batch and points of x d^T, for x (batch, I, P) and d (batch, O, P): (I, O)."""
    return np.matmul(x, d.transpose(0, 2, 1)).sum(axis=0)


class DensityNetwork:
    """Softmax-MLP density head: per-point features -> M energies -> p(x, m).

    It is built from the model's `operator.ModelConfig`, which has checked
    every field it reads: `width` is its input width, and `ndim`, `slices`,
    `density_arch`, `density_hidden`, `per_channel`, `temperature`,
    `learn_temperature` and `residual` shape the head.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        c, h = config.width, config.density_hidden
        self.heads = c if config.per_channel else 1
        m_out = config.slices * self.heads
        if config.density_arch == "fd4":
            widths = [3 * c + 1, h, h // 2, h, m_out]
        else:
            widths = [c, h, m_out]
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

    @property
    def temperature(self) -> float:
        """The softmax temperature: exp(log_temperature) when learned."""
        if self.log_temperature is not None:
            return float(np.exp(self.log_temperature.data))
        return self.config.temperature

    def named_parameters(self, prefix: str = "") -> dict:
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"{prefix}mlp.{i}.weight"] = w
            params[f"{prefix}mlp.{i}.bias"] = b
        if self.log_temperature is not None:
            params[f"{prefix}log_temperature"] = self.log_temperature
        return params

    def energies(self, f: T.Tensor) -> T.Tensor:
        """Per-point energies, slice-major: (batch, heads, M, spatial...).

        heads is the channel count for per-channel densities, else one.
        The head is one tape node whose parents are f and every weight and
        bias. It runs channels-first on (batch, channels, points): each
        stage is w^T x + b, silu between stages, and output channel h*M + m
        is slice m of head h. The silu overwrites each hidden stage's
        pre-activation, and the VJP reads (output, sigmoid) per stage. The
        fd4 first stage combines the blocks [W0_f | W0_d1 | W0_d2] of its
        weights per stencil tap, maps f once through the 3H-wide result and
        sums the H-wide tap outputs shifted (`_shift_sum`); the ones
        feature's row W0[3C] joins the bias.
        """
        if f.ndim != 2 + self.config.ndim:
            raise ContractError(f"expected (batch, channels, spatial...), got {f.shape}")
        if f.shape[1] != self.config.width:
            raise ContractError(
                f"channel count {f.shape[1]} does not match network width {self.config.width}")
        ws = [w.data for w in self.weights]
        bs = [b.data for b in self.biases]
        batch, c = f.shape[:2]
        x0 = f.data.reshape(batch, c, -1)
        stencil = self.config.density_arch == "fd4"
        if stencil:
            h = ws[0].shape[1]
            w_taps = (_taps(ws[0][:3 * c].reshape(3, c, h), _FD4_KERNELS)
                      .transpose(1, 0, 2).reshape(c, 3 * h))
            v = np.matmul(w_taps.T, x0).reshape(batch, 3, h, -1)
            pre = _shift_sum(v[:, 0], v[:, 1], v[:, 2])
            pre += (bs[0] + ws[0][3 * c])[:, None]
        else:
            pre = _affine(ws[0], bs[0], x0)
        hidden = []         # (activation, sigmoid) per hidden stage
        for i in range(1, len(ws)):
            hidden.append(T._silu(pre))         # overwrites pre with its activation
            pre = _affine(ws[i], bs[i], hidden[-1][0])
            if i == 2 and self.config.residual:
                pre += hidden[0][0]     # first hidden into the third (fd4)

        def vjp(g):
            d = g.reshape(pre.shape)
            dws, dbs = [None] * len(ws), [None] * len(ws)
            skip = None
            for i in range(len(ws) - 1, 0, -1):
                x_i, s_i = hidden[i - 1]
                dws[i], dbs[i] = _weight_grad(x_i, d), d.sum(axis=(0, 2))
                dx = np.matmul(ws[i], d)
                if i == 2 and self.config.residual:
                    skip = d
                elif i == 1 and skip is not None:
                    dx += skip
                d = T._silu_grad(dx, x_i, s_i)
            dbs[0] = d.sum(axis=(0, 2))
            if stencil:
                # the adjoint of _shift_sum: each tap's gradient is d shifted back
                dv = np.empty((batch, 3, h, d.shape[-1]))
                dv[:, 0, :, 1:] = d[..., :-1]
                dv[:, 0, :, 0] = d[..., -1]
                dv[:, 1] = d
                dv[:, 2, :, :-1] = d[..., 1:]
                dv[:, 2, :, -1] = d[..., 0]
                dv = dv.reshape(batch, 3 * h, -1)
                dtaps = _weight_grad(x0, dv).reshape(c, 3, h).transpose(1, 0, 2)
                dblocks = np.tensordot(np.array(_FD4_KERNELS), dtaps, axes=1)
                dws[0] = np.concatenate([dblocks.reshape(3 * c, h), dbs[0][None]])
                df = np.matmul(w_taps, dv) if f.requires_grad else None
            else:
                dws[0] = _weight_grad(x0, d)
                df = np.matmul(ws[0], d) if f.requires_grad else None
            return (None if df is None else df.reshape(f.shape), *dws, *dbs)

        return T._make(pre.reshape((batch, self.heads, self.config.slices) + f.shape[2:]),
                       (f, *self.weights, *self.biases), vjp)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the slice axis (2) of (batch, heads, M, spatial...),
    C-contiguous whatever the input's layout: the lifted transform runs
    slower on a strided density."""
    x = np.ascontiguousarray(x)
    e = np.exp(x - x.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def density_from_energies(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax of an energy array over slices, off the tape."""
    if not temperature > 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    return _softmax(energies / temperature)


def sqrt_softmax(energies: T.Tensor, temperature: float,
                 log_temperature: Optional[T.Tensor] = None) -> T.Tensor:
    """sqrt(p) for p = `_softmax`(energies / t), as one tape node: a layer's
    square-root density, (batch, heads, M, spatial...). t is `temperature`,
    or exp(log_temperature), a parent of the node, when that is given. The
    VJP takes the square root's derivative at p + SQRT_GRAD_EPS."""
    t = temperature if log_temperature is None else np.exp(log_temperature.data)
    e = energies.data
    p = _softmax(e / t)

    def vjp(g):
        g = g * (0.5 / np.sqrt(p + SQRT_GRAD_EPS))
        g = p * (g - (g * p).sum(axis=2, keepdims=True))
        de = g * (1.0 / t)
        if log_temperature is None:
            return (de,)
        return de, -np.sum(g * e) / t     # d(e / t) / d log t = -e / t

    parents = (energies,) if log_temperature is None else (energies, log_temperature)
    return T._make(np.sqrt(p), parents, vjp)


# ---- forward / inverse transform --------------------------------------------

def sqrt_density(p: np.ndarray) -> T.Tensor:
    """sqrt(p), (batch, heads, M, spatial...), to weight lifted data; no tape,
    so the frame API differentiates in the field and coefficients only."""
    if np.any(p < 0):
        raise DomainError("square root of a negative density entry")
    return T.Tensor(np.sqrt(p))


def _retained(k, extents) -> tuple:
    """The validated retained-mode counts, one k with 1 <= k <= N/2 per axis."""
    k = tuple(int(kk) for kk in k)
    if len(k) != len(extents) or not all(1 <= kk <= n // 2 for kk, n in zip(k, extents)):
        raise ContractError(f"need one k per axis, 1 <= k <= N/2: got {k} for {tuple(extents)}")
    return k


def _blocks(a: int, k: int, n: int) -> tuple:
    """Indices of the slice blocks [0, k) and [n - k, n) of spatial axis a."""
    pre = (slice(None),) * (3 + a)
    return pre + (slice(k),), pre + (slice(n - k, n),)


def _analyze(f: np.ndarray, sp: Optional[np.ndarray], k: tuple) -> np.ndarray:
    """Unitary FFT of f * sp per slice, retained modes only, pruned per axis."""
    x = f[:, :, None] if sp is None else f[:, :, None] * sp
    for a in reversed(range(len(k))):
        x = _fft.fft_unitary(x, (3 + a,))
        # a copy, not a view, so the tape holds only the kept modes
        x = np.concatenate([x[i] for i in _blocks(a, k[a], x.shape[3 + a])], axis=3 + a)
    return x


def _zero_filled(z: np.ndarray, a: int, k: int, n: int) -> np.ndarray:
    """z with its retained modes along spatial axis a zero-filled to extent n."""
    full = np.zeros(z.shape[:3 + a] + (n,) + z.shape[4 + a:], dtype=np.complex128)
    for dst, src in zip(_blocks(a, k, n), _blocks(a, k, 2 * k)):
        full[dst] = z[src]
    return full


def _reweight(z: np.ndarray, sp: Optional[np.ndarray]) -> np.ndarray:
    """Sum of sp * z over slices; an unweighted single slice is just dropped."""
    return z[:, :, 0] if sp is None else (z * sp).sum(axis=2)


def lift(f: T.Tensor, sp: T.Tensor, k) -> T.Tensor:
    """(batch, C, spatial...) -> retained modes of the unitary FFT of f * sp.

    The result is (batch, C, M, modes...). `sp` is `sqrt_density(p)`. Per
    spatial axis of extent N, `k` keeps the slice blocks [0, k) and [N - k, N),
    all of it at k = N/2. A real f's gradient is real: one `_expand_real`.
    """
    k = _retained(k, f.shape[2:])
    spd = sp.data

    def vjp(g):
        z = _expand_real(g, k, f.shape[2:])
        if f.is_complex:
            z = z + 1j * _expand_real(-1j * g, k, f.shape[2:])
        return (_reweight(z, spd) if f.requires_grad else None,
                np.real(z * np.conj(f.data[:, :, None])) if sp.requires_grad else None)

    return T._make(_analyze(f.data, spd, k), (f, sp), vjp)


def synthesize(c: T.Tensor, sp: T.Tensor, k, extents) -> T.Tensor:
    """Zero-fill the retained modes to `extents`, inverse FFT per slice,
    reweight by `sp` and sum over slices: (batch, C, spatial...). `k` is as
    in `lift`. Its real part is the layer's synthesis of c, bitwise."""
    k = _retained(k, extents)
    if tuple(c.shape[3:]) != tuple(2 * kk for kk in k):
        raise ContractError(f"coefficient modes {tuple(c.shape[3:])} do not match k = {k}")
    spd = sp.data
    # Im first: its copy -i c is gone before Re's pass, as at the c2c peak
    z = 1j * _expand_real(-1j * c.data, k, extents) + _expand_real(c.data, k, extents)

    def vjp(g):
        return (_analyze(g, spd, k) if c.requires_grad else None,
                np.real(g[:, :, None] * np.conj(z)) if sp.requires_grad else None)

    return T._make(_reweight(z, spd), (c, sp), vjp)


def _analyze_real(g: np.ndarray, sp: Optional[np.ndarray], k: tuple) -> np.ndarray:
    """`_analyze` of a real g on the half spectrum. r2c along the last axis
    keeps its bins [0, k], the other axis is transformed on those alone, and
    the last axis's negative block follows by Hermitian symmetry:
    X[a, N - j] = conj(X[-a, j])."""
    x = g[:, :, None] if sp is None else g[:, :, None] * sp
    last, kl = len(k) - 1, k[-1]
    z = _fft.rfft_unitary(x, 3 + last)[..., :kl + 1]
    for a in range(last):
        z = _fft.fft_unitary(z, (3 + a,))
    pos, neg = z[..., :kl], z[..., kl:0:-1]
    for a in range(last):
        n = x.shape[3 + a]
        kept = np.r_[:k[a], n - k[a]:n]
        pos, neg = np.take(pos, kept, axis=3 + a), np.take(neg, -kept % n, axis=3 + a)
    out = np.empty(pos.shape[:-1] + (2 * kl,), dtype=np.complex128)
    out[..., :kl] = pos
    np.conj(neg, out=out[..., kl:])
    return out


def _expand_real(c: np.ndarray, k: tuple, extents: tuple) -> np.ndarray:
    """Re of the inverse FFT per slice of c zero-filled to `extents`: the
    other axis first, on the retained columns, then c2r along the last axis
    on the Hermitian part H[j] = (C[j] + conj(C[N - j])) / 2, j in [0, N/2].
    At k = N/2 the Nyquist bin N/2 is the first of the negative block."""
    z = c
    last, kl, n = len(k) - 1, k[-1], extents[-1]
    for a in range(last):
        z = _fft.ifft_unitary(_zero_filled(z, a, k[a], extents[a]), (3 + a,))
    h = np.zeros(z.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    h[..., :kl] = z[..., :kl]
    h[..., 1:kl + 1] += np.conj(z[..., kl:][..., ::-1])
    h[..., 0] += np.conj(z[..., 0])
    if 2 * kl == n:
        h[..., kl] += z[..., kl]
    h[..., :kl + 1] *= 0.5
    return _fft.irfft_unitary(h, n, 3 + last)


def spectral(f: T.Tensor, sp: Optional[T.Tensor], weights: T.Tensor, spec: str,
             pointwise: tuple, activation: Optional[str] = None) -> T.Tensor:
    """A spectral layer as one tape node, (batch, O, spatial...) for a real f:
    the real part of `synthesize(mix(lift(f, sp, k)), sp, k, extents)`, with
    the mix `tensor._contract(spec, ., weights)`, plus the pointwise path
    `linear(f, w, b)` of the pair `pointwise` = (w, b), all through the
    `activation` named in `T.ACTIVATION_KERNELS` (None for none). sp is
    None for a single slice of density one. The extents are f's spatial
    shape and k is half the weights' mode extents, (I, O, 2k..., M[, M]).

    The forward analyzes with `lift`'s c2c kernel, mixes, and synthesizes
    z = Re of the expansion with one c2r per line (`_expand_real`), so its
    values match the chain's to roundoff; z stays real, (batch, O, M,
    spatial...), and the node keeps it for the VJP's dsp when sp is given.
    The analysis is not r2c because the one-slice forward then ran at
    0.65-0.67 of `reference.fno_layer`, outside acceptance criterion 09's
    ratio band. It writes pre = w^T f + b (`_affine`) into a fresh buffer
    and adds sum_m sp z, then applies the activation's kernel, which
    overwrites pre with the node's output. The VJP applies the
    activation's gradient kernel to the output and its saved array first
    and takes the result g onto the half spectrum: the mix's gradient is
    `_analyze_real` of g, the lifted gradient is read through the weights'
    stored layout (`tensor._contract_grad_a`), and z2 = Re of its expansion
    is `_expand_real` again; then df = w g + sum_m sp z2, dsp = g z + z2 f,
    dw = sum f g^T (`_weight_grad`) and db = sum g, all real.
    """
    extents = f.shape[2:]
    k = _retained([n // 2 for n in weights.shape[2:f.ndim]], extents)
    if f.is_complex:
        raise ContractError("the spectral node takes a real field")
    act = T.ACTIVATION_KERNELS[activation]
    spd = None if sp is None else sp.data
    w = weights.data
    pw, b = pointwise
    lifted = _analyze(f.data, spd, k)
    z = _expand_real(T._contract(spec, lifted, w), k, extents)
    batch, channels = f.shape[:2]
    f3 = f.data.reshape(batch, channels, -1)
    pre = _affine(pw.data, b.data, f3).reshape((batch, w.shape[1]) + extents)
    pre += _reweight(z, spd)
    out, saved = (pre, None) if act is None else act[0](pre)
    if sp is None:
        z = None        # only the density's gradient reads the synthesis
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")

    def vjp(g):
        if act is not None:
            g = act[1](g, out, saved)
        dmixed = _analyze_real(g, spd, k)
        dw = (T._contract(f"{s_a},{s_out}->{s_b}", lifted, dmixed, conj_a=True)
              if weights.requires_grad else None)
        dsp = None
        if f.requires_grad or (sp is not None and sp.requires_grad):
            z2 = _expand_real(T._contract_grad_a(spec, dmixed, lifted.shape, w), k, extents)
            if sp is not None and sp.requires_grad:
                dsp = T._unbroadcast(g[:, :, None] * z, sp.shape)
                dsp += T._unbroadcast(z2 * f.data[:, :, None], sp.shape)
        g3 = g.reshape(batch, w.shape[1], -1)
        df = None
        if f.requires_grad:
            df = _reweight(z2, spd)
            df += np.matmul(pw.data, g3).reshape(f.shape)
        tail = (dw, _weight_grad(f3, g3) if pw.requires_grad else None,
                g3.sum(axis=(0, 2)) if b.requires_grad else None)
        return (df,) + tail if sp is None else (df, dsp) + tail

    parents = (f, weights, pw, b) if sp is None else (f, sp, weights, pw, b)
    return T._make(out, parents, vjp)


def _check_compatible(shape: tuple, p: np.ndarray) -> Grid:
    """The grid of density p, checked against data of shape (batch, channels, ...)."""
    grid = check_density(p)
    if shape[0] != p.shape[0]:
        raise ContractError(f"batch size {shape[0]} differs from the density's {p.shape[0]}")
    if p.shape[1] not in (1, shape[1]):
        raise ContractError(
            f"density has {p.shape[1]} channel heads; the data has {shape[1]} channels")
    return grid


def able_forward(f: T.Tensor, p: np.ndarray) -> LiftedCoefficients:
    """Analysis: FFT of the square-root-density-weighted field, one slice per m."""
    grid = _check_compatible(f.shape, p)
    if f.shape[2:] != grid.extents:
        raise ContractError(f"field spatial shape {f.shape[2:]} != density grid {grid.extents}")
    return LiftedCoefficients(lift(f, sqrt_density(p), [n // 2 for n in grid.extents]))


def able_inverse(c: LiftedCoefficients, p: np.ndarray) -> T.Tensor:
    """Synthesis: inverse FFT per slice, reweight by sqrt(p), sum over slices.

    The same formula is applied to any coefficients; on the image of the
    forward transform it is the exact left inverse.
    """
    grid = _check_compatible(c.values.shape, p)
    if c.values.shape[2:3] != p.shape[2:3]:
        raise ContractError("coefficient slice count does not match density")
    return synthesize(c.values, sqrt_density(p), [n // 2 for n in grid.extents], grid.extents)


# ---- diagnostics --------------------------------------------------------------

def density_entropy(p_values: np.ndarray) -> float:
    """Mean Shannon entropy over all grid points of a slice-major density array."""
    p = np.clip(np.asarray(p_values), 1e-300, 1.0)
    return float(np.mean(-(p * np.log(p)).sum(axis=2)))
