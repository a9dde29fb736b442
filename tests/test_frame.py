"""Density fields and the lifted transform: normalization, isometry, inverses."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from able import fft, frame, verify
from able import operator as op
from able import tensor as T
from able.errors import ContractError, DomainError, UnsupportedSizeError

from oracles import (assert_grad_matches, central_difference, central_difference_paired,
                     density_energies_direct, grid_norm_sq, inner, parseval_direct,
                     stencil_periodic, taped_activation, taped_add, taped_concatenate,
                     taped_contraction, taped_linear, taped_reshape, taped_scale)


def rng(seed):
    return np.random.default_rng(seed)


def slice_major(a, per_channel=False):
    """Point-major (batch, [C,] spatial..., M) -> the frame's (batch, 1 or C, M, spatial...)."""
    return np.moveaxis(a, -1, 2) if per_channel else np.moveaxis(a, -1, 1)[:, None]


def random_density(grid, m, batch=1, seed=0, channels=None):
    shape = (batch,) + ((channels,) if channels else ()) + grid.extents + (m,)
    e = rng(seed).standard_normal(shape) * 2.0
    return frame.density_from_energies(slice_major(e, channels is not None), 1.0)


# ---- grid / density types -----------------------------------------------------

def test_grid_rejects_non_power_of_two():
    with pytest.raises(UnsupportedSizeError):
        frame.Grid((12,))


def test_grid_rejects_extent_one():
    # a 1-point axis has no retained-mode blocks [0, k), [N - k, N) with k >= 1
    for extents in ((1,), (1, 16), (16, 1)):
        with pytest.raises(UnsupportedSizeError):
            frame.Grid(extents)


def test_grid_properties():
    g = frame.Grid((8, 16))
    assert g.dims == 2 and g.points == 128 and g.spacing == (0.125, 0.0625)


def test_check_density_rejects_bad_rows():
    for fill in (0.45, np.nan):
        bad = slice_major(np.full((1, 8, 2), fill))
        with pytest.raises(ContractError):
            frame.check_density(bad)


def test_density_from_energies_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        frame.density_from_energies(slice_major(np.zeros((1, 8, 2))), 0.0)


# ---- softmax density examples ---------------------------------------------------

def test_equal_energies_give_uniform():
    p = frame.density_from_energies(slice_major(np.zeros((1, 4, 2))), 1.0)
    assert np.allclose(p, 0.5, atol=1e-15)


def test_low_temperature_one_hot():
    e = np.zeros((1, 4, 2))
    e[..., 0] = 1.0
    p = frame.density_from_energies(slice_major(e), 1e-4)
    assert np.all(np.abs(p[:, :, 0] - 1.0) < 1e-10)
    assert np.all(p[:, :, 1] < 1e-10)


def test_high_temperature_uniform():
    e = np.zeros((1, 4, 3))
    e[..., 0], e[..., 1], e[..., 2] = 3.0, 1.0, -2.0
    p = frame.density_from_energies(slice_major(e), 1e6)
    assert np.max(np.abs(p - 1.0 / 3.0)) < 1e-6


def test_entropy_monotone_in_temperature():
    e = rng(5).standard_normal((1, 16, 4)) * 2
    entropies = [frame.density_entropy(frame.density_from_energies(slice_major(e), t))
                 for t in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_low_temperature_limit_max_entry():
    e = rng(6).standard_normal((1, 32, 4))
    p = frame.density_from_energies(slice_major(e), 1e-6)
    assert np.all(p.max(axis=2) >= 1.0 - 1e-6)


# ---- stencil features ------------------------------------------------------------

def stencil(x, kernel):
    """The density head's stencil kernel on one block: its taps, then the shifted sum."""
    return frame._shift_sum(*frame._taps([x], [kernel]))


def test_first_difference_stencil_against_direct_convolution():
    f = np.array([1.0, 2.0, 3.0, 4.0])
    got = stencil(f.reshape(1, 1, 4), frame.FIRST_DIFF_STENCIL)
    want = stencil_periodic(f, frame.FIRST_DIFF_STENCIL)
    assert np.allclose(got[0, 0], want)
    assert got[0, 0, 1] == pytest.approx(1.0)


def test_second_difference_annihilates_constants():
    f = np.full((1, 1, 8), 3.7)
    got = stencil(f, frame.SECOND_DIFF_STENCIL)
    assert np.max(np.abs(got)) < 1e-14


def test_random_stencil_matches_oracle():
    f = rng(9).standard_normal(16)
    for kernel in (frame.FIRST_DIFF_STENCIL, frame.SECOND_DIFF_STENCIL):
        got = stencil(f.reshape(1, 1, 16), kernel)[0, 0]
        assert np.allclose(got, stencil_periodic(f, kernel), atol=1e-14)


# ---- density network --------------------------------------------------------------

def density_head(seed, width, **settings):
    """The density head of a model of this width and these `ModelConfig` settings."""
    return frame.DensityNetwork(op.ModelConfig(width=width, **settings), rng(seed))


def test_zero_network_zero_energies():
    net = density_head(0, 2, slices=3, density_arch="mlp2", density_hidden=8)
    for w in net.weights:
        w.data[...] = 0.0
    e = net.energies(T.Tensor(np.zeros((2, 2, 8))))
    assert np.array_equal(e.data, np.zeros((2, 1, 3, 8)))


def test_fd4_network_shapes_and_channel_check():
    net = density_head(1, 3, slices=2, density_arch="fd4", density_hidden=16)
    out = net.energies(T.Tensor(rng(2).standard_normal((4, 3, 16))))
    assert out.shape == (4, 1, 2, 16)
    with pytest.raises(ContractError):
        net.energies(T.Tensor(np.zeros((4, 5, 16))))


def test_fd4_rejected_in_2d():
    with pytest.raises(ContractError):
        op.ModelConfig(ndim=2, density_arch="fd4", slices=2)
    op.ModelConfig(ndim=2, density_arch="fd4", slices=1)      # M = 1 builds no head


def test_per_channel_network_output_layout():
    net = density_head(3, 3, ndim=2, slices=4, density_arch="mlp2", density_hidden=8,
                       per_channel=True)
    out = net.energies(T.Tensor(rng(4).standard_normal((2, 3, 8, 8))))
    assert out.shape == (2, 3, 4, 8, 8)


# (arch, per_channel, residual, input shape): fd4 with and without its
# residual, mlp2, shared and per-channel heads, and mlp2 on a 2-D grid
DENSITY_HEADS = [
    ("fd4", False, True, (2, 3, 16)),
    ("fd4", False, False, (2, 3, 16)),
    ("fd4", True, True, (2, 3, 16)),
    ("mlp2", False, True, (2, 3, 16)),
    ("mlp2", True, True, (2, 3, 16)),
    ("mlp2", False, True, (2, 3, 8, 4)),
    ("mlp2", True, True, (2, 3, 8, 4)),
]


@pytest.mark.parametrize("arch,per_channel,residual,shape", DENSITY_HEADS)
def test_energies_match_per_point_oracle(arch, per_channel, residual, shape):
    net = density_head(5, shape[1], ndim=len(shape) - 2, slices=3, density_arch=arch,
                       density_hidden=8, per_channel=per_channel, residual=residual)
    f = rng(6).standard_normal(shape)
    got = net.energies(T.Tensor(f)).data
    want = density_energies_direct(f, [w.data for w in net.weights],
                                   [b.data for b in net.biases], slices=3, heads=net.heads,
                                   stencil=arch == "fd4", residual=residual)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def chain_roll(t, shift):
    """A periodic shift along the last axis as its own node: the reference chain's stencil tap."""
    return T._make(np.roll(t.data, shift, axis=-1), (t,), lambda g: (np.roll(g, -shift, axis=-1),))


def chain_stencil(t, kernel):
    k0, k1, k2 = kernel
    out = taped_scale(chain_roll(t, -1), k0)
    if k1 != 0.0:
        out = taped_add(out, taped_scale(t, k1))
    return taped_add(out, taped_scale(chain_roll(t, 1), k2))


def chain_energies(net, f):
    """The head as a chain of tape ops: stencil features and a ones channel
    concatenated, then one taped linear map per stage, slice-major at the end."""
    x = f
    if net.config.density_arch == "fd4":
        ones = T.Tensor(np.ones(f.shape[:1] + (1,) + f.shape[2:]))
        x = taped_concatenate([f, chain_stencil(f, frame.FIRST_DIFF_STENCIL),
                               chain_stencil(f, frame.SECOND_DIFF_STENCIL), ones], axis=1)
    hidden = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = taped_linear(x, w, b)
        if len(hidden) == 2 and net.config.residual:
            pre = taped_add(pre, hidden[0])
        x = taped_activation("silu", pre)
        hidden.append(x)
    out = taped_linear(x, net.weights[-1], net.biases[-1])
    return taped_reshape(out, (out.shape[0], net.heads, net.config.slices) + out.shape[2:])


def head_grads(net, build, f, g):
    """Gradients for f and then every weight and bias of loss sum(build(f) * g)."""
    params = net.weights + net.biases
    for p in params:
        p.grad = None
    ft = T.parameter(f)
    T.tape_backward(inner(build(ft), g))
    return [ft.grad] + [p.grad for p in params]


@pytest.mark.parametrize("arch,per_channel,residual,shape",
                         DENSITY_HEADS + [("fd4", True, False, (2, 3, 16))])
def test_energies_node_gradients_match_chain_and_central_differences(arch, per_channel,
                                                                     residual, shape):
    net = density_head(15, shape[1], ndim=len(shape) - 2, slices=3, density_arch=arch,
                       density_hidden=8, per_channel=per_channel, residual=residual)
    r = rng(16)
    for b in net.biases:
        b.data[...] = 0.1 * r.standard_normal(b.shape)
    f = r.standard_normal(shape)
    g = r.standard_normal(net.energies(T.Tensor(f)).shape)
    got = head_grads(net, net.energies, f, g)
    chain = head_grads(net, lambda ft: chain_energies(net, ft), f, g)

    def loss(a):
        return float(np.sum(net.energies(T.Tensor(a)).data * g))

    # central differences perturb each weight and bias in place
    fd = [central_difference(loss, f.copy())]
    fd += [central_difference(lambda _: loss(f), p.data) for p in net.weights + net.biases]
    for node, ref, diff in zip(got, chain, fd):
        assert node.shape == ref.shape == diff.shape
        assert np.max(np.abs(node - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(node - diff)) <= 1e-6 * np.max(np.abs(diff))


def test_energies_node_peaks_below_the_chain():
    # the burgers-1d training shapes: batch 20, width 16, 256 points, fd4, M=2
    net = density_head(17, 16, slices=2, density_arch="fd4", density_hidden=16)
    f = rng(18).standard_normal((20, 16, 256))
    g = rng(19).standard_normal((20, 1, 2, 256))

    def peak(build):
        head_grads(net, build, f, g)        # warm caches outside the trace
        tracemalloc.start()
        try:
            head_grads(net, build, f, g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(net.energies) < peak(lambda ft: chain_energies(net, ft))


def held_after(build):
    """The node build() returns and the bytes still allocated once it has
    returned: what the node and its VJP closure keep."""
    build()                                 # warm caches outside the trace
    tracemalloc.start()
    try:
        node = build()
        return node, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch", ["fd4", "mlp2"])
def test_density_head_keeps_each_stages_output_and_one_saved_array(arch):
    # the burgers-1d training shapes: batch 20, width 16, 256 points; the
    # silu overwrites each stage's pre-activation, which the node then drops
    net = density_head(39, 16, slices=2, density_arch=arch, density_hidden=16)
    f = T.parameter(rng(40).standard_normal((20, 16, 256)))
    out, held = held_after(lambda: net.energies(f))
    stages = [16, 8, 16] if arch == "fd4" else [16]
    stage_bytes = 8 * 20 * 256 * sum(stages)        # float64 (batch, width, points)
    assert out.requires_grad and held <= 1.1 * (out.data.nbytes + 2 * stage_bytes)


def test_density_network_initial_density_near_uniform():
    net = density_head(7, 2, slices=4, density_arch="mlp2", density_hidden=16)
    e = net.energies(T.Tensor(rng(8).standard_normal((2, 2, 32))))
    p = frame.density_from_energies(e.data, net.temperature)
    assert np.max(np.abs(p - 0.25)) < 0.2


# ---- the square-root density node ---------------------------------------------------

@pytest.mark.parametrize("learned", [False, True], ids=["fixed-T", "learned-T"])
@pytest.mark.parametrize("shape", [(2, 1, 3, 16), (2, 3, 2, 4, 8)],
                         ids=["shared-1d", "per-channel-2d"])
def test_sqrt_softmax_node_matches_density_from_energies_and_central_differences(shape,
                                                                                 learned):
    r = rng(95)
    arrays = [2.0 * r.standard_normal(shape), np.array(np.log(0.6))]
    g = r.standard_normal(shape)

    def node(et, log_t):
        return frame.sqrt_softmax(et, 0.6, log_t if learned else None)

    out, grads = node_grads(node, arrays, g)
    p = frame.density_from_energies(arrays[0], np.exp(arrays[1]) if learned else 0.6)
    assert np.array_equal(out, np.sqrt(p))
    assert (grads[1] is not None) == learned
    for i in range(1 + learned):
        def loss(a, i=i):
            return float(np.sum(node(*[T.Tensor(x) for x in arrays[:i] + [a] + arrays[i + 1:]])
                                .data * g))

        fd = central_difference(loss, arrays[i].copy())
        assert np.max(np.abs(grads[i] - fd)) <= 1e-6 * np.max(np.abs(fd)), i


def test_sqrt_softmax_keeps_a_finite_gradient_at_a_one_hot_density():
    # at T = 1e-3 the density is exactly one-hot; sqrt's derivative at 0 is
    # taken at SQRT_GRAD_EPS
    e = T.parameter(slice_major(np.array([[[1.0, 0.0]] * 4])))
    sp = frame.sqrt_softmax(e, 1e-3)
    assert np.array_equal(sp.data[:, :, 0], np.ones((1, 1, 4)))
    assert np.array_equal(sp.data[:, :, 1], np.zeros((1, 1, 4)))
    T.tape_backward(inner(sp, np.ones(sp.shape)))
    assert np.all(np.isfinite(e.grad))


def test_sqrt_density_rejects_a_negative_entry():
    values = slice_major(np.full((1, 8, 2), 0.5))
    values[0, 0, 0, 3], values[0, 0, 1, 3] = -1e-12, 1.0 + 1e-12
    frame.check_density(values)
    with pytest.raises(DomainError):
        frame.sqrt_density(values)


# ---- transform: Parseval / roundtrip ------------------------------------------------

def randc(shape, seed):
    r = rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def test_m1_uniform_density_reduces_to_plain_fft_bitwise():
    g = frame.Grid((32,))
    f = T.Tensor(randc((2, 3, 32), seed=10))
    p = frame.uniform_density(g, batch=2)
    lifted = frame.able_forward(f, p)
    plain = fft.fft_unitary(f.data, axes=(2,))
    assert np.max(np.abs(lifted.values.data[:, :, 0] - plain)) <= 1e-14
    back = frame.able_inverse(lifted, p)
    plain_back = fft.ifft_unitary(lifted.values.data[:, :, 0], axes=(2,))
    assert np.max(np.abs(back.data - plain_back)) <= 1e-14


def test_zero_field_zero_coefficients():
    g = frame.Grid((16,))
    p = random_density(g, 3, seed=11)
    out = frame.able_forward(T.Tensor(np.zeros((1, 1, 16))), p)
    assert np.all(out.values.data == 0)


def test_parseval_against_direct_sum():
    g = frame.Grid((64,))
    f = randc((1, 1, 64), seed=12)
    p = random_density(g, 4, seed=13)
    lifted = frame.able_forward(T.Tensor(f), p)
    lhs = parseval_direct(lifted.values.data)
    rhs = grid_norm_sq(f)
    assert abs(lhs - rhs) / rhs < 1e-10


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_isometry_and_left_inverse_1d(n, m):
    g = frame.Grid((n,))
    f = randc((2, 2, n), seed=n * 10 + m)
    p = random_density(g, m, batch=2, seed=n + m)
    coeff = frame.able_forward(T.Tensor(f), p).values.data
    assert verify.isometry_residual(f, coeff) < 1e-10
    assert verify.roundtrip_residual(f, coeff, p) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 4])
def test_isometry_and_left_inverse_2d(m):
    g = frame.Grid((8, 16))
    f = randc((1, 2, 8, 16), seed=50 + m)
    p = random_density(g, m, seed=60 + m)
    coeff = frame.able_forward(T.Tensor(f), p).values.data
    assert verify.isometry_residual(f, coeff) < 1e-10
    assert verify.roundtrip_residual(f, coeff, p) < 1e-10


def test_per_channel_roundtrip():
    g = frame.Grid((16,))
    f = randc((2, 3, 16), seed=70)
    p = random_density(g, 2, batch=2, seed=71, channels=3)
    coeff = frame.able_forward(T.Tensor(f), p).values.data
    assert verify.roundtrip_residual(f, coeff, p) < 1e-10


def test_one_hot_partition_step_roundtrip_exact():
    # indicator densities: sqrt is the indicator itself, so the roundtrip is
    # sum_m 1_m * ifft(fft(1_m * f)) = sum_m 1_m * f = f
    n = 16
    pv = np.zeros((1, n, 2))
    pv[0, : n // 2, 0] = 1.0
    pv[0, n // 2:, 1] = 1.0
    p = slice_major(pv)
    f = np.where(np.arange(n) < n // 2, 1.0, -2.0).reshape(1, 1, n)
    back = frame.able_inverse(frame.able_forward(T.Tensor(f), p), p)
    direct = sum(
        fft.ifft_unitary(fft.fft_unitary((pv[0, :, m] * f[0, 0]).astype(complex), (0,)), (0,))
        * pv[0, :, m]
        for m in range(2)
    )
    assert np.max(np.abs(back.data[0, 0] - f[0, 0])) < 1e-12
    assert np.max(np.abs(back.data[0, 0] - direct)) < 1e-12


def test_forward_rejects_invalid_density():
    bad = slice_major(np.full((1, 8, 2), 0.4))
    with pytest.raises(ContractError):
        frame.able_forward(T.Tensor(np.zeros((1, 1, 8))), bad)


def test_forward_rejects_grid_mismatch():
    g = frame.Grid((8,))
    p = random_density(g, 2, seed=80)
    with pytest.raises(ContractError):
        frame.able_forward(T.Tensor(np.zeros((1, 1, 16))), p)


def _lifted(batch, m, n=8):
    return frame.LiftedCoefficients(T.Tensor(randc((batch, 3, m, n), seed=81)))


FRAME_REFUSALS = {
    "field-batch-off-density": lambda p: frame.able_forward(T.Tensor(np.zeros((1, 3, 8))), p),
    "field-rank-off-density": lambda p: frame.able_forward(T.Tensor(np.zeros((2, 3, 8, 8))), p),
    "heads-neither-one-nor-channels": lambda p: frame.able_forward(
        T.Tensor(np.zeros((2, 2, 8))), random_density(frame.Grid((8,)), 2, 2, 82, channels=3)),
    "coefficient-slices-off-density": lambda p: frame.able_inverse(_lifted(2, 3), p),
    "coefficient-batch-off-density": lambda p: frame.able_inverse(_lifted(1, 2), p),
    "density-rank": lambda p: frame.check_density(p[:, 0]),
    "row-outside-unit-interval": lambda p: frame.check_density(
        slice_major(np.tile([1.5, -0.5], (2, 8, 1)))),
}


@pytest.mark.parametrize("case", list(FRAME_REFUSALS))
def test_frame_api_refusals(case):
    p = random_density(frame.Grid((8,)), 2, batch=2, seed=80)
    with pytest.raises(ContractError):
        FRAME_REFUSALS[case](p)


def test_gradient_flows_through_density_path():
    net = density_head(90, 1, slices=2, density_arch="mlp2", density_hidden=8)
    f = T.Tensor(rng(91).standard_normal((1, 1, 16)))
    sp = frame.sqrt_softmax(net.energies(f), net.temperature)
    T.tape_backward(inner(frame.lift(f, sp, [8]), randc((1, 1, 2, 16), seed=92)))
    grads = [w.grad for w in net.weights]
    assert all(g is not None for g in grads)
    assert any(np.max(np.abs(g)) > 1e-12 for g in grads)


# ---- lift / synthesize as tape nodes ---------------------------------------------

NODE_EXTENTS = {1: (8,), 2: (4, 8)}


def ones_density(extents):
    """The square-root density of a single slice of density one."""
    return np.ones((1, 1, 1) + tuple(extents))


def node_case(ndim, heads, truncated, seed):
    """Extents, per-axis retained-mode counts and a square-root density
    (one slice of ones for None, else 3 slices on 1 or 2 heads)."""
    extents = NODE_EXTENTS[ndim]
    modes = [min(2, n // 2 - 1) if truncated else n // 2 for n in extents]
    sp = ones_density(extents) if heads is None else rng(seed).random((1, heads, 3) + extents) + 0.1
    return extents, modes, sp


@pytest.mark.parametrize("truncated", [True, False], ids=["truncated", "full"])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("heads", [None, 1, 2], ids=["sp-none", "shared", "per-channel"])
@pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
def test_lift_and_synthesize_gradients(ndim, heads, dtype, truncated):
    extents, modes, sp = node_case(ndim, heads, truncated, seed=100)
    m = sp.shape[2]
    kept = tuple(2 * k for k in modes)
    f = randc((1, 2) + extents, seed=101)
    c = randc((1, 2, m) + kept, seed=102)
    f, c = (f, c) if dtype is complex else (f.real.copy(), c.real.copy())
    w_lift = randc(c.shape, seed=103)
    w_syn = randc(f.shape, seed=104)

    def lift_loss(x, s):
        return inner(frame.lift(x, s, modes), w_lift)

    def synthesize_loss(x, s):
        return inner(frame.synthesize(x, s, modes, extents), w_syn)

    for loss, x0 in ((lift_loss, f), (synthesize_loss, c)):
        assert_grad_matches(lambda t: loss(t, T.Tensor(sp)), x0)
        assert_grad_matches(lambda t: loss(T.Tensor(x0), t), sp)


@pytest.mark.parametrize("heads", [None, 1, 2], ids=["sp-none", "shared", "per-channel"])
@pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
def test_synthesize_is_adjoint_of_lift(ndim, heads):
    extents, modes, sp = node_case(ndim, heads, truncated=True, seed=110)
    f = randc((1, 2) + extents, seed=111)
    c = randc((1, 2, sp.shape[2]) + tuple(2 * k for k in modes), seed=112)
    s = T.Tensor(sp)
    lhs = np.vdot(c, frame.lift(T.Tensor(f), s, modes).data)
    rhs = np.vdot(frame.synthesize(T.Tensor(c), s, modes, extents).data, f)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(c)


@settings(max_examples=20, deadline=None)
@given(
    exp=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(0, 9999),
)
def test_isometry_property(exp, m, seed):
    n = 2**exp
    g = frame.Grid((n,))
    f = randc((1, 1, n), seed=seed)
    p = random_density(g, m, seed=seed + 1)
    assert verify.isometry_residual(f, frame.able_forward(T.Tensor(f), p).values.data) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(0, 9999),
)
def test_density_normalization_property(t, seed):
    e = rng(seed).standard_normal((2, 8, 5)) * 4
    p = frame.density_from_energies(slice_major(e), t)
    assert np.max(np.abs(p.sum(axis=2) - 1.0)) < 1e-10
    frame.check_density(p)


# ---- pruned transform: bitwise against the all-axes FFT ----------------------------

def kept_modes(extents, truncated):
    """The operator layers' truncation (two lowest nonnegative and two lowest
    negative wavenumbers per axis), or the full spectrum, as per-axis k."""
    return [2 if truncated else n // 2 for n in extents]


def oracle_mesh(k, extents):
    """The all-axes index of the retained modes, from the operator's oracle."""
    return (slice(None),) * 3 + np.ix_(*[op.mode_indices(kk, n) for kk, n in zip(k, extents)])


@pytest.mark.parametrize("truncated", [True, False], ids=["truncated", "full"])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("extents", [(16,), (16, 16), (8, 32), (32, 16)], ids=str)
def test_lift_and_synthesize_bitwise_equal_all_axes_fft(extents, m, dtype, truncated):
    modes = kept_modes(extents, truncated)
    mesh = oracle_mesh(modes, extents)
    axes = tuple(range(3, 3 + len(extents)))
    f = randc((2, 3) + extents, seed=120)
    f = f if dtype is complex else f.real.copy()
    # f * 1.0 and a one-slice sum are exact, so M = 1 stays bitwise the plain FFT
    sp = ones_density(extents) if m == 1 else rng(121).random((2, 1, m) + extents) + 0.1
    s = T.Tensor(sp)
    lifted = fft.fft_unitary(f[:, :, None] * sp, axes)[mesh]
    assert np.array_equal(frame.lift(T.Tensor(f), s, modes).data, lifted)

    c = randc(lifted.shape, seed=122)
    c = c if dtype is complex else c.real.copy()
    full = np.zeros(c.shape[:3] + extents, dtype=complex)
    full[mesh] = c
    assert_synthesis_matches(c, s, modes, extents, (fft.ifft_unitary(full, axes) * sp).sum(axis=2))


def assert_synthesis_matches(c, s, k, extents, want):
    """`synthesize` against the all-axes inverse FFT to 1e-15 of its largest
    magnitude (it expands by parts on the c2r kernel, so it agrees to
    roundoff, not bitwise), and its real part bitwise the layer's synthesis."""
    got = frame.synthesize(T.Tensor(c), s, k, extents).data
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), k
    layer = frame._reweight(frame._expand_real(c, tuple(k), tuple(extents)), s.data)
    assert np.array_equal(got.real, layer), k


def record_fft_calls(monkeypatch):
    """Record (name, input shape, axis arguments...) of every unitary transform."""
    calls = []
    for name in ("fft_unitary", "ifft_unitary", "rfft_unitary", "irfft_unitary"):
        def spy(a, *args, _inner=getattr(fft, name), _name=name):
            calls.append((_name, np.shape(a)) + args)
            return _inner(a, *args)
        monkeypatch.setattr(fft, name, spy)
    return calls


def test_2d_transform_runs_later_passes_on_retained_lines_only(monkeypatch):
    extents = (64, 64)
    modes = [8, 8]     # k_max 8 on each axis: 16 of 64 modes
    f = T.Tensor(randc((1, 2) + extents, seed=130))
    s = T.Tensor(ones_density(extents))
    calls = record_fft_calls(monkeypatch)
    c = frame.lift(f, s, modes)
    assert calls == [("fft_unitary", (1, 2, 1, 64, 64), (4,)),
                     ("fft_unitary", (1, 2, 1, 64, 16), (3,))]
    calls.clear()
    frame.synthesize(c, s, modes, extents)
    # the real and the imaginary part: the other axis zero-filled, then one
    # c2r along the last axis on its 8 + 1 Hermitian bins, padded to 33
    by_part = [("ifft_unitary", (1, 2, 1, 64, 16), (3,)),
               ("irfft_unitary", (1, 2, 1, 64, 33), 64, 4)]
    assert calls == by_part + by_part


# ---- retained modes as per-axis slice blocks ----------------------------------------

@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("extents", [(16,), (8, 32), (32, 16)], ids=str)
def test_lift_and_synthesize_bitwise_equal_oracle_index_for_every_k(extents, m, dtype):
    # every per-axis k in 1..N/2, so in 2-D also one axis whole (2k = N) and
    # the other truncated
    axes = tuple(range(3, 3 + len(extents)))
    f = randc((2, 3) + extents, seed=140)
    f = f if dtype is complex else f.real.copy()
    sp = ones_density(extents) if m == 1 else rng(141).random((2, 1, m) + extents) + 0.1
    s = T.Tensor(sp)
    spectrum = fft.fft_unitary(f[:, :, None] * sp, axes)
    for k in itertools.product(*[range(1, n // 2 + 1) for n in extents]):
        mesh = oracle_mesh(k, extents)
        assert np.array_equal(frame.lift(T.Tensor(f), s, k).data, spectrum[mesh]), k

        c = randc(spectrum[mesh].shape, seed=142)
        c = c if dtype is complex else c.real.copy()
        full = np.zeros(c.shape[:3] + extents, dtype=complex)
        full[mesh] = c
        assert_synthesis_matches(c, s, k, extents, (fft.ifft_unitary(full, axes) * sp).sum(axis=2))


@pytest.mark.parametrize("extents,k", [((16,), (2,)), ((16,), (8,)), ((8, 32), (2, 4)),
                                       ((8, 32), (4, 4)), ((8, 32), (4, 16))], ids=str)
def test_synthesize_of_slice_outermost_coefficients_is_bitwise_its_contiguous_copy(extents, k):
    # the diagonal mix (`tensor._contract`) returns its output with the slice axis outermost;
    # equal strides keep sums over the output in one order, whatever the layout
    kept = tuple(2 * kk for kk in k)
    # (slice and channel axes ahead of the batch axis in memory, so a single
    # slice is not contiguous either)
    spatial = tuple(range(3, 3 + len(k)))
    c = np.transpose(randc((2, 3, 2) + kept, seed=150), (2, 1, 0) + spatial)
    assert c.shape == (2, 3, 2) + kept and not c[:, :, :1].flags.c_contiguous
    for s in (T.Tensor(ones_density(extents)),
              T.Tensor(rng(151).random((2, 1, 2) + extents) + 0.1)):
        cc = c[:, :, :s.shape[2]]
        got = frame.synthesize(T.Tensor(cc), s, k, extents).data
        want = frame.synthesize(T.Tensor(np.ascontiguousarray(cc)), s, k, extents).data
        assert np.array_equal(got, want) and got.strides == want.strides


@pytest.mark.parametrize("extents,k", [((16,), [0]), ((16,), [9]), ((16,), [4, 4]),
                                       ((8, 32), [4]), ((8, 32), [5, 4]), ((8, 32), [2, 0])],
                         ids=["k0", "2k>N", "1d-two-ks", "2d-one-k", "2d-2k>N", "2d-k0"])
def test_bad_k_is_contract_error(extents, k):
    f = T.Tensor(randc((1, 2) + extents, seed=160))
    s = T.Tensor(ones_density(extents))
    with pytest.raises(ContractError):
        frame.lift(f, s, k)
    c = T.Tensor(randc((1, 2, 1) + tuple(n // 2 for n in extents), seed=161))
    with pytest.raises(ContractError):
        frame.synthesize(c, s, k, extents)


def test_synthesize_rejects_coefficients_that_do_not_match_k():
    c = T.Tensor(randc((1, 2, 1, 8), seed=162))
    with pytest.raises(ContractError):
        frame.synthesize(c, T.Tensor(ones_density((16,))), [2], (16,))


@pytest.mark.parametrize("extents,k", [((256,), (12,)), ((16, 32), (2, 4)), ((8, 32), (4, 4))],
                         ids=str)
def test_lift_holds_only_the_kept_modes(extents, k):
    # the tape keeps lift's output alive; a view into the full spectrum would
    # keep the whole spectrum alive with it
    f = T.Tensor(randc((2, 3) + extents, seed=170))
    for sp in (T.Tensor(ones_density(extents)),
               T.Tensor(rng(171).random((2, 1, 2) + extents) + 0.1)):
        c = frame.lift(f, sp, k).data
        owner = c
        while owner.base is not None:
            owner = owner.base
        assert c.shape[3:] == tuple(2 * kk for kk in k) and owner.nbytes == c.nbytes


# ---- one spectral node per layer ----------------------------------------------------

def chain_real_part(c):
    """The real part of a complex tensor as its own node: the reference chain's last step."""
    return T._make(np.ascontiguousarray(c.data.real), (c,), lambda g: (g.astype(np.complex128),))


def spectral_chain(spec, k, extents):
    """The spectral path as a chain, lift -> taped mix -> synthesize -> real
    part, one node per step, for (field, square-root density, weights); a
    density of None, the one-slice layer's, is a slice of ones."""
    def chain(ft, st, wt):
        s = T.Tensor(ones_density(extents)) if st is None else st
        mixed = taped_contraction(spec, frame.lift(ft, s, k), wt)
        return chain_real_part(frame.synthesize(mixed, s, k, extents))

    return chain


def pointwise_pair(channels, seed):
    """A pointwise map (weights, bias) for a layer of `channels` channels."""
    r = rng(seed)
    return r.standard_normal((channels, channels)), 0.5 * r.standard_normal(channels)


def spectral_case(extents, k, m, kind, heads, seed, stored=True, batch=2, channels=3):
    """Field, square-root density (None for M = 1), weights and mix spec of one layer's path."""
    r = rng(seed)
    cin = cout = channels
    f = r.standard_normal((batch, cin) + extents)
    sp = None
    if m > 1:
        p = r.random((batch, heads, m) + extents) + 0.05
        sp = np.sqrt(p / p.sum(axis=2, keepdims=True))
    spec = op.mix_spec(kind, len(extents))
    shape = (cin, cout) + tuple(2 * kk for kk in k) + ((m, m) if kind == "cross" else (m,))
    w = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    if stored:
        order = T._matmul_plan(spec, (1, cin, m) + shape[2:2 + len(k)], shape)[2]
        w = np.ascontiguousarray(w.transpose(order)).transpose(np.argsort(order))
    return f, sp, w, spec


def node_grads(build, arrays, g):
    """Output and gradients of loss sum(build(*leaves) * g) for every array
    that is not None, each array a leaf of its own."""
    leaves = [None if a is None else T.parameter(a) for a in arrays]
    out = build(*leaves)
    T.tape_backward(inner(out, g))
    return out.data, [x.grad for x in leaves if x is not None]


SPECTRAL_GRIDS = [((16,), (3,)), ((16,), (8,)), ((32,), (5,)), ((32,), (16,)),
                  ((16, 32), (3, 5)), ((16, 32), (8, 5)), ((16, 32), (3, 16)),
                  ((16, 32), (8, 16))]
SPECTRAL_DENSITIES = [(1, None), (2, 1), (2, 3), (3, 1), (3, 3)]    # (M, heads)


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
@pytest.mark.parametrize("m,heads", SPECTRAL_DENSITIES,
                         ids=["M1", "M2-shared", "M2-perchannel", "M3-shared", "M3-perchannel"])
@pytest.mark.parametrize("extents,k", SPECTRAL_GRIDS, ids=str)
def test_spectral_node_matches_lift_mix_synthesize_chain(extents, k, m, heads, kind):
    # k = N/2 on an axis puts the Nyquist bin in the negative block, where the
    # half-spectrum synthesis, forward and VJP, has to count it once from each side
    f, sp, w, spec = spectral_case(extents, k, m, kind, heads, seed=sum(extents) + 10 * sum(k) + m)
    g = rng(5).standard_normal((f.shape[0], w.shape[1]) + extents)
    arrays = [f, sp, w, *pointwise_pair(f.shape[1], seed=4)]
    spectral_path = spectral_chain(spec, k, extents)

    def chain(ft, st, wt, pwt, bt):
        return taped_add(spectral_path(ft, st, wt), taped_linear(ft, pwt, bt))

    out, grads = node_grads(
        lambda ft, st, wt, pwt, bt: frame.spectral(ft, st, wt, spec, (pwt, bt)), arrays, g)
    want_out, want_grads = node_grads(chain, arrays, g)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - want_out)) <= 1e-14 * np.max(np.abs(want_out))
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spectral_node_runs_the_pruned_passes(monkeypatch):
    # k_max 8 at 64 x 64, M = 2: the c2c analysis keeps 16 columns after its
    # first pass, the c2r synthesis zero-fills those 16 before its first, and
    # the VJP's r2c analysis keeps bins [0, 8] of the last axis
    f, sp, w, spec = spectral_case((64, 64), (8, 8), 2, "diagonal", 1, seed=133,
                                   batch=1, channels=2)
    leaves = [T.parameter(a) for a in (f, sp, w, *pointwise_pair(2, seed=134))]
    calls = record_fft_calls(monkeypatch)
    out = frame.spectral(leaves[0], leaves[1], leaves[2], spec, tuple(leaves[3:]))
    synthesis = [("ifft_unitary", (1, 2, 2, 64, 16), (3,)),
                 ("irfft_unitary", (1, 2, 2, 64, 33), 64, 4)]
    assert calls == [("fft_unitary", (1, 2, 2, 64, 64), (4,)),
                     ("fft_unitary", (1, 2, 2, 64, 16), (3,))] + synthesis
    calls.clear()
    T.tape_backward(inner(out, rng(135).standard_normal(out.shape)))
    assert calls == [("rfft_unitary", (1, 2, 2, 64, 64), 4),
                     ("fft_unitary", (1, 2, 2, 64, 9), (3,))] + synthesis


@pytest.mark.parametrize("extents,k", [((16,), (8,)), ((16, 32), (3, 16))], ids=str)
def test_spectral_node_canonical_weight_layout_and_partial_parents(extents, k):
    # weights not in the mix's stored layout, and a field that needs no gradient
    f, sp, w, spec = spectral_case(extents, k, 2, "cross", 1, seed=9, stored=False)
    g = rng(6).standard_normal(f.shape)
    pw, b = pointwise_pair(f.shape[1], seed=4)
    got = [T.Tensor(f), T.parameter(sp), T.parameter(w)]
    T.tape_backward(inner(frame.spectral(*got, spec, (T.Tensor(pw), T.Tensor(b))), g))
    _, want = node_grads(spectral_chain(spec, k, extents), [f, sp, w], g)
    assert got[0].grad is None
    for leaf, ref in zip(got[1:], want[1:]):
        assert np.max(np.abs(leaf.grad - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_spectral_node_rejects_a_complex_field():
    f, sp, w, spec = spectral_case((16,), (4,), 2, "diagonal", 1, seed=3)
    pw, b = pointwise_pair(f.shape[1], seed=4)
    with pytest.raises(ContractError):
        frame.spectral(T.Tensor(f + 0j), T.Tensor(sp), T.Tensor(w), spec,
                       (T.Tensor(pw), T.Tensor(b)))


def test_spectral_node_holds_a_real_synthesis():
    # the burgers-1d training shapes: batch 20, width 16, 256 points, k = 12, M=2.
    # The node keeps its output, the synthesis z the VJP reads for dsp, real
    # (batch, O, M, N), and the lifted coefficients, not a complex z.
    extents, k = (256,), (12,)
    f, sp, w, spec = spectral_case(extents, k, 2, "diagonal", 1, seed=21, batch=20,
                                   channels=16)
    leaves = [T.parameter(a) for a in (f, sp, w, *pointwise_pair(16, seed=22))]
    out, held = held_after(lambda: frame.spectral(*leaves[:3], spec, tuple(leaves[3:])))
    real_z = 8 * 20 * 16 * 2 * 256                   # float64 (batch, O, M, N)
    lifted = 16 * 20 * 16 * 2 * (2 * k[0])           # complex128 (batch, C, M, modes)
    assert out.requires_grad and held <= 1.1 * (out.data.nbytes + real_z + lifted)


def test_spectral_node_keeps_its_output_and_one_saved_array():
    # with no density the node keeps no synthesis either: only the lifted
    # coefficients besides the activation's output and its sigmoid
    f, _, w, spec = spectral_case((256,), (12,), 1, "diagonal", 1, seed=37, batch=20,
                                  channels=16)
    r = rng(38)
    f, w, pw, b = (T.parameter(a) for a in (f, w, r.standard_normal((16, 16)),
                                             r.standard_normal(16)))
    out, held = held_after(lambda: frame.spectral(f, None, w, spec, (pw, b), "gelu"))
    lifted = 16 * 20 * 16 * 1 * 24                  # complex128 (batch, C, M, modes)
    assert out.requires_grad and held <= 1.1 * (2 * out.data.nbytes + lifted)


# ---- the layer tail inside the spectral node and the linear node -------------------

LAYER_GRIDS = [((8,), (3,)), ((4, 8), (1, 3))]


@pytest.mark.parametrize("activation", list(T.ACTIVATION_KERNELS), ids=str)
@pytest.mark.parametrize("kind", ["diagonal", "cross"])
@pytest.mark.parametrize("m", [1, 2], ids=["M1", "M2"])
@pytest.mark.parametrize("extents,k", LAYER_GRIDS, ids=str)
def test_layer_node_matches_spectral_linear_add_activation_chain(extents, k, m, kind,
                                                                 activation):
    f, sp, w, spec = spectral_case(extents, k, m, kind, 1, seed=sum(extents) + m, batch=1,
                                   channels=2)
    r = rng(7)
    arrays = [f, sp, w, r.standard_normal((2, 2)), 0.5 * r.standard_normal(2)]
    g = r.standard_normal(f.shape)

    def node(ft, st, wt, pwt, bt):
        return frame.spectral(ft, st, wt, spec, (pwt, bt), activation)

    spectral_path = spectral_chain(spec, k, extents)

    def chain(ft, st, wt, pwt, bt):
        return chain_activation(activation, taped_add(
            spectral_path(ft, st, wt), taped_linear(ft, pwt, bt)))

    out, grads = node_grads(node, arrays, g)
    want_out, want_grads = node_grads(chain, arrays, g)
    assert np.max(np.abs(out - want_out)) <= 1e-12 * np.max(np.abs(want_out))
    present = [i for i, a in enumerate(arrays) if a is not None]
    for i, got, want in zip(present, grads, want_grads):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), i

        def loss(a, i=i):
            args = [None if x is None else T.Tensor(x) for x in arrays[:i] + [a] + arrays[i + 1:]]
            return float(np.sum(node(*args).data * g))

        fd = central_difference_paired(loss, arrays[i])
        assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd)), i


@pytest.mark.parametrize("activation", ["relu", "silu", "gelu"])
@pytest.mark.parametrize("m", [1, 2], ids=["M1", "M2"])
def test_layer_node_reaches_activation_limits_without_overflow_warnings(m, activation):
    # zero spectral weights and an identity pointwise map make the
    # pre-activation the field itself, one extreme value per batch entry
    values = np.array([-1e4, -800.0, -30.0, 0.0, 30.0, 800.0])
    f = np.repeat(values[:, None, None], 2, axis=2)
    _, sp, w, spec = spectral_case((2,), (1,), m, "diagonal", 1, seed=4, batch=6, channels=1)
    arrays = [f, sp, np.zeros_like(w), np.eye(1), np.zeros(1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, grads = node_grads(lambda ft, st, wt, pwt, bt: frame.spectral(
            ft, st, wt, spec, (pwt, bt), activation), arrays, np.ones(f.shape))
    slope = np.where(f > 0, 1.0, 0.0) + (0.0 if activation == "relu" else 0.5) * (f == 0)
    assert all(np.all(np.isfinite(x)) for x in [out] + grads)
    assert np.allclose(out, np.maximum(f, 0.0), rtol=1e-12, atol=1e-10)
    assert np.allclose(grads[0], slope, rtol=1e-12, atol=1e-10)
    assert np.allclose(grads[-2], np.sum(f * slope), rtol=1e-12, atol=1e-10)
    assert np.allclose(grads[-1], np.sum(slope), rtol=1e-12, atol=1e-10)


def chain_activation(name, t):
    """The activation `name` as its own node after the chain; none for None or "none"."""
    return t if T.ACTIVATION_KERNELS[name] is None else taped_activation(name, t)


@pytest.mark.parametrize("activation", list(T.ACTIVATION_KERNELS), ids=str)
@pytest.mark.parametrize("shape", [(3, 2, 8), (2, 3, 4, 8)], ids=["1d", "2d"])
def test_linear_node_matches_the_taped_chain(shape, activation):
    r = rng(8)
    arrays = [r.standard_normal(shape), r.standard_normal((shape[1], 4)),
              r.standard_normal(4)]
    g = r.standard_normal((shape[0], 4) + shape[2:])
    out, grads = node_grads(lambda x, w, b: frame.linear(x, w, b, activation), arrays, g)
    want_out, want_grads = node_grads(
        lambda x, w, b: chain_activation(activation, taped_linear(x, w, b)), arrays, g)
    assert out.shape == want_out.shape
    assert np.max(np.abs(out - want_out)) <= 1e-13 * np.max(np.abs(want_out))
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linear_node_skips_parents_without_grad():
    x, w, b = T.Tensor(np.ones((2, 3, 4))), T.parameter(np.ones((3, 2))), T.Tensor(np.ones(2))
    dx, dw, db = frame.linear(x, w, b)._vjp(np.ones((2, 2, 4)))
    assert dx is None and db is None and np.array_equal(dw, np.full((3, 2), 8.0))


def test_linear_node_keeps_its_output_and_one_saved_array():
    # the burgers-1d projection shapes: batch 20, width 16 -> 64, 256 points
    r = rng(36)
    x, w, b = (T.parameter(a) for a in (r.standard_normal((20, 16, 256)),
                                         r.standard_normal((16, 64)), r.standard_normal(64)))
    out, held = held_after(lambda: frame.linear(x, w, b, "gelu"))
    assert out.requires_grad and held <= 1.1 * 2 * out.data.nbytes


# ---- activations overwrite only their nodes' own buffers ---------------------------

def leaves_stay_unchanged(build, arrays, g):
    """Run build on leaves made from copies of `arrays`, forward without the
    tape and then forward and backward on it, and check that every leaf's
    data still holds the bytes of the array it was made from."""
    leaves = [None if a is None else T.parameter(a.copy()) for a in arrays]
    with T.no_grad():
        build(*leaves)
    T.tape_backward(inner(build(*leaves), g))
    for leaf, a in zip(leaves, arrays):
        assert leaf is None or leaf.data.tobytes() == a.tobytes()


@pytest.mark.parametrize("activation", list(T.ACTIVATION_KERNELS), ids=str)
def test_linear_node_leaves_its_inputs_unchanged(activation):
    r = rng(30)
    arrays = [r.standard_normal((2, 3, 8)), r.standard_normal((3, 4)), r.standard_normal(4)]
    leaves_stay_unchanged(lambda x, w, b: frame.linear(x, w, b, activation), arrays,
                          r.standard_normal((2, 4, 8)))


@pytest.mark.parametrize("activation", list(T.ACTIVATION_KERNELS), ids=str)
@pytest.mark.parametrize("m", [1, 2], ids=["M1", "M2"])
def test_spectral_node_leaves_its_inputs_unchanged(m, activation):
    f, sp, w, spec = spectral_case((16,), (3,), m, "diagonal", 1, seed=31)
    r = rng(32)
    tail = [r.standard_normal((3, 3)), r.standard_normal(3)]

    def build(ft, st, wt, pwt, bt):
        return frame.spectral(ft, st, wt, spec, (pwt, bt), activation)

    leaves_stay_unchanged(build, [f, sp, w] + tail, r.standard_normal(f.shape))


@pytest.mark.parametrize("arch", ["fd4", "mlp2"])
def test_density_head_leaves_its_inputs_unchanged(arch):
    net = density_head(33, 3, slices=2, density_arch=arch, density_hidden=8)
    params = net.weights + net.biases
    before = [p.data.copy() for p in params]
    f = rng(34).standard_normal((2, 3, 16))
    leaves_stay_unchanged(net.energies, [f], rng(35).standard_normal((2, 1, 2, 16)))
    assert all(p.data.tobytes() == a.tobytes() for p, a in zip(params, before))
