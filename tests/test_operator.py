"""Spectral layers against the dense-kernel oracle and the Fourier reference."""

import tracemalloc

import numpy as np
import pytest

from able import dataio
from able import operator as op
from able import tensor as T
from able import verify
from able.errors import ContractError
from able.frame import DensityNetConfig, Grid, check_density
from able.training import gradient_check, relative_l2, restore_network

from oracles import sq_norm


def rng(seed):
    return np.random.default_rng(seed)


def make_layer(cin=2, cout=2, k_max=4, ndim=1, slices=2, kind="diagonal",
               temperature=0.8, arch="mlp2", activation=None, per_channel=False,
               seed=0):
    cfg = DensityNetConfig(slices=slices, arch=arch, hidden=8,
                           temperature=temperature, per_channel=per_channel)
    return op.AbleLayer(cin, cout, k_max, ndim, density=cfg, kind=kind,
                        activation=activation, rng=rng(seed))


# ---- mode truncation ---------------------------------------------------------

def test_mode_indices_corner_layout():
    assert np.array_equal(op.mode_indices(2, 8), [0, 1, 6, 7])
    assert np.array_equal(op.mode_indices(4, 8), np.arange(8))


def test_mode_indices_rejects_oversized():
    with pytest.raises(ContractError):
        op.mode_indices(5, 8)


def test_layer_rejects_kmax_exceeding_grid():
    layer = make_layer(k_max=8)
    with pytest.raises(ContractError):
        layer(T.Tensor(rng(0).standard_normal((1, 2, 8))))


# ---- FNO reduction -------------------------------------------------------------

@pytest.mark.parametrize("ndim,n", [(1, 16), (2, 8)])
def test_m1_layer_matches_reference_fno(ndim, n):
    for draw in range(10):
        layer = make_layer(cin=2, cout=3, k_max=3, ndim=ndim, slices=1, seed=draw)
        f = rng(100 + draw).standard_normal((2, 2) + (n,) * ndim)
        assert verify.fno_residual(layer, f) < 1e-12


def test_resolution_of_identity():
    # identity multiplier on the full spectrum + any density acts as identity
    n, m, c = 16, 3, 2
    layer = make_layer(cin=c, cout=c, k_max=n // 2, slices=m, seed=3)
    assert verify.identity_residual(layer, rng(4).standard_normal((2, c, n))) < 1e-10


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
def test_zero_spectral_weights_identity_pointwise(kind):
    layer = make_layer(cin=2, cout=2, k_max=4, ndim=1, slices=2, kind=kind, seed=5)
    layer.multiplier.weights.data[...] = 0.0
    layer.pointwise.data[...] = np.eye(2)
    layer.bias.data[...] = 0.0
    f = rng(6).standard_normal((1, 2, 16))
    assert np.max(np.abs(layer(T.Tensor(f)).data - f)) < 1e-14


# ---- dense kernel oracle ---------------------------------------------------------

@pytest.mark.parametrize("kind", ["diagonal", "cross"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16])
def test_layer_matches_dense_oracle_1d(kind, m, n):
    layer = make_layer(cin=2, cout=2, k_max=2, ndim=1, slices=m, kind=kind,
                       seed=10 * m + n)
    assert verify.dense_kernel_residual(layer, rng(7 * m + n).standard_normal((2, 2, n))) < 1e-8


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_layer_matches_dense_oracle_2d(kind, m):
    layer = make_layer(cin=2, cout=2, k_max=2, ndim=2, slices=m, kind=kind, seed=m)
    assert verify.dense_kernel_residual(layer, rng(40 + m).standard_normal((1, 2, 8, 8))) < 1e-8


def test_per_channel_layer_matches_dense_oracle():
    layer = make_layer(cin=2, cout=2, k_max=2, ndim=1, slices=2, per_channel=True, seed=77)
    assert verify.dense_kernel_residual(layer, rng(78).standard_normal((1, 2, 16))) < 1e-8


def test_cross_with_diagonal_blocks_equals_diagonal():
    diag = make_layer(cin=2, cout=2, k_max=3, ndim=1, slices=2, kind="diagonal", seed=20)
    cross = make_layer(cin=2, cout=2, k_max=3, ndim=1, slices=2, kind="cross", seed=20)
    cross.multiplier.weights.data[...] = 0.0
    for m in range(2):
        cross.multiplier.weights.data[..., m, m] = diag.multiplier.weights.data[..., m]
    cross.pointwise.data[...] = diag.pointwise.data
    cross.bias.data[...] = diag.bias.data
    # same rng stream -> same density nets; force identical weights anyway
    for wd, wc in zip(diag.density_net.weights, cross.density_net.weights):
        wc.data[...] = wd.data
    for bd, bc in zip(diag.density_net.biases, cross.density_net.biases):
        bc.data[...] = bd.data
    f = rng(21).standard_normal((2, 2, 16))
    assert np.max(np.abs(diag(T.Tensor(f)).data - cross(T.Tensor(f)).data)) < 1e-13


def test_kernel_refuses_oversized_grid():
    layer = make_layer(k_max=4, ndim=1, slices=1)
    big = T.Tensor(np.zeros((1, 2, 8192)))
    with pytest.raises(ContractError):
        op.materialize_kernel(layer, big)


def test_per_channel_requires_matching_widths():
    cfg = DensityNetConfig(slices=2, arch="mlp2", hidden=8, per_channel=True)
    with pytest.raises(ContractError):
        op.AbleLayer(2, 3, 2, 1, density=cfg, rng=rng(0))


@pytest.mark.parametrize("arch,ndim", [("fd4", 1), ("mlp2", 1), ("mlp2", 2)])
def test_layer_density_is_c_contiguous(arch, ndim):
    # lift and synthesize run slower on a strided density, so it must arrive
    # row-major whatever layout the head's energies have
    layer = make_layer(cin=3, cout=3, ndim=ndim, arch=arch, seed=4)
    x = T.Tensor(rng(5).standard_normal((2, 3) + (16,) * ndim))
    assert layer.density(x).flags.c_contiguous


# ---- variant matrix -------------------------------------------------------------------

VARIANT_HEADS = {"1d-fd4": (1, "fd4", 16), "1d-mlp2": (1, "mlp2", 16), "2d-mlp2": (2, "mlp2", 8)}


@pytest.mark.parametrize("learn_t", [False, True], ids=["fixed-T", "learned-T"])
@pytest.mark.parametrize("per_channel", [False, True], ids=["shared", "per-channel"])
@pytest.mark.parametrize("kind", ["diagonal", "cross"])
@pytest.mark.parametrize("head", list(VARIANT_HEADS))
def test_variant_matrix(head, kind, per_channel, learn_t):
    """Dense kernel, finite-difference gradients, the M=1 reduction and the
    constant-density reduction, per variant."""
    ndim, arch, n = VARIANT_HEADS[head]
    seed = (200 + 8 * list(VARIANT_HEADS).index(head) + 4 * (kind == "cross")
            + 2 * per_channel + learn_t)
    width = 3

    def model(slices):
        return small_model(ndim=ndim, width=width, n_layers=1, k_max=2, slices=slices,
                           kind=kind, density_arch=arch, per_channel=per_channel,
                           learn_temperature=learn_t, proj_hidden=6)

    net = op.build_network(model(2), seed=seed)
    layer = net.layers[0]
    f = rng(seed).standard_normal((2, width) + (n,) * ndim)
    assert verify.dense_kernel_residual(layer, f) < 1e-8

    x = rng(seed + 1).standard_normal((1, 1) + (n,) * ndim)
    y = rng(seed + 2).standard_normal((1, 1) + (n,) * ndim) + 2.0
    report = gradient_check(net, (x, y), n_params=30, seed=1)
    assert report["max_rel_err"] < 1e-4, report
    assert report["density_grad_max"] > 1e-12, "density network got no gradient"
    if learn_t:
        # the sampled entries need not include the temperature; check it directly
        log_t = net.named_parameters()["layers.0.density.log_temperature"]
        h, base = 1e-6, log_t.data.item()
        losses = []
        for value in (base + h, base - h):
            log_t.data[...] = value
            with T.no_grad():
                losses.append(relative_l2(net(T.Tensor(x)), T.Tensor(y)).item())
        log_t.data[...] = base
        fd = (losses[0] - losses[1]) / (2 * h)
        assert abs(log_t.grad.item() - fd) <= 1e-4 * max(abs(fd), 1e-8), (log_t.grad, fd)

    fourier = op.build_network(model(1), seed=seed).layers[0]
    assert verify.fno_residual(fourier, f) < 1e-12

    # last: it overwrites the density head
    assert verify.constant_density_residual(layer, f, (0.7, 0.3)) < 1e-12


# ---- translation invariance ---------------------------------------------------------

def test_m2_nonconstant_density_breaks_translation_invariance():
    layer = verify.spectral_only(make_layer(cin=1, cout=1, k_max=3, ndim=1, slices=2,
                                            temperature=0.3, seed=32))
    # drive the density away from uniform with a structured input
    f = (3.0 * np.sin(2 * np.pi * np.arange(16) / 16)).reshape(1, 1, 16)
    p = layer.density(T.Tensor(f))
    assert np.max(np.abs(p - 0.5)) > 1e-3, "density stayed uniform"
    assert verify.kernel_diagonal_spread(layer, f)[1] > 1e-3


def test_one_hot_partition_kernel_vanishes_across_cells():
    n = 16
    layer = verify.spectral_only(make_layer(cin=1, cout=1, k_max=4, ndim=1, slices=2, seed=33))
    pv = np.zeros((1, n, 2))
    pv[0, : n // 2, 0] = 1.0
    pv[0, n // 2:, 1] = 1.0
    # bypass the density net: materialize with an explicit one-hot field
    field = np.moveaxis(pv, -1, 1)[:, None]
    layer.density = lambda f, _field=field: _field
    f = rng(34).standard_normal((1, 1, n))
    kernel = op.materialize_kernel(layer, T.Tensor(f))[0, 0, 0]
    cross_block = np.abs(kernel[: n // 2, n // 2:])
    assert cross_block.max() < 1e-14
    assert np.abs(kernel[: n // 2, : n // 2]).max() > 1e-6


# ---- network ----------------------------------------------------------------------------

def small_model(**kw):
    defaults = dict(ndim=1, in_channels=1, out_channels=1, width=4, n_layers=2,
                    k_max=4, slices=2, kind="diagonal", density_arch="mlp2",
                    density_hidden=8, coord_features=True, proj_hidden=8,
                    activation="gelu")
    defaults.update(kw)
    return op.ModelConfig(**defaults)


def test_act_flags_switch_each_layers_activation():
    net = op.build_network(small_model(n_layers=3, act_flags=(False, True, True)), seed=1)
    assert [layer.activation for layer in net.layers] == [None, "gelu", "gelu"]


def test_network_shapes_and_composition():
    net = op.build_network(small_model(n_layers=1), seed=1)
    f = rng(50).standard_normal((3, 1, 16))
    out = net(T.Tensor(f))
    assert out.shape == (3, 1, 16)
    # manual composition: lift -> single layer -> projection
    x = np.concatenate([f, np.broadcast_to(np.arange(16) / 16, (3, 1, 16))], axis=1)
    lifted = np.einsum("bix,io->box", x, net.lift_w.data) + net.lift_b.data.reshape(1, -1, 1)
    mid = net.layers[0](T.Tensor(lifted)).data
    h = np.einsum("bix,io->box", mid, net.proj1_w.data) + net.proj1_b.data.reshape(1, -1, 1)
    h = T._gelu(h)[0]
    want = np.einsum("bix,io->box", h, net.proj2_w.data) + net.proj2_b.data.reshape(1, -1, 1)
    assert np.max(np.abs(out.data - want)) < 1e-13


def test_network_zero_spectral_weights_is_pointwise_composition():
    net = op.build_network(small_model(n_layers=2, coord_features=False), seed=2)
    for layer in net.layers:
        layer.multiplier.weights.data[...] = 0.0
        for w in layer.density_net.weights:
            w.data[...] = 0.0
    f = rng(51).standard_normal((2, 1, 16))
    got = net(T.Tensor(f)).data

    def pw(x, w, b):
        return np.einsum("bix,io->box", x, w) + b.reshape(1, -1, 1)

    x = pw(f, net.lift_w.data, net.lift_b.data)
    for layer in net.layers:
        x = pw(x, layer.pointwise.data, layer.bias.data)
        if layer.activation:
            x = T._gelu(x)[0]
    x = T._gelu(pw(x, net.proj1_w.data, net.proj1_b.data))[0]
    want = pw(x, net.proj2_w.data, net.proj2_b.data)
    assert np.max(np.abs(got - want)) < 1e-13


def test_network_gradients_match_finite_differences():
    net = op.build_network(small_model(n_layers=2, slices=2, width=3, k_max=3), seed=3)
    f = rng(52).standard_normal((1, 1, 16))
    target = rng(53).standard_normal((1, 1, 16))

    def loss_value():
        return sq_norm(net(T.Tensor(f)), target)

    loss = loss_value()
    T.tape_backward(loss)
    params = net.named_parameters()
    picks = [
        ("layers.0.spectral.weights", 0), ("layers.0.density.mlp.0.weight", 1),
        ("layers.1.density.mlp.1.weight", 0), ("layers.0.pointwise.weight", 2),
        ("lift.weight", 0), ("proj2.weight", 0), ("layers.1.spectral.weights", 5),
    ]
    h = 1e-6
    for name, flat_idx in picks:
        p = params[name]
        grad = p.grad
        assert grad is not None, name
        idx = np.unravel_index(flat_idx, p.shape)   # ravel() of a view parameter is a copy
        comps = [(1.0, np.real)] + ([(1j, np.imag)] if p.is_complex else [])
        for direction, proj in comps:
            base = p.data[idx]
            p.data[idx] = base + h * direction
            fp = loss_value().item()
            p.data[idx] = base - h * direction
            fm = loss_value().item()
            p.data[idx] = base
            fd = (fp - fm) / (2 * h)
            ad = proj(grad[idx])
            assert abs(ad - fd) / max(abs(fd), abs(ad), 1e-8) < 1e-4, (name, direction)


def test_parameter_names_are_stable():
    net = op.build_network(small_model(slices=2, learn_temperature=True), seed=4)
    names = set(net.named_parameters())
    assert {"lift.weight", "proj2.bias", "layers.0.spectral.weights",
            "layers.1.density.mlp.0.weight", "layers.0.density.log_temperature"} <= names


def test_learnable_temperature_stays_positive_and_gets_gradient():
    net = op.build_network(small_model(slices=2, learn_temperature=True, n_layers=1),
                           seed=6)
    f = rng(60).standard_normal((1, 1, 16))
    T.tape_backward(sq_norm(net(T.Tensor(f))))
    log_t = net.named_parameters()["layers.0.density.log_temperature"]
    assert log_t.grad is not None
    # even a hostile update cannot make the effective temperature nonpositive
    log_t.data[...] = -50.0
    with T.no_grad():
        p = net.layers[0].density(net.lift_input(T.Tensor(f)))
    check_density(p)


# ---- flop accounting ---------------------------------------------------------------------

# ---- spectral weight layout ----------------------------------------------------------

LAYOUTS = [("diagonal", 1), ("diagonal", 2), ("cross", 1), ("cross", 2)]


def mix_operand_plan(layer, batch=1):
    """Axis order and 3-D shape in which the mix's matmul reads the weights."""
    w = layer.multiplier.weights.data
    lifted = (batch, layer.in_channels, layer.slices) + w.shape[2:2 + layer.ndim]
    spec = op.mix_spec(layer.kind, layer.ndim)
    _, _, perm_b, shape_b, _, _ = T._matmul_plan(spec, lifted, w.shape)
    return perm_b, shape_b


@pytest.mark.parametrize("kind,ndim", LAYOUTS)
def test_spectral_weights_are_stored_in_the_mix_matmul_order(kind, ndim):
    layer = make_layer(cin=2, cout=3, ndim=ndim, kind=kind, seed=9)
    w = layer.multiplier.weights.data
    shape = (2, 3) + (8,) * ndim + ((2, 2) if kind == "cross" else (2,))
    r = rng(9)      # the multiplier is the layer's first draw, in canonical order
    assert np.array_equal(w, (1.0 / 6) * (r.random(shape) + 1j * r.random(shape)))
    assert not w.flags.c_contiguous
    perm, shape3 = mix_operand_plan(layer)
    assert np.shares_memory(w.transpose(perm).reshape(shape3), w)


@pytest.mark.parametrize("kind", ["diagonal", "cross"])
def test_mix_forward_does_not_copy_the_weights(kind):
    # darcy-2d shapes: batch 1, width 16, 16 x 16 modes, M=2
    layer = make_layer(cin=16, cout=16, k_max=8, ndim=2, kind=kind)
    w = layer.multiplier.weights.data
    r = rng(60)
    lifted = r.standard_normal((1, 16, 2, 16, 16)) + 1j * r.standard_normal((1, 16, 2, 16, 16))
    spec = op.mix_spec(kind, 2)
    T._contract(spec, lifted, w)      # plan cached before the trace
    tracemalloc.start()
    try:
        T._contract(spec, lifted, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes / 8


@pytest.mark.parametrize("kind,ndim", LAYOUTS)
def test_spectral_weight_gradient_arrives_in_storage_order(kind, ndim):
    layer = make_layer(ndim=ndim, kind=kind)
    f = rng(61).standard_normal((2, 2) + (16,) * ndim)
    T.tape_backward(sq_norm(layer(T.Tensor(f))))
    perm, _ = mix_operand_plan(layer)
    assert layer.multiplier.weights.grad.transpose(perm).flags.c_contiguous


@pytest.mark.parametrize("kind,ndim", LAYOUTS)
def test_restored_network_keeps_the_stored_layout(kind, ndim, tmp_path):
    net = op.build_network(small_model(kind=kind, ndim=ndim), seed=7)
    path = tmp_path / "net.ckpt"
    dataio.save_checkpoint(path, net.config, net.named_parameters())
    restored = restore_network(*dataio.load_checkpoint(path))
    for layer, back in zip(net.layers, restored.layers):
        w = back.multiplier.weights.data
        assert np.array_equal(w, layer.multiplier.weights.data)
        perm, shape3 = mix_operand_plan(back)
        assert np.shares_memory(w.transpose(perm).reshape(shape3), w)


def test_flops_spectral_linear_in_slices():
    g = Grid((64,))
    f1 = op.count_flops(op.build_network(small_model(slices=1), seed=0), g)
    f2 = op.count_flops(op.build_network(small_model(slices=2), seed=0), g)
    assert f2["spectral"] / f1["spectral"] == pytest.approx(2.0)


def test_flops_cross_mixing_ratio():
    g = Grid((64,))
    diag = op.count_flops(op.build_network(small_model(slices=3), seed=0), g)
    cross = op.count_flops(op.build_network(small_model(slices=3, kind="cross"), seed=0), g)
    assert cross["mixing"] / diag["mixing"] == pytest.approx(3.0)


def test_flops_fft_nlogn_law():
    net = op.build_network(small_model(), seed=0)
    a = op.count_flops(net, Grid((256,)))
    b = op.count_flops(net, Grid((512,)))
    assert b["fft"] / a["fft"] == pytest.approx(2 * np.log2(512) / np.log2(256))


def test_flops_fft_2d_counts_only_the_pruned_lines():
    # 64x64 keeping 16 modes per axis: analysis runs 64 rows then 16 kept
    # columns, 80 of the 128 c2c lines a full fftn would run, each
    # 5 * 64 * log2(64) flops; synthesis runs the 16 kept columns c2c, then
    # 64 rows c2r at half a c2c line, so 16 + 32 c2c-line equivalents
    net = op.build_network(small_model(ndim=2, k_max=8, slices=2), seed=0)
    got = op.count_flops(net, Grid((64, 64)))["fft"]
    layers, slices, in_channels, out_channels = 2, 2, 4, 4
    assert got == layers * slices * (in_channels * 80 + out_channels * 48) * 5 * 64 * 6


def test_flops_monotone_in_slices():
    g = Grid((64,))
    totals = [op.count_flops(op.build_network(small_model(slices=m), seed=0), g)["total"]
              for m in (1, 2, 4, 8)]
    assert totals == sorted(totals)
