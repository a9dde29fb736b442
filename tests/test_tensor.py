"""The tape and the kernels its nodes share.

The tape's sweep, the activation kernel pairs and the contraction kernels
are checked against whole-array expressions and central differences, each
model node's gradient against central differences, and one training
step's graph against the nodes the model is made of: nothing else may be
recorded. The nodes are checked against chains of small reference nodes
in `test_frame.py`.
"""

import inspect
import warnings
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest

from able import fft, frame, training
from able import tensor as T
from able.errors import ContractError
from able.operator import ModelConfig, build_network

from oracles import (assert_grad_matches, central_difference_paired, gelu_input_form_vjp,
                     gelu_reference, gelu_tanh_reference, inner, silu_input_form_vjp,
                     silu_reference, sq_norm, taped_activation, taped_add, taped_reshape,
                     taped_scale)


def rng(seed):
    return np.random.default_rng(seed)


def randc(shape, seed):
    r = rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def ones_density(*extents):
    """The square-root density of a single slice of density one."""
    return T.Tensor(np.ones((1, 1, 1) + extents))


# ---- frozen trivial values -------------------------------------------------

def test_quadratic_gradient_exact():
    x = rng(0).standard_normal(16)
    leaf = T.parameter(x.copy())
    T.tape_backward(sq_norm(leaf))
    assert np.array_equal(leaf.grad, 2.0 * x)


def test_fft_norm_gradient_is_2x():
    # unitarity makes sum |lift(x)|^2 == sum x^2 on the full spectrum, so
    # grad is exactly 2x
    x = rng(1).standard_normal((1, 1, 16))

    got = assert_grad_matches(lambda t: sq_norm(frame.lift(t, ones_density(16), [8])), x)
    assert np.max(np.abs(got - 2.0 * x)) < 1e-12


def test_gelu_at_zero():
    assert T._gelu(np.zeros(3))[0] == pytest.approx(np.zeros(3))


def test_gelu_matches_whole_array_expressions_bitwise():
    # the sigmoid-form kernels bit for bit, and the input-form VJP and the
    # tanh form they rewrite to roundoff; the forward overwrites its argument
    x = 4.0 * rng(70).standard_normal((3, 4, 50))
    for arr in (x, x.transpose(2, 0, 1)):
        buf = arr.copy(order="K")
        out, s = T._gelu(buf)
        assert out is buf
        want, want_vjp = gelu_reference(arr)
        assert np.array_equal(out, want)
        g = rng(71).standard_normal(arr.shape)
        got_vjp = T._gelu_grad(g, out, s)
        assert np.array_equal(got_vjp, want_vjp(g))
        input_vjp = gelu_input_form_vjp(arr)(g)
        assert np.max(np.abs(got_vjp - input_vjp)) <= 1e-14 * np.max(np.abs(input_vjp))
        tanh_out, tanh_vjp = gelu_tanh_reference(arr)
        assert np.max(np.abs(out - tanh_out)) <= 1e-14 * np.max(np.abs(tanh_out))
        assert np.max(np.abs(got_vjp - tanh_vjp(g))) <= 1e-14 * np.max(np.abs(tanh_vjp(g)))


def test_silu_matches_whole_array_expressions_bitwise():
    # the kernels bit for bit, and the input-form VJP they rewrite to
    # roundoff; the forward overwrites its argument
    x = 4.0 * rng(72).standard_normal((3, 4, 50))
    for arr in (x, x.transpose(2, 0, 1)):
        buf = arr.copy(order="K")
        out, s = T._silu(buf)
        assert out is buf
        want, want_vjp = silu_reference(arr)
        assert np.array_equal(out, want)
        g = rng(73).standard_normal(arr.shape)
        got_vjp = T._silu_grad(g, out, s)
        assert np.array_equal(got_vjp, want_vjp(g))
        input_vjp = silu_input_form_vjp(arr)(g)
        assert np.max(np.abs(got_vjp - input_vjp)) <= 1e-14 * np.max(np.abs(input_vjp))


EXTREMES = np.array([-1e4, -800.0, -30.0, 0.0, 30.0, 800.0])


@pytest.mark.parametrize("name", ["relu", "silu", "gelu"])
def test_activations_reach_their_limits_without_overflow_warnings(name):
    # exp(-x) overflows to inf for silu below about -709 and gelu below about
    # -22; the sigmoid is then exactly 0, so the overflow is not reported
    kernel, grad = T.ACTIVATION_KERNELS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, saved = kernel(EXTREMES.copy())
        slope = grad(np.ones_like(EXTREMES), out, saved)
    slope_at_zero = 0.0 if name == "relu" else 0.5
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(slope))
    assert np.allclose(out, np.maximum(EXTREMES, 0.0), rtol=1e-12, atol=1e-10)
    assert np.allclose(slope, np.where(EXTREMES > 0, 1.0, 0.0) + slope_at_zero * (EXTREMES == 0),
                       rtol=1e-12, atol=1e-10)


def test_nonscalar_loss_rejected():
    x = T.parameter(np.ones(4))
    with pytest.raises(ContractError):
        T.tape_backward(taped_scale(x, 2.0))


def test_complex_loss_rejected():
    x = T.parameter(np.ones(4) + 0j)
    with pytest.raises(ContractError):
        T.tape_backward(T._make(np.sum(x.data * x.data), (x,), lambda g: (2.0 * g * x.data,)))


# ---- nodes against central differences -------------------------------------------

G = rng(80).standard_normal((4, 8))
REAL_OPS = [(name, lambda t, name=name: inner(taped_activation(name, t), G))
            for name in ("relu", "silu", "gelu")]


@pytest.mark.parametrize("name,loss", REAL_OPS, ids=[n for n, _ in REAL_OPS])
def test_real_op_gradients(name, loss):
    x = rng(zlib.crc32(name.encode())).standard_normal((4, 8)) * 0.9 + 0.05
    assert_grad_matches(loss, x)


COMPLEX_OPS = [
    ("lift", lambda t: inner(frame.lift(taped_reshape(t, (4, 1, 8)), ones_density(8), [4]),
                             randc((4, 1, 1, 8), 7))),
    ("synthesize", lambda t: inner(frame.synthesize(
        taped_reshape(t, (1, 1, 1, 4, 8)), ones_density(4, 8), [2, 4], (4, 8)),
        randc((1, 1, 4, 8), 8))),
]


@pytest.mark.parametrize("name,loss", COMPLEX_OPS, ids=[n for n, _ in COMPLEX_OPS])
def test_complex_op_gradients(name, loss):
    z = randc((4, 8), seed=zlib.crc32(name.encode())) * 0.7
    assert_grad_matches(loss, z)


def assert_contract_grads_match(spec, a, b, rtol=1e-5):
    """The contraction kernels' gradients of sum |_contract(spec, a, b)|^2 for
    both operands, `_contract_grad_a` and the second-operand product, against
    central differences."""
    g = 2.0 * T._contract(spec, a, b)
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")
    got = (T._contract_grad_a(spec, g, a.shape, b),
           T._contract(f"{s_a},{s_out}->{s_b}", a, g, conj_a=True))
    want = (central_difference_paired(lambda x: np.sum(np.abs(T._contract(spec, x, b)) ** 2), a),
            central_difference_paired(lambda y: np.sum(np.abs(T._contract(spec, a, y)) ** 2), b))
    for ga, fd in zip(got, want):
        assert ga.shape == fd.shape
        assert np.max(np.abs(ga - fd)) / max(np.max(np.abs(fd)), 1e-8) < rtol


def test_contract_gradient_diagonal_mixing():
    assert_contract_grads_match("bim,iom->bom", randc((4, 3, 6), seed=22),
                                randc((3, 2, 6), seed=21))


# every contraction the operator has built, as (spec, shape_a, shape_b): a
# per-point linear map, M=1 mixing, diagonal and cross mixing, in 1-D and 2-D
OPERATOR_CONTRACTIONS = [
    ("bix,io->box", (2, 3, 8), (3, 4)),
    ("bixy,io->boxy", (2, 3, 4, 4), (3, 4)),
    ("bix,iox->box", (2, 3, 6), (3, 4, 6)),
    ("bixy,ioxy->boxy", (2, 3, 4, 2), (3, 4, 4, 2)),
    ("bimx,ioxm->bomx", (2, 3, 2, 6), (3, 4, 6, 2)),
    ("bimxy,ioxym->bomxy", (2, 3, 2, 4, 2), (3, 4, 4, 2, 2)),
    ("biqx,ioxpq->bopx", (2, 3, 2, 6), (3, 4, 6, 3, 2)),
    ("biqxy,ioxypq->bopxy", (2, 3, 2, 4, 2), (3, 4, 4, 2, 3, 2)),
]


@pytest.mark.parametrize("complex_operands", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("spec,shape_a,shape_b", OPERATOR_CONTRACTIONS,
                         ids=[c[0] for c in OPERATOR_CONTRACTIONS])
def test_contract_operator_contractions(spec, shape_a, shape_b, complex_operands):
    if complex_operands:
        a, b = randc(shape_a, seed=51), randc(shape_b, seed=52)
    else:
        a, b = rng(51).standard_normal(shape_a), rng(52).standard_normal(shape_b)
    want = np.einsum(spec, a, b)
    got = T._contract(spec, a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert_contract_grads_match(spec, a, b)


# (spec, shape_a, shape_b, whether the first operand's matmul layout in the
# second operand's gradient is a view)
VJP_LAYOUTS = [("bi,io->bo", (5, 3), (3, 4), True),
               ("bimx,ioxm->bomx", (2, 3, 2, 6), (3, 4, 6, 2), True),
               ("bix,io->box", (2, 3, 8), (3, 4), False)]


@pytest.mark.parametrize("spec,shape_a,shape_b,view", VJP_LAYOUTS, ids=[c[0] for c in VJP_LAYOUTS])
def test_contract_conjugates_copies_not_operands(spec, shape_a, shape_b, view):
    a, b = randc(shape_a, seed=61), randc(shape_b, seed=62)
    g = randc(T._contract(spec, a, b).shape, seed=63)
    a0, b0, g0 = a.copy(), b.copy(), g.copy()
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")
    spec_ga, spec_gb = f"{s_out},{s_b}->{s_a}", f"{s_a},{s_out}->{s_b}"
    plan = T._matmul_plan(spec_gb, a.shape, g.shape)
    assert np.may_share_memory(a.transpose(plan[0]).reshape(plan[1]), a) == view
    gb = T._contract(spec_gb, a, g, conj_a=True)
    ga = T._contract_grad_a(spec, g, a.shape, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0) and np.array_equal(g, g0)
    assert np.array_equal(gb, T._contract(spec_gb, np.conj(a), g))
    want = T._contract(spec_ga, g, np.conj(b))
    assert np.max(np.abs(ga - want)) <= 1e-14 * np.max(np.abs(want))


def test_contract_rejects_index_in_one_operand_only():
    # 'k' is neither in the output nor in the other operand
    with pytest.raises(ContractError, match="one operand only"):
        T._contract("bik,io->bo", np.ones((2, 3, 4)), np.ones((3, 5)))


def test_contract_rejects_repeated_index_in_an_operand():
    with pytest.raises(ContractError, match="repeated index"):
        T._contract("bii,io->bo", np.ones((2, 3, 3)), np.ones((3, 5)))


def test_contract_rejects_mismatched_extents():
    # 'i' and 'q' swap extents, so the summed block sizes agree; only a
    # per-index check catches it
    with pytest.raises(ContractError, match="extents"):
        T._contract("biq,iqo->bo", np.ones((2, 2, 3)), np.ones((3, 2, 5)))


def test_take_put_modes_adjoint_gradient():
    # lift keeps the retained modes and synthesize zero-fills the rest:
    # together they project onto the retained modes
    k = [2]

    def loss(t):
        kept = frame.lift(t, ones_density(8), k)
        return sq_norm(frame.synthesize(kept, ones_density(8), k, (8,)))

    assert_grad_matches(loss, randc((2, 1, 8), seed=31))


def test_take_modes_2d_in_place_block():
    x = randc((2, 3, 8, 8), seed=41)
    spectrum = fft.fft_unitary(x, (2, 3))
    k = [2, 1]      # modes {0, 1, 6, 7} on axis 0 and {0, 7} on axis 1
    kept = frame.lift(T.Tensor(x), ones_density(8, 8), k)
    assert kept.shape == (2, 3, 1, 4, 2)
    assert np.array_equal(kept.data[:, :, 0, 2, 1], spectrum[:, :, 6, 7])
    back = frame.synthesize(kept, ones_density(8, 8), k, (8, 8))
    assert back.shape == x.shape
    back_spectrum = fft.fft_unitary(back.data, (2, 3))
    assert np.max(np.abs(back_spectrum[:, :, 6, 7] - spectrum[:, :, 6, 7])) < 1e-12
    assert np.max(np.abs(back_spectrum[:, :, 3, :])) < 1e-12


def test_grad_accumulates_across_reuse():
    x = T.parameter(np.array([2.0]))
    T.tape_backward(taped_add(inner(x, np.array([4.0])), inner(x, np.array([3.0]))))
    assert x.grad == pytest.approx(np.array([7.0]))


def test_backward_drops_each_vjp_closure_it_runs():
    x = T.parameter(rng(74).standard_normal(8))
    h = taped_activation("silu", x)
    # the sigmoid s is kept only for the VJP, which reads it with the output
    saved = [weakref.ref(c.cell_contents) for c in h._vjp.__closure__
             if isinstance(c.cell_contents, np.ndarray)
             and c.cell_contents is not x.data and c.cell_contents is not h.data]
    assert len(saved) == 1 and saved[0]() is not None
    loss = sq_norm(h)
    T.tape_backward(loss)
    assert saved[0]() is None           # freed although `loss` is still held
    s = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(x.grad, 2.0 * (x.data * s) * (s * (1.0 + x.data * (1.0 - s))))
    with pytest.raises(ContractError, match="already swept"):
        T.tape_backward(loss)


def test_no_grad_suppresses_tape():
    x = T.parameter(np.ones((1, 2, 4)))
    with T.no_grad():
        y = frame.linear(x, T.parameter(np.ones((2, 3))), T.parameter(np.zeros(3)), "gelu")
    assert not y.requires_grad
    assert y._vjp is None


def test_real_leaf_through_complex_path_gets_real_grad():
    g = assert_grad_matches(lambda t: sq_norm(frame.lift(t, ones_density(8), [4])),
                            rng(12).standard_normal((1, 1, 8)))
    assert g.dtype == np.float64


# ---- what a training step records ----------------------------------------------------

def recorded_nodes(loss):
    """(the function that made it, its parents) for each node of the graph under `loss`."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return [(n._vjp.__qualname__.split(".<locals>")[0], n._parents) for n in nodes.values()]


TAPE_VARIANTS = {
    "M1": dict(slices=1),
    "M2-diagonal": dict(slices=2),
    "M2-cross": dict(slices=2, kind="cross"),
    "M2-diagonal-learned-T": dict(slices=2, learn_temperature=True),
    "M2-cross-learned-T": dict(slices=2, kind="cross", learn_temperature=True),
    "M2-2d-mlp2-learned-T": dict(slices=2, ndim=2, density_arch="mlp2",
                                 learn_temperature=True),
}


@pytest.mark.parametrize("variant", list(TAPE_VARIANTS))
def test_a_training_step_records_only_the_model_nodes(variant):
    cfg = ModelConfig(**{**dict(width=4, n_layers=3, k_max=2, density_hidden=4,
                                proj_hidden=8), **TAPE_VARIANTS[variant]})
    net = build_network(cfg, seed=0)
    shape = (2, 1) + (8,) * cfg.ndim
    loss = training.relative_l2(net(T.Tensor(rng(90).standard_normal(shape))),
                                T.Tensor(rng(91).standard_normal(shape)))
    nodes = recorded_nodes(loss)
    adaptive = cfg.n_layers if cfg.slices > 1 else 0
    want = {"linear": 3, "spectral": cfg.n_layers, "DensityNetwork.energies": adaptive,
            "sqrt_softmax": adaptive, "relative_l2": 1}
    assert Counter(name for name, _ in nodes) == Counter({k: v for k, v in want.items() if v})
    # past the energies, a learned log-temperature is the only parent, each layer's once
    extra = [id(p) for name, parents in nodes if name == "sqrt_softmax" for p in parents[1:]]
    learned = [id(layer.density_net.log_temperature) for layer in net.layers
               if cfg.learn_temperature]
    assert sorted(extra) == sorted(learned)
    T.tape_backward(loss)
    assert all(p.grad is not None for p in net.named_parameters().values())


def test_tensor_module_exports_only_the_tape():
    public = {n for n, v in vars(T).items() if not n.startswith("_") and not inspect.ismodule(v)
              and getattr(v, "__module__", T.__name__) == T.__name__}
    assert public == {"ACTIVATION_KERNELS", "Tensor", "no_grad", "parameter", "tape_backward"}
