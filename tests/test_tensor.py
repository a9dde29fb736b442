"""Autodiff correctness: every primitive against central finite differences."""

import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from able import fft, frame
from able import tensor as T
from able.errors import ContractError, DomainError

from oracles import (central_difference_paired, gelu_reference, gelu_tanh_reference,
                     silu_reference)


def autodiff_grad(build_loss, x0: np.ndarray) -> np.ndarray:
    leaf = T.parameter(x0.copy())
    loss = build_loss(leaf)
    T.tape_backward(loss)
    return leaf.grad


def assert_grad_matches(build_loss, x0, rtol=1e-5):
    got = autodiff_grad(build_loss, x0)
    want = central_difference_paired(lambda a: build_loss(T.Tensor(a.copy())).item(), x0)
    denom = max(np.max(np.abs(want)), 1e-8)
    assert np.max(np.abs(got - want)) / denom < rtol


def rng(seed):
    return np.random.default_rng(seed)


def randc(shape, seed):
    r = rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


# ---- frozen trivial values -------------------------------------------------

def test_quadratic_gradient_exact():
    x = rng(0).standard_normal(16)
    leaf = T.parameter(x.copy())
    loss = T.tsum(T.mul(leaf, leaf))
    T.tape_backward(loss)
    assert np.array_equal(leaf.grad, 2.0 * x)


def test_fft_norm_gradient_is_2x():
    # unitarity makes sum |lift(x)|^2 == sum x^2 on the full spectrum, so
    # grad is exactly 2x
    x = rng(1).standard_normal(16)

    def loss(t):
        return T.tsum(T.abs2(frame.lift(T.reshape(t, (1, 1, 16)), None, [8])))

    got = autodiff_grad(loss, x)
    assert np.max(np.abs(got - 2.0 * x)) < 1e-12
    assert_grad_matches(loss, x.copy())


def test_gelu_at_zero():
    assert T.gelu(T.tensor(np.zeros(3))).data == pytest.approx(np.zeros(3))


def test_gelu_matches_whole_array_expressions_bitwise():
    # the sigmoid-form kernels bit for bit, and the tanh form they rewrite to roundoff
    x = 4.0 * rng(70).standard_normal((3, 4, 50))
    for arr in (x, x.transpose(2, 0, 1)):
        out = T.gelu(T.parameter(arr))
        want, want_vjp = gelu_reference(arr)
        assert np.array_equal(out.data, want)
        g = rng(71).standard_normal(arr.shape)
        got_vjp = out._vjp(g)[0]
        assert np.array_equal(got_vjp, want_vjp(g))
        tanh_out, tanh_vjp = gelu_tanh_reference(arr)
        assert np.max(np.abs(out.data - tanh_out)) <= 1e-14 * np.max(np.abs(tanh_out))
        assert np.max(np.abs(got_vjp - tanh_vjp(g))) <= 1e-14 * np.max(np.abs(tanh_vjp(g)))


def test_silu_matches_whole_array_expressions_bitwise():
    x = 4.0 * rng(72).standard_normal((3, 4, 50))
    for arr in (x, x.transpose(2, 0, 1)):
        out = T.silu(T.parameter(arr))
        want, want_vjp = silu_reference(arr)
        assert np.array_equal(out.data, want)
        g = rng(73).standard_normal(arr.shape)
        assert np.array_equal(out._vjp(g)[0], want_vjp(g))


EXTREMES = np.array([-1e4, -800.0, -30.0, 0.0, 30.0, 800.0])


@pytest.mark.parametrize("name", ["relu", "silu", "gelu"])
def test_activations_reach_their_limits_without_overflow_warnings(name):
    # exp(-x) overflows to inf for silu below about -709 and gelu below about
    # -22; the sigmoid is then exactly 0, so the overflow is not reported
    x = T.parameter(EXTREMES.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.ACTIVATIONS[name](x)
        T.tape_backward(T.tsum(out))
    slope_at_zero = 0.0 if name == "relu" else 0.5
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
    assert np.allclose(out.data, np.maximum(EXTREMES, 0.0), rtol=1e-12, atol=1e-10)
    assert np.allclose(x.grad, np.where(EXTREMES > 0, 1.0, 0.0) + slope_at_zero * (EXTREMES == 0),
                       rtol=1e-12, atol=1e-10)


def test_sqrt_quarter_tensor():
    out = T.sqrt(T.tensor(np.full((4,), 0.25)))
    assert np.array_equal(out.data, np.full((4,), 0.5))


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        T.sqrt(T.tensor(np.array([-1.0])))


def test_nonscalar_loss_rejected():
    x = T.parameter(np.ones(4))
    with pytest.raises(ContractError):
        T.tape_backward(T.mul(x, x))


def test_complex_loss_rejected():
    x = T.parameter(np.ones(4) + 0j)
    with pytest.raises(ContractError):
        T.tape_backward(T.tsum(T.mul(x, x)))


# ---- finite-difference sweep over primitives --------------------------------

REAL_OPS = [
    ("add", lambda t: T.tsum(T.mul(T.add(t, 0.7), T.add(t, 0.7)))),
    ("sub", lambda t: T.tsum(T.abs2(T.sub(t, 0.3)))),
    ("mul_broadcast", lambda t: T.tsum(T.mul(t, T.tensor(np.linspace(0.5, 2.0, t.shape[-1]))))),
    ("div", lambda t: T.tsum(T.div(t, 2.5))),
    ("div_by_tensor", lambda t: T.tsum(T.div(T.tensor(np.ones(t.shape)), T.add(T.abs2(t), 1.0)))),
    ("exp", lambda t: T.tsum(T.texp(T.mul(t, 0.3)))),
    ("relu", lambda t: T.tsum(T.mul(T.relu(t), T.relu(t)))),
    ("silu", lambda t: T.tsum(T.silu(t))),
    ("gelu", lambda t: T.tsum(T.gelu(t))),
    ("softmax", lambda t: T.tsum(T.mul(T.softmax(t, axis=-1), T.tensor(np.arange(float(t.shape[-1])))))),
    ("sqrt_shifted", lambda t: T.tsum(T.sqrt(T.add(T.abs2(t), 0.5)))),
    ("reshape", lambda t: T.tsum(T.abs2(T.reshape(t, (t.size,))))),
    ("sum_axis", lambda t: T.tsum(T.abs2(T.tsum(t, axis=0)))),
    ("mean", lambda t: T.tmean(T.abs2(t))),
    ("concat", lambda t: T.tsum(T.abs2(T.concatenate([t, T.mul(t, 2.0)], axis=0)))),
]


@pytest.mark.parametrize("name,loss", REAL_OPS, ids=[n for n, _ in REAL_OPS])
def test_real_op_gradients(name, loss):
    x = rng(zlib.crc32(name.encode())).standard_normal((4, 8)) * 0.9 + 0.05
    assert_grad_matches(loss, x)


COMPLEX_OPS = [
    ("cmul", lambda t: T.tsum(T.abs2(T.mul(t, T.tensor(randc(t.shape, 99)))))),
    ("lift", lambda t: T.tsum(T.abs2(T.mul(
        frame.lift(T.reshape(t, (4, 1, 8)), None, [4]), T.tensor(randc((4, 1, 1, 8), 7)))))),
    ("synthesize", lambda t: T.tsum(T.abs2(frame.synthesize(
        T.reshape(t, (1, 1, 1, 4, 8)), None, [2, 4], (4, 8))))),
    ("exp_complex", lambda t: T.tsum(T.abs2(T.texp(T.mul(t, 0.2))))),
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
           T._contract(f"{s_a},{s_out}->{s_b}", a, g, conj="a"))
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


# (spec, shape_a, shape_b, whether the second operand's matmul layout is a view)
VJP_LAYOUTS = [("bi,io->bo", (5, 3), (3, 4), True),
               ("bimx,ioxm->bomx", (2, 3, 2, 6), (3, 4, 6, 2), False)]


@pytest.mark.parametrize("spec,shape_a,shape_b,view", VJP_LAYOUTS, ids=[c[0] for c in VJP_LAYOUTS])
def test_contract_conjugates_copies_not_operands(spec, shape_a, shape_b, view):
    a, b = randc(shape_a, seed=61), randc(shape_b, seed=62)
    a0, b0 = a.copy(), b.copy()
    g = randc(T._contract(spec, a, b).shape, seed=63)
    lhs, s_out = spec.split("->")
    s_a, s_b = lhs.split(",")
    spec_ga, spec_gb = f"{s_out},{s_b}->{s_a}", f"{s_a},{s_out}->{s_b}"
    plan = T._matmul_plan(spec_ga, g.shape, b.shape)
    assert np.may_share_memory(b.transpose(plan[2]).reshape(plan[3]), b) == view
    ga = T._contract(spec_ga, g, b, conj="b")
    gb = T._contract(spec_gb, a, g, conj="a")
    ga_stored = T._contract_grad_a(spec, g, a.shape, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    assert np.array_equal(ga, T._contract(spec_ga, g, np.conj(b)))
    assert np.array_equal(gb, T._contract(spec_gb, np.conj(a), g))
    assert np.max(np.abs(ga_stored - ga)) <= 1e-14 * np.max(np.abs(ga))


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
        kept = frame.lift(t, None, k)
        return T.tsum(T.abs2(frame.synthesize(kept, None, k, (8,))))

    assert_grad_matches(loss, randc((2, 1, 8), seed=31))


def test_take_modes_2d_in_place_block():
    x = randc((2, 3, 8, 8), seed=41)
    spectrum = fft.fft_unitary(x, (2, 3))
    k = [2, 1]      # modes {0, 1, 6, 7} on axis 0 and {0, 7} on axis 1
    kept = frame.lift(T.tensor(x), None, k)
    assert kept.shape == (2, 3, 1, 4, 2)
    assert np.array_equal(kept.data[:, :, 0, 2, 1], spectrum[:, :, 6, 7])
    back = frame.synthesize(kept, None, k, (8, 8))
    assert back.shape == x.shape
    back_spectrum = fft.fft_unitary(back.data, (2, 3))
    assert np.max(np.abs(back_spectrum[:, :, 6, 7] - spectrum[:, :, 6, 7])) < 1e-12
    assert np.max(np.abs(back_spectrum[:, :, 3, :])) < 1e-12


def test_sqrt_grad_eps_keeps_gradient_finite_at_zero():
    x = T.parameter(np.array([0.0, 0.25]))
    loss = T.tsum(T.sqrt(x, grad_eps=1e-12))
    T.tape_backward(loss)
    assert np.all(np.isfinite(x.grad))
    assert x.grad[1] == pytest.approx(1.0, rel=1e-9)


def test_grad_accumulates_across_reuse():
    x = T.parameter(np.array([2.0]))
    y = T.add(T.mul(x, x), T.mul(x, 3.0))
    T.tape_backward(T.tsum(y))
    assert x.grad == pytest.approx(np.array([7.0]))


def test_backward_drops_each_vjp_closure_it_runs():
    x = T.parameter(rng(74).standard_normal(8))
    h = T.silu(x)
    # the sigmoid s is kept only for the VJP
    saved = [weakref.ref(c.cell_contents) for c in h._vjp.__closure__
             if isinstance(c.cell_contents, np.ndarray) and c.cell_contents is not x.data]
    assert len(saved) == 1 and saved[0]() is not None
    loss = T.tsum(T.mul(h, h))
    T.tape_backward(loss)
    assert saved[0]() is None           # freed although `loss` is still held
    s = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(x.grad, 2.0 * (x.data * s) * (s * (1.0 + x.data * (1.0 - s))))
    with pytest.raises(ContractError, match="already swept"):
        T.tape_backward(loss)


@pytest.mark.parametrize("op", [T.mul, T.div], ids=["mul", "div"])
def test_vjp_skips_operands_without_grad(op):
    x = T.parameter(np.full((2, 2), 2.0))
    c = T.tensor(np.full((2, 2), 3.0))
    g = np.ones((2, 2))
    ga, gb = op(x, c)._vjp(g)
    assert ga is not None and gb is None
    ga, gb = op(c, x)._vjp(g)
    assert ga is None and gb is not None


def test_no_grad_suppresses_tape():
    x = T.parameter(np.ones(4))
    with T.no_grad():
        y = T.tsum(T.mul(x, x))
    assert not y.requires_grad
    assert y._vjp is None


def test_real_leaf_through_complex_path_gets_real_grad():
    def loss(t):
        return T.tsum(T.abs2(frame.lift(T.reshape(t, (1, 1, 8)), None, [4])))

    g = autodiff_grad(loss, rng(12).standard_normal(8))
    assert g.dtype == np.float64


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_softmax_rows_sum_to_one(seed):
    e = rng(seed).standard_normal((5, 7)) * 3
    p = T.softmax(T.tensor(e), axis=-1).data
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12
    assert np.all(p >= 0) and np.all(p <= 1)
