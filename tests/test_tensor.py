"""Autodiff correctness: every primitive against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from able import tensor as T
from able.errors import ContractError, DomainError

from oracles import central_difference


def fd_grad_real(build_loss, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-Tensor-valued function of a real array."""

    def f(arr):
        return build_loss(T.Tensor(arr.copy())).item()

    return central_difference(f, x0.copy(), h=h)


def fd_grad_complex(build_loss, z0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """dL/dRe + i dL/dIm by central differences on the paired reals."""

    def f_re(arr):
        return build_loss(T.Tensor(arr + 1j * z0.imag)).item()

    def f_im(arr):
        return build_loss(T.Tensor(z0.real + 1j * arr)).item()

    gr = central_difference(f_re, z0.real.copy(), h=h)
    gi = central_difference(f_im, z0.imag.copy(), h=h)
    return gr + 1j * gi


def autodiff_grad(build_loss, x0: np.ndarray) -> np.ndarray:
    leaf = T.parameter(x0.copy())
    loss = build_loss(leaf)
    T.tape_backward(loss)
    return leaf.grad


def assert_grad_matches(build_loss, x0, rtol=1e-5):
    got = autodiff_grad(build_loss, x0)
    want = fd_grad_complex(build_loss, x0) if np.iscomplexobj(x0) else fd_grad_real(build_loss, x0)
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
    # unitarity makes sum |fft(x)|^2 == sum x^2, so grad is exactly 2x
    x = rng(1).standard_normal(16)

    def loss(t):
        return T.tsum(T.abs2(T.fft(T.to_complex(t), axes=(0,))))

    got = autodiff_grad(loss, x)
    assert np.max(np.abs(got - 2.0 * x)) < 1e-12
    assert_grad_matches(loss, x.copy())


def test_gelu_at_zero():
    assert T.gelu(T.tensor(np.zeros(3))).data == pytest.approx(np.zeros(3))


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
    ("neg", lambda t: T.tsum(T.abs2(T.neg(t)))),
    ("exp", lambda t: T.tsum(T.texp(T.mul(t, 0.3)))),
    ("relu", lambda t: T.tsum(T.mul(T.relu(t), T.relu(t)))),
    ("silu", lambda t: T.tsum(T.silu(t))),
    ("gelu", lambda t: T.tsum(T.gelu(t))),
    ("softmax", lambda t: T.tsum(T.mul(T.softmax(t, axis=-1), T.tensor(np.arange(float(t.shape[-1])))))),
    ("sqrt_shifted", lambda t: T.tsum(T.sqrt(T.add(T.abs2(t), 0.5)))),
    ("reshape", lambda t: T.tsum(T.abs2(T.reshape(t, (t.size,))))),
    ("moveaxis", lambda t: T.tsum(T.abs2(T.moveaxis(t, 0, -1)))),
    ("roll", lambda t: T.tsum(T.mul(T.roll(t, 2, axis=-1), t))),
    ("sum_axis", lambda t: T.tsum(T.abs2(T.tsum(t, axis=0)))),
    ("mean", lambda t: T.tmean(T.abs2(t))),
    ("concat", lambda t: T.tsum(T.abs2(T.concatenate([t, T.mul(t, 2.0)], axis=0)))),
]


@pytest.mark.parametrize("name,loss", REAL_OPS, ids=[n for n, _ in REAL_OPS])
def test_real_op_gradients(name, loss):
    x = rng(hash(name) % 2**32).standard_normal((4, 8)) * 0.9 + 0.05
    assert_grad_matches(loss, x)


COMPLEX_OPS = [
    ("cmul", lambda t: T.tsum(T.abs2(T.mul(t, T.tensor(randc(t.shape, 99)))))),
    ("conj", lambda t: T.tsum(T.abs2(T.add(T.conj(t), 0.5)))),
    ("real", lambda t: T.tsum(T.mul(T.real(t), T.real(t)))),
    ("imag", lambda t: T.tsum(T.mul(T.imag(t), T.imag(t)))),
    ("fft", lambda t: T.tsum(T.abs2(T.mul(T.fft(t, axes=(1,)), T.tensor(randc(t.shape, 7)))))),
    ("ifft", lambda t: T.tsum(T.abs2(T.ifft(t, axes=(0, 1))))),
    ("exp_complex", lambda t: T.tsum(T.abs2(T.texp(T.mul(t, 0.2))))),
]


@pytest.mark.parametrize("name,loss", COMPLEX_OPS, ids=[n for n, _ in COMPLEX_OPS])
def test_complex_op_gradients(name, loss):
    z = randc((4, 8), seed=hash(name) % 2**32) * 0.7
    assert_grad_matches(loss, z)


def test_matmul_gradient():
    w = T.parameter(rng(3).standard_normal((5, 4)))
    x = np.ascontiguousarray(rng(4).standard_normal((6, 5)))

    def loss_w(t):
        return T.tsum(T.abs2(T.matmul(T.tensor(x), t)))

    assert_grad_matches(loss_w, rng(3).standard_normal((5, 4)))

    def loss_x(t):
        return T.tsum(T.abs2(T.matmul(t, T.tensor(rng(3).standard_normal((5, 4))))))

    assert_grad_matches(loss_x, x)


def test_matmul_batched_gradient():
    def loss(t):
        return T.tsum(T.abs2(T.matmul(t, T.tensor(rng(8).standard_normal((3, 2))))))

    assert_grad_matches(loss, rng(9).standard_normal((4, 5, 3)))


def test_einsum2_gradient_diagonal_mixing():
    w = randc((3, 2, 6), seed=21)

    def loss(t):
        return T.tsum(T.abs2(T.einsum2("bim,iom->bom", t, T.tensor(w))))

    assert_grad_matches(loss, randc((4, 3, 6), seed=22))

    x = randc((4, 3, 6), seed=23)

    def loss_w(t):
        return T.tsum(T.abs2(T.einsum2("bim,iom->bom", T.tensor(x), t)))

    assert_grad_matches(loss_w, w)


# every contraction the operator builds, as (spec, shape_a, shape_b): the
# pointwise path, M=1 mixing, diagonal and cross mixing, in 1-D and 2-D
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
def test_einsum2_operator_contractions(spec, shape_a, shape_b, complex_operands):
    if complex_operands:
        a, b = randc(shape_a, seed=51), randc(shape_b, seed=52)
    else:
        a, b = rng(51).standard_normal(shape_a), rng(52).standard_normal(shape_b)
    want = np.einsum(spec, a, b)
    got = T.einsum2(spec, T.tensor(a), T.tensor(b)).data
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def loss_a(t):
        return T.tsum(T.abs2(T.einsum2(spec, t, T.tensor(b))))

    def loss_b(t):
        return T.tsum(T.abs2(T.einsum2(spec, T.tensor(a), t)))

    assert_grad_matches(loss_a, a)
    assert_grad_matches(loss_b, b)


def test_einsum2_rejects_index_in_one_operand_only():
    # 'k' is neither in the output nor in the other operand
    with pytest.raises(ContractError, match="one operand only"):
        T.einsum2("bik,io->bo", T.tensor(np.ones((2, 3, 4))), T.tensor(np.ones((3, 5))))


def test_einsum2_rejects_repeated_index_in_an_operand():
    with pytest.raises(ContractError, match="repeated index"):
        T.einsum2("bii,io->bo", T.tensor(np.ones((2, 3, 3))), T.tensor(np.ones((3, 5))))


def test_einsum2_rejects_mismatched_extents():
    # 'i' and 'q' swap extents, so the summed block sizes agree; only a
    # per-index check catches it
    with pytest.raises(ContractError, match="extents"):
        T.einsum2("biq,iqo->bo", T.tensor(np.ones((2, 2, 3))), T.tensor(np.ones((3, 2, 5))))


def test_take_put_modes_adjoint_gradient():
    idx = [np.array([0, 1, 7])]

    def loss(t):
        kept = T.take_modes(t, axes=(1,), index_lists=idx)
        back = T.put_modes(kept, axes=(1,), index_lists=idx, full_extents=(8,))
        return T.tsum(T.abs2(back))

    assert_grad_matches(loss, randc((2, 8), seed=31))


def test_take_modes_2d_in_place_block():
    x = randc((2, 3, 8, 8, 2), seed=41)
    idx = [np.array([0, 1, 6, 7]), np.array([0, 7])]
    kept = T.take_modes(T.tensor(x), axes=(2, 3), index_lists=idx)
    assert kept.shape == (2, 3, 4, 2, 2)
    assert np.array_equal(kept.data[:, :, 2, 1], x[:, :, 6, 7])
    back = T.put_modes(kept, axes=(2, 3), index_lists=idx, full_extents=(8, 8))
    assert back.shape == x.shape
    assert np.array_equal(back.data[:, :, 6, 7], x[:, :, 6, 7])
    assert np.all(back.data[:, :, 3, :] == 0)


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


def test_no_grad_suppresses_tape():
    x = T.parameter(np.ones(4))
    with T.no_grad():
        y = T.tsum(T.mul(x, x))
    assert not y.requires_grad
    assert y._vjp is None


def test_real_leaf_through_complex_path_gets_real_grad():
    def loss(t):
        return T.tsum(T.abs2(T.fft(T.to_complex(t), axes=(0,))))

    g = autodiff_grad(loss, rng(12).standard_normal(8))
    assert g.dtype == np.float64


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_softmax_rows_sum_to_one(seed):
    e = rng(seed).standard_normal((5, 7)) * 3
    p = T.softmax(T.tensor(e), axis=-1).data
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12
    assert np.all(p >= 0) and np.all(p <= 1)
