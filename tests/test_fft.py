"""Unitary FFT core against the direct DFT sum and its algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from able import fft
from able.errors import ContractError, UnsupportedSizeError

from oracles import dft_direct, dft_direct_2d


def rng(seed=0):
    return np.random.default_rng(seed)


def random_complex(shape, seed=0):
    r = rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_fft_matches_direct_dft(n):
    x = random_complex((n,), seed=n)
    assert np.max(np.abs(fft.fft_unitary(x, axes=(0,)) - dft_direct(x))) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_ifft_matches_direct_inverse_dft(n):
    x = random_complex((n,), seed=100 + n)
    assert np.max(np.abs(fft.ifft_unitary(x, axes=(0,)) - dft_direct(x, inverse=True))) < 1e-10


def test_fft_2d_matches_direct_dft():
    x = random_complex((8, 16), seed=7)
    got = fft.fft_unitary(x, axes=(0, 1))
    assert np.max(np.abs(got - dft_direct_2d(x))) < 1e-10


def test_delta_gives_flat_spectrum():
    x = np.zeros(8, dtype=np.complex128)
    x[0] = 1.0
    got = fft.fft_unitary(x, axes=(0,))
    assert np.allclose(got, np.full(8, 1.0 / np.sqrt(8.0)), atol=1e-14)


def test_constant_gives_delta_spectrum():
    x = np.ones(8, dtype=np.complex128)
    got = fft.fft_unitary(x, axes=(0,))
    expected = np.zeros(8, dtype=np.complex128)
    expected[0] = np.sqrt(8.0)
    assert np.allclose(got, expected, atol=1e-14)


def test_single_mode_synthesis_against_direct_sum():
    # spectrum sqrt(8) at k=1 synthesizes exp(2*pi*i*x/8) samples
    spec = np.zeros(8, dtype=np.complex128)
    spec[1] = np.sqrt(8.0)
    got = fft.ifft_unitary(spec, axes=(0,))
    want = dft_direct(spec, inverse=True)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got - np.exp(2j * np.pi * np.arange(8) / 8.0))) < 1e-12


def test_parseval_on_random_vector():
    x = random_complex((64,), seed=3)
    nx = np.linalg.norm(x)
    nfx = np.linalg.norm(fft.fft_unitary(x, axes=(0,)))
    assert abs(nfx - nx) / nx < 1e-12


def test_roundtrip_identity():
    x = random_complex((32,), seed=5)
    back = fft.ifft_unitary(fft.fft_unitary(x, axes=(0,)), axes=(0,))
    assert np.max(np.abs(back - x)) < 1e-12
    fwd = fft.fft_unitary(fft.ifft_unitary(x, axes=(0,)), axes=(0,))
    assert np.max(np.abs(fwd - x)) < 1e-12


@pytest.mark.parametrize("transform", [fft.fft_unitary, fft.ifft_unitary],
                         ids=["fft", "ifft"])
@pytest.mark.parametrize("shape, axes, rejected", [
    ((12,), (0,), True),
    ((8, 12), (0, 1), True),
    ((12, 8), (1,), False),      # untransformed axes may have any length
], ids=["len12", "8x12-axes01", "12x8-axis1"])
def test_non_power_of_two_rejected(transform, shape, axes, rejected):
    x = random_complex(shape, seed=13)
    if rejected:
        with pytest.raises(UnsupportedSizeError):
            transform(x, axes=axes)
    else:
        assert transform(x, axes=axes).shape == shape


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_rfft_matches_direct_dft_half_spectrum(n):
    x = rng(200 + n).standard_normal((n,))
    got = fft.rfft_unitary(x, axis=0)
    assert got.shape == (n // 2 + 1,)
    assert np.max(np.abs(got - dft_direct(x.astype(complex))[:n // 2 + 1])) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_irfft_matches_direct_inverse_dft_of_hermitian_spectrum(n):
    half = random_complex((n // 2 + 1,), seed=300 + n)
    # the full Hermitian spectrum: X[n - j] = conj(X[j]), bins 0 and n/2 real
    full = np.zeros(n, dtype=np.complex128)
    full[:n // 2 + 1] = half
    full[0] = half[0].real
    full[n // 2] = half[n // 2].real
    full[n // 2 + 1:] = np.conj(full[1:n // 2][::-1])
    want = dft_direct(full, inverse=True)
    assert np.max(np.abs(want.imag)) < 1e-12
    got = fft.irfft_unitary(half, n, axis=0)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want.real)) < 1e-10


def test_real_pair_along_one_axis_of_a_batch():
    x = rng(17).standard_normal((3, 16, 8))
    spec = fft.rfft_unitary(x, axis=1)
    assert spec.shape == (3, 9, 8)
    for i in range(3):
        for j in range(8):
            want = dft_direct(x[i, :, j].astype(complex))[:9]
            assert np.max(np.abs(spec[i, :, j] - want)) < 1e-10
    assert np.max(np.abs(fft.irfft_unitary(spec, 16, axis=1) - x)) < 1e-12


@pytest.mark.parametrize("transform", [
    lambda x: fft.rfft_unitary(x, axis=-1),
    lambda x: fft.irfft_unitary(x[..., :7], 12, axis=-1),
], ids=["rfft", "irfft"])
def test_real_pair_rejects_non_power_of_two(transform):
    with pytest.raises(UnsupportedSizeError):
        transform(rng(19).standard_normal((2, 12)))


def test_irfft_rejects_a_bin_count_that_is_not_half_the_extent():
    with pytest.raises(ContractError):
        fft.irfft_unitary(random_complex((2, 8), seed=23), 16, axis=-1)


def test_batched_transform_matches_per_row():
    x = random_complex((5, 3, 16), seed=11)
    got = fft.fft_unitary(x, axes=(2,))
    for i in range(5):
        for j in range(3):
            assert np.max(np.abs(got[i, j] - dft_direct(x[i, j]))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    exp=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_unitarity_property(exp, seed):
    n = 2**exp
    x = random_complex((n,), seed=seed)
    nx = np.linalg.norm(x)
    assert abs(np.linalg.norm(fft.fft_unitary(x, axes=(0,))) - nx) <= 1e-12 * max(nx, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    exp=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
    a_re=st.floats(-3, 3),
    b_im=st.floats(-3, 3),
)
def test_linearity_property(exp, seed, a_re, b_im):
    n = 2**exp
    x = random_complex((n,), seed=seed)
    y = random_complex((n,), seed=seed + 1)
    a = a_re + 0.5j
    b = 1.0 + b_im * 1j
    lhs = fft.fft_unitary(a * x + b * y, axes=(0,))
    rhs = a * fft.fft_unitary(x, axes=(0,)) + b * fft.fft_unitary(y, axes=(0,))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=20, deadline=None)
@given(exp=st.integers(min_value=1, max_value=6), seed=st.integers(0, 10_000))
def test_roundtrip_property(exp, seed):
    n = 2**exp
    x = random_complex((n,), seed=seed)
    back = fft.ifft_unitary(fft.fft_unitary(x, axes=(0,)), axes=(0,))
    assert np.max(np.abs(back - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))
