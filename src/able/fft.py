"""Unitary FFT on raw numpy arrays.

numpy's `fftn`/`ifftn` with `norm="ortho"` behind the package's contract:
both directions carry a 1/sqrt(N) factor per transformed axis, so the
transform is its own conjugate inverse and the plain (unweighted) sum of
squared moduli is preserved. Every transformed extent must be a power of
two (untransformed axes may have any length), and results are complex128.

`rfft_unitary`/`irfft_unitary` are the real-to-complex pair along one
axis under the same contract: a real signal of extent N has N/2 + 1
independent bins, 0 to N/2, the others following by Hermitian symmetry
X[N - j] = conj(X[j]), and the inverse reads those bins as the half of a
Hermitian spectrum and returns float64.
"""

import numpy as np

from .errors import ContractError, UnsupportedSizeError


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _require_power_of_two(n: int) -> None:
    if not is_power_of_two(n):
        raise UnsupportedSizeError(f"transform length {n} is not a power of two")


def _checked(a: np.ndarray, axes) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    for ax in axes:
        _require_power_of_two(a.shape[ax])
    return a


def fft_unitary(a: np.ndarray, axes) -> np.ndarray:
    """Forward unitary DFT along `axes` (1/sqrt(N) normalization each)."""
    return np.fft.fftn(_checked(a, axes), axes=axes, norm="ortho")


def ifft_unitary(a: np.ndarray, axes) -> np.ndarray:
    """Inverse unitary DFT along `axes`; exact adjoint of fft_unitary."""
    return np.fft.ifftn(_checked(a, axes), axes=axes, norm="ortho")


def rfft_unitary(a: np.ndarray, axis: int) -> np.ndarray:
    """Unitary DFT of a real array along `axis`: bins 0 to N/2 of fft_unitary."""
    a = np.asarray(a, dtype=np.float64)
    _require_power_of_two(a.shape[axis])
    return np.fft.rfft(a, axis=axis, norm="ortho")


def irfft_unitary(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    """Real inverse unitary DFT of extent n along `axis`, from bins 0 to n/2 of
    a Hermitian spectrum; the imaginary parts of bins 0 and n/2 do not count."""
    _require_power_of_two(n)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[axis] != n // 2 + 1:
        raise ContractError(f"{a.shape[axis]} bins do not make a real signal of extent {n}")
    return np.fft.irfft(a, n=n, axis=axis, norm="ortho")
