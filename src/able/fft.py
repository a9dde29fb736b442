"""Unitary FFT on raw numpy arrays.

numpy's `fftn`/`ifftn` with `norm="ortho"` behind the package's contract:
both directions carry a 1/sqrt(N) factor per transformed axis, so the
transform is its own conjugate inverse and the plain (unweighted) sum of
squared moduli is preserved. Every transformed extent must be a power of
two (untransformed axes may have any length), and results are complex128.
"""

import numpy as np

from .errors import UnsupportedSizeError


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _checked(a: np.ndarray, axes) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    for ax in axes:
        if not is_power_of_two(a.shape[ax]):
            raise UnsupportedSizeError(f"transform length {a.shape[ax]} is not a power of two")
    return a


def fft_unitary(a: np.ndarray, axes) -> np.ndarray:
    """Forward unitary DFT along `axes` (1/sqrt(N) normalization each)."""
    return np.fft.fftn(_checked(a, axes), axes=axes, norm="ortho")


def ifft_unitary(a: np.ndarray, axes) -> np.ndarray:
    """Inverse unitary DFT along `axes`; exact adjoint of fft_unitary."""
    return np.fft.ifftn(_checked(a, axes), axes=axes, norm="ortho")
