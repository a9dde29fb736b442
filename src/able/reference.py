"""Reference implementations used as comparison oracles.

Plain numpy, no tape, and no code shared with the adaptive layer but the
unitary FFT, which the tests check against the direct DFT sum: a classic
Fourier layer (truncate low modes, mix channels per mode, synthesize, add
a pointwise linear path). The adaptive layer with one slice must
reproduce this bit-for-bit up to roundoff.
"""

from __future__ import annotations

import numpy as np

from . import fft as _fft


def _corner_indices(k_max: int, extent: int) -> np.ndarray:
    if 2 * k_max >= extent:
        return np.arange(extent)
    return np.r_[0:k_max, extent - k_max:extent]


def fno_layer(f: np.ndarray, spectral_weights: np.ndarray, pointwise: np.ndarray,
              bias: np.ndarray, k_max: int) -> np.ndarray:
    """One Fourier layer on (batch, C_in, spatial...); no activation.

    spectral_weights: (C_in, C_out, modes...) complex, modes = 2*k_max per axis.
    """
    ndim = f.ndim - 2
    extents = f.shape[2:]
    axes = tuple(range(2, 2 + ndim))
    coeff = _fft.fft_unitary(f.astype(np.complex128), axes=axes)
    idx = [_corner_indices(k_max, n) for n in extents]
    mesh = np.ix_(*idx)
    kept = coeff[(slice(None), slice(None)) + mesh]
    sp = "xy"[:ndim]
    mixed = np.einsum(f"bi{sp},io{sp}->bo{sp}", kept, spectral_weights)
    padded = np.zeros((f.shape[0], spectral_weights.shape[1]) + tuple(extents),
                      dtype=np.complex128)
    padded[(slice(None), slice(None)) + mesh] = mixed
    out = _fft.ifft_unitary(padded, axes=axes).real
    local = np.einsum(f"bi{sp},io->bo{sp}", f, pointwise)
    return out + local + bias.reshape((1, -1) + (1,) * ndim)
