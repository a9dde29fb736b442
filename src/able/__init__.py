"""Adaptive-basis spectral neural operators.

A learned per-point density over M slices turns the fixed Fourier system
into a data-adaptive tight frame: analysis multiplies by the square root
of each slice and applies the unitary FFT, synthesis inverts it exactly,
and the transform preserves the grid norm for every admissible density.
Operator layers mix retained low modes per slice (or across slice pairs)
and reduce to the plain Fourier layer when M = 1.

The package is self-contained: dense-tensor reverse-mode autodiff, a
unitary power-of-two contract over numpy's FFT, PDE data generators
(viscous Burgers, Darcy flow), a deterministic trainer, and a
verification harness turning the method's exact identities and
approximation rates into executable checks.
"""

from . import config, dataio, fft, frame, operator, pde, reference, tensor, training, verify
from .errors import (AbleError, ContractError, DataFormatError, DomainError,
                     NumericalFailure, UnsupportedSizeError)

__version__ = "0.1.0"

__all__ = [
    "config", "dataio", "fft", "frame", "operator", "pde", "reference",
    "tensor", "training", "verify",
    "AbleError", "ContractError", "DataFormatError", "DomainError",
    "NumericalFailure", "UnsupportedSizeError",
]
