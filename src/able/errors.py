"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: contract, domain and size errors
-> 2, data/file problems -> 3, numerical failures -> 4, failed
verification checks -> 1.
"""


class AbleError(Exception):
    """Base class for all package errors."""


class UnsupportedSizeError(AbleError):
    """Grid or transform extent outside the supported set (powers of two)."""


class DomainError(AbleError):
    """Argument outside the mathematical domain of the operation."""


class ContractError(AbleError):
    """Caller violated a documented precondition (shape, dtype, range)."""


class DataFormatError(AbleError):
    """Malformed, truncated, or wrong-version binary container."""


class NumericalFailure(AbleError):
    """A solver or training run produced NaN/Inf or failed to converge."""
