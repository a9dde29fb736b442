"""Correctness gates checked on every benchmark run.

Each gate is one attempted operation; a miss is one failed operation. The
gate functions take plain arrays and metadata, so a test can feed them a
corrupted result and see the miss counted. Tolerances are the package's
own acceptance tolerances (criteria 01, 02 and 10).
"""

from __future__ import annotations

import math

import numpy as np

FNO_REL_TOL = 1e-12          # criterion 02: single-slice layer vs the Fourier layer
PARSEVAL_TOL = 1e-10         # criterion 01: norm preservation of the lifted transform
INVERSE_TOL = 1e-9           # criterion 01: synthesis after analysis
DRIFT_TOL = 1e-9             # criterion 10: Burgers mean drift
RESIDUAL_TOL = 1e-9          # criterion 10: Darcy relative residual


class Gates:
    """Counts attempted and failed checks and keeps a line per miss."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(f"{name}: {detail}" if detail else name)
        return ok


def fno_reference(gates: Gates, name: str, got: np.ndarray, want: np.ndarray) -> bool:
    """An M=1 layer must match the independent Fourier-layer oracle."""
    if got.shape != want.shape:
        return gates.check(name, False, f"shape {got.shape} != oracle {want.shape}")
    gap = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    return gates.check(name, gap <= FNO_REL_TOL * scale,
                       f"max abs gap {gap:.3e} > {FNO_REL_TOL:.0e} x {scale:.3g}")


def frame_identities(gates: Gates, name: str, field: np.ndarray, lifted: np.ndarray,
                     recovered: np.ndarray) -> bool:
    """Analysis preserves the grid norm and synthesis inverts it."""
    norm = float(np.sum(np.abs(field) ** 2))
    parseval = abs(float(np.sum(np.abs(lifted) ** 2)) - norm) / norm
    inverse = float(np.max(np.abs(recovered - field)) / np.max(np.abs(field)))
    ok = parseval < PARSEVAL_TOL and inverse < INVERSE_TOL
    return gates.check(name, ok, f"norm residual {parseval:.2e}, inverse residual {inverse:.2e}")


def loss_finite(gates: Gates, name: str, value: float) -> bool:
    return gates.check(name, math.isfinite(value), f"loss {value!r}")


def loss_decreased(gates: Gates, name: str, first: float, final: float) -> bool:
    """The last completed epoch's mean step loss is below the first epoch's."""
    return gates.check(name, final < first, f"final epoch loss {final:.4g} >= first {first:.4g}")


def burgers_solver(gates: Gates, name: str, meta: dict) -> bool:
    solver = meta.get("solver", {})
    drift = float(solver.get("mean_drift_max", math.inf))
    monotone = bool(solver.get("energy_nonincreasing", False))
    return gates.check(name, drift < DRIFT_TOL and monotone,
                       f"mean drift {drift:.2e}, energy non-increasing {monotone}")


def darcy_solver(gates: Gates, name: str, meta: dict, targets: np.ndarray) -> bool:
    solver = meta.get("solver", {})
    residual = float(solver.get("max_residual", math.inf))
    interior = float(solver.get("min_interior", -math.inf))
    positive = bool(np.all(targets > 0))
    ok = residual < RESIDUAL_TOL and interior > 0.0 and positive
    return gates.check(name, ok, f"residual {residual:.2e}, min interior {interior:.3g}, "
                                 f"positive targets {positive}")


def bitwise_equal(gates: Gates, name: str, pairs) -> bool:
    """Every (written, read back) array pair is identical byte for byte."""
    for key, a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return gates.check(name, False, f"{key} differs after the round trip")
    return gates.check(name, True)
