"""Binary dataset container and the desk-scale dataset builders.

File layout (little-endian throughout):

    bytes 0..7    magic "ABLEDS01" (name + format version)
    u32           spatial dims d
    u32 * d       extents
    u64           sample count S
    u32           input channels C_in
    u32           output channels C_out
    u32           dtype tag (0 = float64)
    u64           metadata byte length
    payload       inputs  (S, C_in, *extents) row-major float64
    payload       targets (S, C_out, *extents) row-major float64
    trailer       UTF-8 JSON metadata (generator spec, seed, solver settings)
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataFormatError, NumericalFailure, UnsupportedSizeError
from .frame import Grid
from .pde import (BURGERS_GRF, DARCY_GRF, GrfSpec, darcy_residual,
                  make_darcy_coefficient, sample_grf, solve_burgers, solve_darcy)

MAGIC = b"ABLEDS01"
_DTYPE_TAGS = {0: np.dtype("<f8")}


@dataclass
class Dataset:
    grid: Grid
    inputs: np.ndarray    # (S, C_in, *extents)
    targets: np.ndarray   # (S, C_out, *extents)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ContractError("inputs and targets must have equal sample counts")
        for name, arr in (("inputs", self.inputs), ("targets", self.targets)):
            if arr.shape[2:] != self.grid.extents:
                raise ContractError(f"{name} spatial shape {arr.shape[2:]} != grid "
                                    f"extents {self.grid.extents}")
            if arr.size and not np.all(np.isfinite(arr)):
                raise ContractError(f"{name} contain non-finite values")

    @property
    def samples(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.grid, self.inputs[indices], self.targets[indices], dict(self.meta))


def dataset_write(dataset: Dataset, path) -> None:
    meta_bytes = json.dumps(dataset.meta, sort_keys=True).encode("utf-8")
    d = dataset.grid.dims
    header = struct.pack(
        f"<I{d}IQIIIQ", d, *dataset.grid.extents, dataset.samples,
        dataset.inputs.shape[1], dataset.targets.shape[1], 0, len(meta_bytes))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(dataset.inputs, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(dataset.targets, dtype="<f8").tobytes())
        fh.write(meta_bytes)


def dataset_read(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC):
        raise DataFormatError("file too short for a dataset header")
    if blob[:6] != MAGIC[:6]:
        raise DataFormatError(f"bad magic {blob[:8]!r}; not a dataset file")
    if blob[:8] != MAGIC:
        raise DataFormatError(f"unsupported dataset version {blob[6:8]!r}")
    off = len(MAGIC)
    try:
        (d,) = struct.unpack_from("<I", blob, off)
        off += 4
        extents = struct.unpack_from(f"<{d}I", blob, off)
        off += 4 * d
        s, c_in, c_out, dtag, meta_len = struct.unpack_from("<QIIIQ", blob, off)
        off += 8 + 4 + 4 + 4 + 8
    except struct.error as exc:
        raise DataFormatError(f"corrupt dataset header: {exc}") from exc
    try:
        grid = Grid(extents)
    except (ContractError, UnsupportedSizeError) as exc:
        raise DataFormatError(f"corrupt dataset header: {exc}") from exc
    if dtag not in _DTYPE_TAGS:
        raise DataFormatError(f"unknown dtype tag {dtag}")
    dtype = _DTYPE_TAGS[dtag]
    points = int(np.prod(extents))
    n_in = s * c_in * points
    n_out = s * c_out * points
    expected = off + (n_in + n_out) * dtype.itemsize + meta_len
    if len(blob) != expected:
        raise DataFormatError(
            f"truncated or padded dataset: {len(blob)} bytes, expected {expected}")
    inputs = np.frombuffer(blob, dtype=dtype, count=n_in, offset=off).reshape(
        (s, c_in) + tuple(extents)).astype(np.float64)
    off += n_in * dtype.itemsize
    targets = np.frombuffer(blob, dtype=dtype, count=n_out, offset=off).reshape(
        (s, c_out) + tuple(extents)).astype(np.float64)
    off += n_out * dtype.itemsize
    try:
        meta = json.loads(blob[off:].decode("utf-8")) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"corrupt metadata block: {exc}") from exc
    return Dataset(grid, inputs, targets, meta)


# ---- dataset builders ------------------------------------------------------------

def make_burgers_dataset(samples: int, nu: float, seed: int, resolution: int = 256,
                         generate_at: int = 1024, grf: GrfSpec | None = None,
                         t_final: float = 1.0) -> Dataset:
    """Viscous Burgers pairs (u0, u(t_final)) solved fine and subsampled."""
    if generate_at % resolution:
        raise ContractError("generation resolution must be a multiple of the target")
    grf = grf if grf is not None else GrfSpec(**BURGERS_GRF)
    fine = Grid((generate_at,))
    stride = generate_at // resolution
    meta = {
        "task": "burgers", "nu": nu, "seed": seed, "resolution": resolution,
        "generate_at": generate_at, "t_final": t_final, "samples": samples,
        "grf": {"dims": grf.dims, "tau": grf.tau, "alpha": grf.alpha, "scale": grf.scale},
    }
    if samples == 0:
        empty = np.zeros((0, 1, resolution))
        return Dataset(Grid((resolution,)), empty, empty.copy(), meta)
    u0 = sample_grf(grf, fine, seed, samples)
    u1, diag = solve_burgers(u0, nu, fine, t_final=t_final)
    energies = diag["energies"]
    meta["solver"] = {
        "dt": diag["dt"],
        "steps": diag["steps"],
        "mean_drift_max": float(diag["mean_drift"].max()),
        "energy_nonincreasing": bool(
            np.all(np.diff(energies, axis=1) <= 1e-12 * energies[:, :1])),
    }
    inputs = u0[:, None, ::stride]
    targets = u1[:, None, ::stride]
    return Dataset(Grid((resolution,)), np.ascontiguousarray(inputs),
                   np.ascontiguousarray(targets), meta)


def make_darcy_dataset(samples: int, seed: int, resolution: int = 64,
                       generate_at: int = 256, grf: GrfSpec | None = None,
                       forcing: float = 1.0) -> Dataset:
    """Darcy pairs (a, u) with two-phase coefficients, solved fine and subsampled."""
    if generate_at % resolution:
        raise ContractError("generation resolution must be a multiple of the target")
    grf = grf if grf is not None else GrfSpec(**DARCY_GRF)
    fine = Grid((generate_at, generate_at))
    stride = generate_at // resolution
    meta = {
        "task": "darcy", "seed": seed, "resolution": resolution,
        "generate_at": generate_at, "forcing": forcing, "samples": samples,
        "grf": {"dims": grf.dims, "tau": grf.tau, "alpha": grf.alpha, "scale": grf.scale,
                "threshold_levels": list(grf.threshold_levels or ())},
    }
    target_grid = Grid((resolution, resolution))
    if samples == 0:
        empty = np.zeros((0, 1, resolution, resolution))
        return Dataset(target_grid, empty, empty.copy(), meta)
    coeffs = make_darcy_coefficient(grf, fine, seed, samples)
    inputs = np.empty((samples, 1, resolution, resolution))
    targets = np.empty_like(inputs)
    max_residual = 0.0
    min_interior = math.inf
    for i in range(samples):
        try:
            u = solve_darcy(coeffs[i], forcing, fine)
        except NumericalFailure as exc:
            raise NumericalFailure(f"darcy sample {i}: {exc}") from exc
        max_residual = max(max_residual, darcy_residual(coeffs[i], forcing, u, fine))
        min_interior = min(min_interior, float(u.min()))
        inputs[i, 0] = coeffs[i][::stride, ::stride]
        targets[i, 0] = u[::stride, ::stride]
    if samples:
        meta["solver"] = {"max_residual": max_residual, "min_interior": min_interior}
    return Dataset(target_grid, inputs, targets, meta)


# ---- model checkpoints --------------------------------------------------------------
#
# Layout: magic "ABLECKP1" | u32 header length | header JSON (architecture
# hyperparameters) | u32 tensor count | per tensor: u16 name length, name,
# u8 dtype tag (0 f64 / 1 c128), u8 rank, u32 * rank shape, raw bytes LE.

CKPT_MAGIC = b"ABLECKP1"
_CKPT_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_CKPT_TAGS = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}


def save_checkpoint(path, model_config, params: dict) -> None:
    """Write architecture hyperparameters plus named parameter tensors."""
    from dataclasses import asdict

    header = json.dumps({"model": asdict(model_config)}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            arr = value.data if hasattr(value, "data") else np.asarray(value)
            tag = _CKPT_TAGS[np.dtype(arr.dtype)]
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr).astype(_CKPT_DTYPES[tag]).tobytes())


def load_checkpoint(path):
    """Read back (model config dict, {name: array}); refuses foreign files."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CKPT_MAGIC) or blob[:6] != CKPT_MAGIC[:6]:
        raise DataFormatError(f"bad magic {blob[:8]!r}; not a checkpoint file")
    if blob[:8] != CKPT_MAGIC:
        raise DataFormatError(f"unsupported checkpoint version {blob[6:8]!r}")
    off = len(CKPT_MAGIC)
    try:
        (hlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        header = json.loads(blob[off:off + hlen].decode("utf-8"))
        off += hlen
        if not isinstance(header, dict) or not isinstance(header.get("model"), dict):
            raise DataFormatError("checkpoint header must be a JSON object with a 'model' object")
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        params = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            tag, rank = struct.unpack_from("<BB", blob, off)
            off += 2
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            if tag not in _CKPT_DTYPES:
                raise DataFormatError(f"unknown dtype tag {tag} for tensor {name!r}")
            dtype = _CKPT_DTYPES[tag]
            nbytes = int(np.prod(shape)) * dtype.itemsize if rank else dtype.itemsize
            if off + nbytes > len(blob):
                raise DataFormatError(f"truncated checkpoint at tensor {name!r}")
            arr = np.frombuffer(blob, dtype=dtype, count=max(int(np.prod(shape)), 1),
                                offset=off).reshape(shape)
            params[name] = arr.astype(np.complex128 if tag == 1 else np.float64)
            off += nbytes
    except (struct.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"corrupt checkpoint: {exc}") from exc
    if off != len(blob):
        raise DataFormatError("trailing bytes after checkpoint payload")
    return header["model"], params
