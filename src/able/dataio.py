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

Every file the package writes goes through `write_atomic` (a temp file in
the target's directory, then a rename), so an output is whole or absent. No
fsync: this guards against a process that dies part-way, not power loss.

Both formats stream between the file and the arrays. A save writes each
array as it is reached, holding at most one tensor's C-order copy; a load
reads each array in place, holding the payload and no whole-file buffer.
The readers check every size a header declares, in Python integers,
against the bytes the file has left before allocating, so a malformed file
is a DataFormatError and never a larger allocation than the file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError, NumericalFailure, UnsupportedSizeError
from .frame import Grid
from .pde import (BURGERS_GRF, DARCY_GRF, GrfSpec, darcy_residual,
                  make_darcy_coefficient, sample_grf, solve_burgers, solve_darcy)
from .tensor import Tensor

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
            # min and max propagate NaN: no mask the size of the array
            if arr.size and not np.isfinite((arr.min(), arr.max())).all():
                raise ContractError(f"{name} contain non-finite values")

    @property
    def samples(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.grid, self.inputs[indices], self.targets[indices], dict(self.meta))


def write_atomic(path, chunks) -> None:
    """Write the bytes-like items of the iterable `chunks` (a generator is
    drawn one item at a time) in order to `path`, whole or not at all.

    The temp file is opened as `open()` does, so its mode follows the umask.
    On any exception it is removed and the target is left as it was.
    """
    path = Path(os.path.realpath(path))         # write through a symlink, as open() does
    if path.exists() and not path.is_file():    # never replace a directory, device or FIFO
        raise OSError(f"{path} exists and is not a regular file")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """`obj` as indented, key-sorted JSON with a trailing newline."""
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


class _Reader:
    """Struct fields and arrays read in order from an open regular file.

    `left` counts the bytes not yet read. A read never asks for more than
    that, and `array` checks its size against it before allocating, so no
    header can make a reader allocate more than the file holds.
    """

    def __init__(self, fh):
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise OSError(f"{fh.name} is not a regular file")
        self._fh, self.size, self.left = fh, st.st_size, st.st_size

    def read(self, n: int) -> bytes:
        """The next `n` bytes, or all that are left if fewer."""
        data = self._fh.read(min(n, self.left))
        self.left -= len(data)
        return data

    def magic(self, expected: bytes, kind: str) -> None:
        """Refuse a file that does not start with `expected`."""
        got = self.read(len(expected))
        if len(got) < len(expected) or got[:6] != expected[:6]:
            raise DataFormatError(f"bad magic {got!r}; not a {kind} file")
        if got != expected:
            raise DataFormatError(f"unsupported {kind} version {got[6:8]!r}")

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def array(self, dtype: np.dtype, shape: tuple, refusal: str) -> np.ndarray:
        """The next C-order array of `shape` stored as `dtype`, in native byte
        order; DataFormatError(`refusal`) if the file holds too few bytes."""
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > self.left:
            raise DataFormatError(refusal)
        arr = np.empty(shape, dtype)
        if self._fh.readinto(arr) != nbytes:    # the file shrank while being read
            raise DataFormatError(refusal)
        self.left -= nbytes
        return arr.astype(dtype.newbyteorder("="), copy=False)


def dataset_write(dataset: Dataset, path) -> None:
    meta_bytes = json.dumps(dataset.meta, sort_keys=True).encode("utf-8")
    d = dataset.grid.dims
    header = struct.pack(
        f"<I{d}IQIIIQ", d, *dataset.grid.extents, dataset.samples,
        dataset.inputs.shape[1], dataset.targets.shape[1], 0, len(meta_bytes))
    payloads = (np.ascontiguousarray(a, dtype="<f8") for a in (dataset.inputs, dataset.targets))
    write_atomic(path, itertools.chain([MAGIC + header], payloads, [meta_bytes]))


def dataset_read(path) -> Dataset:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.size < len(MAGIC):
            raise DataFormatError("file too short for a dataset header")
        r.magic(MAGIC, "dataset")
        try:
            (d,) = r.unpack("<I")
            extents = r.unpack(f"<{d}I")
            s, c_in, c_out, dtag, meta_len = r.unpack("<QIIIQ")
            grid = Grid(extents)
        except (struct.error, ContractError, UnsupportedSizeError) as exc:
            raise DataFormatError(f"corrupt dataset header: {exc}") from exc
        if dtag not in _DTYPE_TAGS:
            raise DataFormatError(f"unknown dtype tag {dtag}")
        dtype = _DTYPE_TAGS[dtag]
        payload = s * (c_in + c_out) * math.prod(extents) * dtype.itemsize
        expected = r.size - r.left + payload + meta_len
        if r.size != expected:
            raise DataFormatError(
                f"truncated or padded dataset: {r.size} bytes, expected {expected}")
        inputs, targets = (r.array(dtype, (s, c, *extents), "truncated dataset payload")
                           for c in (c_in, c_out))
        meta_bytes = r.read(meta_len)
    try:
        meta = json.loads(meta_bytes.decode("utf-8")) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"corrupt metadata block: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataFormatError("metadata block is not a JSON object")
    try:
        return Dataset(grid, inputs, targets, meta)
    except ContractError as exc:
        raise DataFormatError(f"corrupt dataset payload: {exc}") from exc


# ---- dataset builders ------------------------------------------------------------

def _subsampled_grids(samples: int, resolution: int, generate_at: int, dims: int = 1) -> tuple:
    """A dataset's stored grid, its generation grid and the stride between
    them, refusing a negative sample count and a generation resolution that
    is not a multiple of the stored one."""
    if samples < 0:
        raise ContractError(f"sample count must be >= 0, got {samples}")
    grid, fine = Grid((resolution,) * dims), Grid((generate_at,) * dims)
    if generate_at % resolution:
        raise ContractError("generation resolution must be a multiple of the target")
    return grid, fine, generate_at // resolution


def make_burgers_dataset(samples: int, nu: float, seed: int, resolution: int = 256,
                         generate_at: int = 1024, grf: GrfSpec | None = None,
                         t_final: float = 1.0) -> Dataset:
    """Viscous Burgers pairs (u0, u(t_final)) solved fine and subsampled."""
    grid, fine, stride = _subsampled_grids(samples, resolution, generate_at)
    grf = grf if grf is not None else GrfSpec(**BURGERS_GRF)
    meta = {
        "task": "burgers", "nu": nu, "seed": seed, "resolution": resolution,
        "generate_at": generate_at, "t_final": t_final, "samples": samples,
        "grf": {"dims": grf.dims, "tau": grf.tau, "alpha": grf.alpha, "scale": grf.scale},
    }
    if samples == 0:
        empty = np.zeros((0, 1, resolution))
        return Dataset(grid, empty, empty.copy(), meta)
    u0 = sample_grf(grf, fine, seed, samples)
    u1, diag = solve_burgers(u0, nu, fine, t_final=t_final)
    energies = diag["energies"]
    meta["solver"] = {
        "rtol": diag["rtol"],
        "steps": diag["steps"],
        "rejected": diag["rejected"],
        "dt_min": diag["dt_min"],
        "dt_max": diag["dt_max"],
        "error_estimate_max": diag["error_estimate_max"],
        "mean_drift_max": float(diag["mean_drift"].max()),
        "energy_nonincreasing": bool(
            np.all(np.diff(energies, axis=1) <= 1e-12 * energies[:, :1])),
    }
    inputs = u0[:, None, ::stride]
    targets = u1[:, None, ::stride]
    return Dataset(grid, np.ascontiguousarray(inputs),
                   np.ascontiguousarray(targets), meta)


def make_darcy_dataset(samples: int, seed: int, resolution: int = 64,
                       generate_at: int = 256, grf: GrfSpec | None = None,
                       forcing: float = 1.0) -> Dataset:
    """Darcy pairs (a, u) with two-phase coefficients, solved fine and subsampled."""
    grid, fine, stride = _subsampled_grids(samples, resolution, generate_at, dims=2)
    grf = grf if grf is not None else GrfSpec(**DARCY_GRF)
    meta = {
        "task": "darcy", "seed": seed, "resolution": resolution,
        "generate_at": generate_at, "forcing": forcing, "samples": samples,
        "grf": {"dims": grf.dims, "tau": grf.tau, "alpha": grf.alpha, "scale": grf.scale,
                "threshold_levels": list(grf.threshold_levels or ())},
    }
    if samples == 0:
        empty = np.zeros((0, 1, resolution, resolution))
        return Dataset(grid, empty, empty.copy(), meta)
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
    meta["solver"] = {"max_residual": max_residual, "min_interior": min_interior}
    return Dataset(grid, inputs, targets, meta)


# ---- model checkpoints --------------------------------------------------------------
#
# Layout: magic "ABLECKP1" | u32 header length | header JSON (architecture
# hyperparameters) | u32 tensor count | per tensor: u16 name length, name,
# u8 dtype tag (0 f64 / 1 c128), u8 rank, u32 * rank shape, raw bytes LE.

CKPT_MAGIC = b"ABLECKP1"
_CKPT_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_CKPT_TAGS = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}


def save_checkpoint(path, model_config, params: dict) -> None:
    """Write architecture hyperparameters plus named parameter tensors or arrays.

    Each tensor is written as it is reached, so at most one tensor's C-order
    copy is held at a time.
    """
    header = json.dumps({"model": asdict(model_config)}, sort_keys=True).encode("utf-8")

    def chunks():
        yield CKPT_MAGIC + struct.pack("<I", len(header)) + header + struct.pack("<I", len(params))
        for name, value in params.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            tag = _CKPT_TAGS[np.dtype(arr.dtype)]
            raw = name.encode("utf-8")
            yield (struct.pack("<H", len(raw)) + raw
                   + struct.pack(f"<BB{arr.ndim}I", tag, arr.ndim, *arr.shape))
            yield np.ascontiguousarray(arr, dtype=_CKPT_DTYPES[tag])

    write_atomic(path, chunks())


def load_checkpoint(path):
    """Read back (model config dict, {name: array}); refuses foreign files."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        r.magic(CKPT_MAGIC, "checkpoint")
        try:
            (hlen,) = r.unpack("<I")
            header = json.loads(r.read(hlen).decode("utf-8"))
            if not isinstance(header, dict) or not isinstance(header.get("model"), dict):
                raise DataFormatError(
                    "checkpoint header must be a JSON object with a 'model' object")
            (count,) = r.unpack("<I")
            params = {}
            for _ in range(count):
                (nlen,) = r.unpack("<H")
                name = r.read(nlen).decode("utf-8")
                tag, rank = r.unpack("<BB")
                shape = r.unpack(f"<{rank}I")
                if tag not in _CKPT_DTYPES:
                    raise DataFormatError(f"unknown dtype tag {tag} for tensor {name!r}")
                params[name] = r.array(_CKPT_DTYPES[tag], shape,
                                       f"truncated checkpoint at tensor {name!r}")
        except (struct.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"corrupt checkpoint: {exc}") from exc
        if r.left:
            raise DataFormatError("trailing bytes after checkpoint payload")
    return header["model"], params
