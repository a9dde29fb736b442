"""Run record printed with every benchmark result.

Machine (processor count, CPU model, cache sizes), interpreter and BLAS
versions, BLAS thread count, source revision, workload seed and the size of
`src/able`. Everything is read from the running process, the operating
system's CPU description and the checkout itself; nothing is started.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    """{"L1d": bytes, "L2": bytes, "L3": bytes} per core (L3 is shared)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        out[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("KMG")) * scale
    return out


def _blas() -> tuple:
    """(OpenBLAS version, thread count) of the BLAS numpy is linked against."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
        for path in paths:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return version or "unknown", threads


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_line_count(root: Path) -> int:
    total = 0
    for path in sorted((root / "src" / "able").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_record(root: Path, workload: str, seed: int) -> dict:
    blas_version, blas_threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "src_able_lines": src_line_count(root),
    }
