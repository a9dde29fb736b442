"""Test-run settings, applied before any test module imports numpy."""

import os

# One BLAS thread. On a two-core machine OpenBLAS splits mid-sized products
# such as (5120, 16) @ (16, 16) across both threads, and when such calls are
# spaced out between Python work each one costs milliseconds instead of a
# fraction of one. An explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
