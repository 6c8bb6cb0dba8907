"""Pin BLAS/OpenMP to one thread; import this before numpy.

Small `lstsq`/`svd` calls run 40-70x slower with two OpenBLAS threads when the
other core is busy, and desk-scale designs 1.4-1.6x slower with two threads,
so every benchmark process runs single-threaded and records the setting.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"
