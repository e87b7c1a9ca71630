"""Pytest set-up for the whole repository: one BLAS/OpenMP thread.

Set before numpy loads, as ``perfbench/run.py`` does, so that test times
read the kernels rather than thread contention on small matrix products.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
