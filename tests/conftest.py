"""Pin BLAS to one thread for the whole suite.

The certifying tests run dense eigensolves on matrices a few hundred rows
square; a multi-threaded BLAS oversubscribes a small machine once anything
else runs beside them.  numpy is not imported yet when this file loads, so
these settings reach its BLAS; values already in the environment win.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")
