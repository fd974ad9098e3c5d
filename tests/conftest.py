"""Test-session setup: BLAS runs on one thread, as in perfbench and tools/slottimes.py.

The suite's matrices are small, so more BLAS threads buy nothing, and next
to another busy process they contend for its cores and slow every test.
pytest loads this file before any test module, so the variables are set
before numpy loads; CLI subprocesses inherit them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
