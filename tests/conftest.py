"""Suite-wide test setup.

One BLAS thread per process. The heavy acceptance fixtures run trials in
two worker processes; with OpenBLAS's default of one thread per core each
worker also starts a thread per core, the threads outnumber the cores, and
on a two-core machine the pool runs about three times slower than with one
thread each. The variables must be set before numpy is first imported,
which is why they live here; spawned workers inherit them. An explicit
setting in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
