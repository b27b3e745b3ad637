"""Fitting-room service simulator.

Two models of the same store (an event-scheduling one and an agent-based
one), a threshold-triggered service speed-up policy, the statistics to
compare experiments, and a CLI harness to drive replications and sweeps.
"""

import os

# fitroom never calls BLAS or LAPACK, so numpy's OpenBLAS thread pool would
# only cost start-up time; a value the user set is kept.  This must run
# before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
