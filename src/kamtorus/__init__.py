"""kamtorus: spectral computation and a-posteriori certification of
quasi-periodic invariant tori in partially integrable Hamiltonian systems."""

__version__ = "0.1.0"

import os

# KAMTORUS_THREADS caps the numerical backends; it must be set before the imports
# below load numpy and start its thread pools
if _threads := os.environ.get("KAMTORUS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .certificate import certify, estimate_global_constants
from .fourier import matmul
from .frames import build_frames
from .solver import contraction_slope, evaluate, iterate_newton

__all__ = [
    "__version__",
    "build_frames",
    "certify",
    "contraction_slope",
    "estimate_global_constants",
    "evaluate",
    "iterate_newton",
    "matmul",
]
