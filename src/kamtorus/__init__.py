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
from .cohomology import DiophantineParams, estimate_gamma
from .fourier import matmul
from .frames import build_frames, seed_torus
from .hamiltonian import builtin_system
from .solver import NewtonSchedule, contraction_slope, evaluate, iterate_newton

__all__ = [
    "DiophantineParams",
    "NewtonSchedule",
    "__version__",
    "build_frames",
    "builtin_system",
    "certify",
    "contraction_slope",
    "estimate_gamma",
    "estimate_global_constants",
    "evaluate",
    "iterate_newton",
    "matmul",
    "seed_torus",
]
