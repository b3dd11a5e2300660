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

from .certificate import (
    CertificateReport,
    ConstantLedger,
    GlobalNormConstants,
    build_ledger,
    certify,
    estimate_global_constants,
    kam_check,
    matrix_inverse_control,
    soundness_report,
)
from .cohomology import (
    DiophantineParams,
    DivisorCollisionError,
    estimate_gamma,
    russmann_constant,
    solve_cohomological,
)
from .fourier import FourierMap, StripNorm, cauchy_bound, matmul
from .frames import (
    FrameBundle,
    TorusCandidate,
    build_frames,
    error_maps,
    extended_torsion,
    invariance_error,
    isotropy_errors,
    normal_frame,
    reducibility_error,
    seed_torus,
    symplecticity_error,
    tangent_frame,
    torsion,
)
from .hamiltonian import (
    ConservedQuantity,
    HamiltonianSystem,
    builtin_system,
    poisson_bracket,
    verify_commutation,
    verify_involution,
    verify_involution_of,
)
from .isoenergetic import (
    FrequencyRay,
    IsoTarget,
    newton_step_iso,
    solve_triangular_iso,
    total_error,
)
from .solver import (
    Iterate,
    NewtonSchedule,
    SolveResult,
    contraction_slope,
    evaluate,
    iterate_newton,
    newton_step,
    solve_triangular,
)

__all__ = [
    "CertificateReport",
    "ConservedQuantity",
    "ConstantLedger",
    "DiophantineParams",
    "DivisorCollisionError",
    "FourierMap",
    "FrameBundle",
    "FrequencyRay",
    "IsoTarget",
    "Iterate",
    "GlobalNormConstants",
    "HamiltonianSystem",
    "NewtonSchedule",
    "SolveResult",
    "StripNorm",
    "TorusCandidate",
    "__version__",
    "build_frames",
    "build_ledger",
    "builtin_system",
    "cauchy_bound",
    "certify",
    "contraction_slope",
    "error_maps",
    "estimate_gamma",
    "evaluate",
    "estimate_global_constants",
    "extended_torsion",
    "invariance_error",
    "isotropy_errors",
    "iterate_newton",
    "kam_check",
    "matmul",
    "matrix_inverse_control",
    "newton_step",
    "newton_step_iso",
    "normal_frame",
    "poisson_bracket",
    "reducibility_error",
    "russmann_constant",
    "seed_torus",
    "solve_cohomological",
    "solve_triangular",
    "solve_triangular_iso",
    "soundness_report",
    "symplecticity_error",
    "tangent_frame",
    "torsion",
    "total_error",
    "verify_commutation",
    "verify_involution",
    "verify_involution_of",
]
