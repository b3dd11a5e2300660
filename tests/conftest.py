"""Shared fixtures: golden-frequency Diophantine data and seeded candidates."""

import numpy as np
import pytest
from hypothesis import settings

from kamtorus.cohomology import DiophantineParams, estimate_gamma

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
from kamtorus.frames import seed_torus
from kamtorus.hamiltonian import builtin_system

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# the frame_norms keys of an ordinary log record; the error maps are built only
# on request, so the log carries no norm of them
ORDINARY_FRAME_NORMS = {"L@rho", "LT@rho", "N@rho", "NT@rho", "B@rho", "A@rho", "T@rho-delta"}


@pytest.fixture(scope="session")
def golden_omega():
    return np.array([1.0, GOLDEN])


@pytest.fixture(scope="session")
def golden_dio(golden_omega):
    gamma = estimate_gamma(golden_omega, 1.0, 1000)
    return DiophantineParams(golden_omega, gamma, 1.0, 1000)


def seed_candidate(system_name, epsilon, omega, bands=(16, 16), rho=0.03,
                   tau=1.0, scan_limit=1000, dio=None):
    """Integrable-limit candidate K = (theta, 0, omega, 0) for a builtin system."""
    y_center = np.zeros(builtin_system(system_name).n)
    y_center[: len(omega)] = omega
    sys_obj = builtin_system(system_name, epsilon=epsilon, y_center=y_center,
                             y_radius=0.5, imag_width=0.2)
    if dio is None:
        dio = DiophantineParams(omega, estimate_gamma(omega, tau, scan_limit), tau, scan_limit)
    return seed_torus(sys_obj, dio, bands, rho)


@pytest.fixture(scope="session")
def exact_torus_b(golden_omega):
    """System B at epsilon = 0 with the exactly invariant flat torus."""
    return seed_candidate("symmetric_rotors", 0.0, golden_omega, bands=(8, 8), rho=0.05)


@pytest.fixture(scope="session")
def perturbed_candidate_a(golden_omega):
    """System A at epsilon = 1e-3 with the integrable guess (order-epsilon error)."""
    return seed_candidate("lagrangian_rotors", 1e-3, golden_omega, bands=(16, 16), rho=0.03)
