"""Shared fixtures and helpers: golden-frequency Diophantine data, seeded
candidates and their DK, a non-canonical structure, zeroed integral constants,
and the test-side Fourier helpers (random maps, direct summation, JSON text)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from kamtorus.certificate import _INTEGRAL_FIELDS, GlobalNormConstants
from kamtorus.cohomology import DiophantineParams, estimate_gamma
from kamtorus.fourier import TWO_PI, FourierMap, _index_box, _k1_box, _symmetrize, assemble_blocks

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
from kamtorus.frames import seed_torus
from kamtorus.hamiltonian import GeometricStructure, builtin_system, canonical_structure

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


def scaled_structure(n, **kw):
    """Omega = Omega_0, G = 2I, J = 2 Omega_0, tilde-Omega = 4 Omega_0: not canonical."""
    canon = canonical_structure(n)
    omega0 = canon.omega_mat(np.zeros((1, 2 * n)))[0]

    def const(mat):
        return lambda z: np.broadcast_to(mat, np.shape(z)[:-1] + mat.shape).copy()

    zero3, zero4 = const(np.zeros((2 * n,) * 3)), const(np.zeros((2 * n,) * 4))
    return GeometricStructure(
        dim_n=n, action_a=canon.action_a, omega_mat=const(omega0),
        metric_G=const(2.0 * np.eye(2 * n)), iso_J=const(2.0 * omega0),
        tilde_omega=const(4.0 * omega0), case_tag="II", d_omega=zero3, d_G=zero3,
        d_J=zero3, d_tilde_omega=zero3, d2_G=zero4, d2_J=zero4, d2_tilde_omega=zero4, **kw)


def with_zero_integrals(globs: GlobalNormConstants) -> GlobalNormConstants:
    """Copy with every p / X_p constant zeroed (the Lagrangian reduction)."""
    vals = dict(globs.values)
    prov = dict(globs.provenance)
    for key in _INTEGRAL_FIELDS:
        vals[key] = 0.0
        prov[key] = "canonical-exact"
    return GlobalNormConstants(vals, prov)


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


def dk_map(cand) -> FourierMap:
    """DK of a candidate as a (2n x d) map, built column by column: the spectral
    derivatives of its periodic part plus, with an angle block, the identity at
    k = 0 (reference for the first d columns of the tangent family)."""
    dk = assemble_blocks([[cand.k_per.deriv(i) for i in range(cand.d)]])
    if cand.angle_block:
        block = np.zeros((2 * cand.system.n, cand.d))
        block[: cand.d, : cand.d] = np.eye(cand.d)
        dk = dk.add_constant(block)
    return dk


def torsion_frames(T: FourierMap, Tdown: FourierMap | None = None, omega=None):
    """What the triangular solves read of a FrameBundle, for a given torsion: T
    and <T>, and with ``Tdown`` also <T_c> = [[<T>, omega_hat], [<Tdown>, 0]],
    omega_hat = (omega, 0_{n-d})."""
    n = T.shape[0]
    frames = SimpleNamespace(T=T, avgT=T.average().real, Tdown=Tdown, avgTc=None)
    if Tdown is not None:
        frames.avgTc = np.zeros((n + 1, n + 1))
        frames.avgTc[:n, :n] = frames.avgT
        frames.avgTc[:n, n] = np.concatenate([omega, np.zeros(n - len(omega))])
        frames.avgTc[n, :n] = Tdown.average().real[0]
    return frames


def random_map(bands, shape, rng, decay: float = 0.0, scale: float = 1.0) -> FourierMap:
    """Random real-analytic map; coefficients damped by exp(-decay*|k|_1)."""
    box = tuple(2 * n + 1 for n in bands)
    raw = rng.standard_normal(box + tuple(shape)) + 1j * rng.standard_normal(box + tuple(shape))
    if decay > 0:
        k1 = _k1_box(tuple(bands))
        raw = raw * np.exp(-decay * k1).reshape(k1.shape + (1, 1))
    return FourierMap(_symmetrize(scale * raw), tuple(bands))


def eval_at(f: FourierMap, theta) -> np.ndarray:
    """f at arbitrary angles ``theta`` of shape (..., d) by direct summation.

    Slow, O(#modes * #points), but independent of the FFT path: an oracle.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    lead = theta.shape[:-1]
    flat = theta.reshape(-1, f.d)
    # phase factors per axis, then an outer product walk across axes
    work = np.ones((flat.shape[0], 1), dtype=np.complex128)
    for i, ax in enumerate(_index_box(f.bands)):
        phase = np.exp(TWO_PI * 1j * np.outer(flat[:, i], ax))
        work = (work[:, :, None] * phase[:, None, :]).reshape(flat.shape[0], -1)
    out = np.tensordot(work, f.coeffs.reshape(-1, *f.shape), axes=(1, 0))
    return out.reshape(lead + f.shape)


def map_to_json(f: FourierMap) -> str:
    return json.dumps(f.to_json_dict(), sort_keys=True)


def map_from_json(text: str) -> FourierMap:
    return FourierMap.from_json_dict(json.loads(text))
