"""Shared fixtures and helpers: golden-frequency Diophantine data, seeds of a
config and their DK, a non-canonical structure, zeroed integral constants, and
the test-side Fourier helpers (random maps, direct summation, JSON text)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from kamtorus.certificate import _INTEGRAL_FIELDS, GlobalNormConstants
from kamtorus.cli import RunConfig, start_run
from kamtorus.cohomology import DiophantineParams, estimate_gamma
from kamtorus.fourier import TWO_PI, FourierMap, _k1_box, assemble_blocks

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
from kamtorus.hamiltonian import GeometricStructure, canonical_structure
from oracles import symmetrize

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


def scaled_structure(n):
    """Omega = Omega_0, G = 2I, J = 2 Omega_0, tilde-Omega = 4 Omega_0: case II
    (J^2 = -4I), not canonical."""
    omega0 = canonical_structure(n).Omega
    return GeometricStructure(omega0, 2.0 * np.eye(2 * n), 2.0 * omega0)


def with_zero_integrals(globs: GlobalNormConstants) -> GlobalNormConstants:
    """Copy with every p / X_p constant zeroed (the Lagrangian reduction)."""
    vals = dict(globs.values)
    prov = dict(globs.provenance)
    for key in _INTEGRAL_FIELDS:
        vals[key] = 0.0
        prov[key] = "canonical-exact"
    return GlobalNormConstants(vals, prov)


def seed_run(**fields):
    """``start_run`` of the config with ``fields``: the evaluated seed, its
    schedule and its iso target.  Unset fields keep the config's defaults:
    lagrangian_rotors at omega = (1, golden mean), bands 16, rho0 = 0.03,
    tau = 1, a1 = a2 = 2, c_n = 1e4."""
    return start_run(RunConfig.from_dict(fields))


@pytest.fixture(scope="session")
def exact_torus_b():
    """System B at epsilon = 0 with the exactly invariant flat torus."""
    return seed_run(system="symmetric_rotors", epsilon=0.0, bands=[8, 8], rho0=0.05)[0].cand


@pytest.fixture(scope="session")
def perturbed_candidate_a():
    """System A at epsilon = 1e-3 with the integrable guess (order-epsilon error)."""
    return seed_run(epsilon=1e-3, bands=[16, 16], rho0=0.03)[0].cand


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
    return FourierMap.from_coeffs(symmetrize(scale * raw))


def on_band(f: FourierMap, bands) -> FourierMap:
    """A copy of ``f`` held on ``bands``: modes outside it dropped, new modes zero."""
    bands = tuple(bands)
    keep = tuple(map(min, f.bands, bands))

    def kept(of):  # the half box of ``of`` bands held on ``keep``
        return tuple(slice(n - k, n + k + 1) for n, k in zip(of[:-1], keep[:-1])) + \
            (slice(0, keep[-1] + 1),)

    out = FourierMap.zeros(bands, f.shape)
    out.half[kept(bands)] = f.half[kept(f.bands)]
    return out


def eval_at(f: FourierMap, theta) -> np.ndarray:
    """f at arbitrary angles ``theta`` of shape (..., d) by direct summation.

    Slow, O(#modes * #points), but independent of the FFT path: an oracle.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    lead = theta.shape[:-1]
    flat = theta.reshape(-1, f.d)
    # phase factors per axis, then an outer product walk across axes
    work = np.ones((flat.shape[0], 1), dtype=np.complex128)
    for i, ax in enumerate(np.arange(-n, n + 1) for n in f.bands):
        phase = np.exp(TWO_PI * 1j * np.outer(flat[:, i], ax))
        work = (work[:, :, None] * phase[:, None, :]).reshape(flat.shape[0], -1)
    out = np.tensordot(work, f.coeffs.reshape(-1, *f.shape), axes=(1, 0))
    return out.reshape(lead + f.shape)


def map_to_json(f: FourierMap) -> str:
    return json.dumps(f.to_json_dict(), sort_keys=True)


def map_from_json(text: str) -> FourierMap:
    return FourierMap.from_json_dict(json.loads(text))
