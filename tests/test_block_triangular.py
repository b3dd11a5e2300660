"""One block-triangular solve serves both modes, bit for bit as the two it replaced.

``reference_solve`` and ``reference_solve_iso`` are the separate ordinary and
bordered solves the library had before the two were folded into
``solver.solve_block_triangular`` (less their never-passed phase argument).
The folded solve must reproduce them exactly, and the bordered torsion it
reads must be the one ``frames.extended_torsion`` stores.
"""

import numpy as np
import pytest

from kamtorus.cohomology import solve_cohomological
from kamtorus.fourier import FourierMap, matmul
from kamtorus.frames import build_frames
from kamtorus.isoenergetic import solve_triangular_iso
from kamtorus.solver import solve_triangular

from conftest import random_map, seed_run, torsion_frames


def reference_solve(eta_L, eta_N, T, dio):
    n = eta_L.shape[0]
    avgT = T.average().real
    R_etaN = solve_cohomological(eta_N, dio)
    T_RetaN = matmul(T, R_etaN)
    rhs = (eta_L - T_RetaN).average().real
    xi_N0 = np.linalg.solve(avgT, rhs)
    xi_N = R_etaN.add_constant(xi_N0)
    T_xiN = T_RetaN + T.matmul_constant(xi_N0)
    xi_L = solve_cohomological(eta_L - T_xiN, dio)
    res_L = xi_L.lie(dio.omega) + T_xiN - eta_L
    res_N = (xi_N.lie(dio.omega) - eta_N).add_constant(eta_N.average())
    residual = max(res_L.norm(0.0), res_N.norm(0.0))
    assert xi_N0.shape == (n, 1)
    return xi_L, xi_N, xi_N0, residual


def reference_solve_iso(eta_L, eta_N, eta_omega, T, Tdown, dio):
    bands = eta_L.bands
    n, d = eta_L.shape[0], eta_L.d
    omega_hat = np.concatenate([dio.omega, np.zeros(n - d)])
    Tc = np.zeros((n + 1, n + 1))
    Tc[:n, :n] = T.average().real
    Tc[:n, n] = omega_hat
    Tc[n, :n] = Tdown.average().real.reshape(n)
    R_etaN = solve_cohomological(eta_N, dio)
    T_RetaN = matmul(T, R_etaN)
    Tdown_RetaN = matmul(Tdown, R_etaN)
    rhs = np.zeros(n + 1)
    rhs[:n] = (eta_L - T_RetaN).average().real[:, 0]
    rhs[n] = eta_omega - float(Tdown_RetaN.average().real[0, 0])
    sol = np.linalg.solve(Tc, rhs)
    xi_N0 = sol[:n].reshape(n, 1)
    xi_omega = float(sol[n])
    xi_N = R_etaN.add_constant(xi_N0)
    T_xiN = T_RetaN + T.matmul_constant(xi_N0)
    omega_hat_map = FourierMap.constant(omega_hat[:, None] * xi_omega, bands)
    xi_L = solve_cohomological(eta_L - T_xiN - omega_hat_map, dio)
    res_L = xi_L.lie(dio.omega) + T_xiN + omega_hat_map - eta_L
    res_N = (xi_N.lie(dio.omega) - eta_N).add_constant(eta_N.average())
    res_omega = abs(
        float((Tdown_RetaN + Tdown.matmul_constant(xi_N0)).average().real[0, 0]) - eta_omega
    )
    residual = max(res_L.norm(0.0), res_N.norm(0.0), res_omega)
    return xi_L, xi_N, xi_N0, xi_omega, residual


def _same_bits(a, b) -> bool:
    if isinstance(a, FourierMap):
        return a.bands == b.bands and a.coeffs.tobytes() == b.coeffs.tobytes()
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def _random_data(rng, bands, n, decay=0.4):
    eta_L = random_map(bands, (n, 1), rng, decay=decay)
    eta_N = random_map(bands, (n, 1), rng, decay=decay)
    return eta_L, eta_N.add_constant(-eta_N.average())  # compatible


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ordinary_solve_matches_the_unbordered_reference(golden_dio, n):
    rng = np.random.default_rng(100 + n)
    bands = (8, 8)
    for _ in range(4):
        T = random_map(bands, (n, n), rng, decay=0.8, scale=0.3).add_constant(2.0 * np.eye(n))
        eta_L, eta_N = _random_data(rng, bands, n)
        xi_L, xi_N, xi_N0, diag = solve_triangular(eta_L, eta_N, torsion_frames(T), golden_dio)
        ref = reference_solve(eta_L, eta_N, T, golden_dio)
        for got, want in zip((xi_L, xi_N, xi_N0, diag["residual"]), ref):
            assert _same_bits(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iso_solve_matches_the_bordered_reference(golden_dio, n):
    rng = np.random.default_rng(200 + n)
    bands = (8, 8)
    omega_hat = np.concatenate([golden_dio.omega, np.zeros(n - 2)])
    for _ in range(4):
        T = random_map(bands, (n, n), rng, decay=0.7, scale=0.2).add_constant(np.eye(n))
        Tdown = random_map(bands, (1, n), rng, decay=0.7, scale=0.2).add_constant(
            omega_hat[None, :])
        eta_L, eta_N = _random_data(rng, bands, n)
        eta_omega = float(rng.standard_normal())
        frames = torsion_frames(T, Tdown, golden_dio.omega)
        xi_L, xi_N, xi_N0, xi_omega, diag = solve_triangular_iso(
            eta_L, eta_N, eta_omega, frames, golden_dio)
        ref = reference_solve_iso(eta_L, eta_N, eta_omega, T, Tdown, golden_dio)
        for got, want in zip((xi_L, xi_N, xi_N0, xi_omega, diag["residual"]), ref):
            assert _same_bits(got, want)


def test_frames_store_the_bordered_average_the_iso_solve_reads():
    seed = seed_run(system="symmetric_rotors", mode="iso", epsilon=0.01, bands=[8, 8])[0]
    cand = seed.cand
    fr = build_frames(cand, seed.kitchen)
    n = cand.system.n
    omega_hat = np.concatenate([cand.dio.omega, np.zeros(n - cand.d)])
    expected = np.block([[fr.T.average().real, omega_hat[:, None]],
                         [fr.Tdown.average().real, np.zeros((1, 1))]])
    assert np.array_equal(fr.avgTc, expected)
    assert np.array_equal(fr.avgT, fr.T.average().real)
