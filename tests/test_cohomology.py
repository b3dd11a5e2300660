"""Small-divisor solver, Diophantine scans, and the loss-of-domain constant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamtorus.cohomology import (
    DiophantineParams,
    DivisorCollisionError,
    estimate_gamma,
    russmann_constant,
    russmann_raw_ratio,
    solve_cohomological,
)
from kamtorus.fourier import FourierMap, random_map

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
RNG = np.random.default_rng(411)


# -------------------------------------------------------------- gamma scans


def test_estimate_gamma_golden_pair():
    omega = np.array([1.0, GOLDEN])
    gamma = estimate_gamma(omega, 1.0, 1000)
    assert gamma > 0
    # the scanned bound must hold on an independent, finer re-scan
    refined = estimate_gamma(omega, 1.0, 10_000)
    assert refined <= gamma + 1e-15
    assert refined > 0.9 * gamma  # golden pair: no deep near-resonances appear


def test_estimate_gamma_brute_force_oracle():
    omega = np.array([1.0, GOLDEN])
    tau, limit = 1.3, 40
    ks = [
        (k1, k2)
        for k1 in range(-limit, limit + 1)
        for k2 in range(-limit, limit + 1)
        if 0 < abs(k1) + abs(k2) <= limit
    ]
    brute = min(
        abs(k1 * omega[0] + k2 * omega[1]) * (abs(k1) + abs(k2)) ** tau for k1, k2 in ks
    )
    assert abs(estimate_gamma(omega, tau, limit) - brute) < 1e-13


def test_estimate_gamma_resonance():
    with pytest.raises(DivisorCollisionError) as info:
        estimate_gamma(np.array([1.0, 2.0]), 1.0, 10)
    assert "k=" in str(info.value)


def test_dimension_one_rejected():
    with pytest.raises(ValueError):
        estimate_gamma(np.array([1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        DiophantineParams(np.array([1.0]), 1.0, 0.0, 10)


def test_params_validation(golden_dio):
    assert golden_dio.verify_scan() >= golden_dio.gamma * (1 - 1e-12)
    with pytest.raises(ValueError):
        DiophantineParams(golden_dio.omega, -1.0, 1.0, 100)
    with pytest.raises(ValueError):
        DiophantineParams(golden_dio.omega, 1.0, 0.5, 100)  # tau < d-1


def test_scaled_params(golden_dio):
    scaled = golden_dio.scaled(1.4)
    assert np.allclose(scaled.omega, 1.4 * golden_dio.omega)
    assert abs(scaled.gamma - 1.4 * golden_dio.gamma) < 1e-15
    scaled.verify_scan(200)


# --------------------------------------------------------- cohomological solve


def test_solve_constant_gives_zero(golden_dio):
    v = FourierMap.constant(np.array([[4.2]]), (4, 4))
    u = solve_cohomological(v, golden_dio)
    assert np.max(np.abs(u.coeffs)) == 0.0


def test_solve_cosine_closed_form(golden_dio):
    bands = (4, 4)
    v = FourierMap.zeros(bands, (1, 1))
    v.coeffs[4 + 1, 4, 0, 0] = 0.5
    v.coeffs[4 - 1, 4, 0, 0] = 0.5
    u = solve_cohomological(v, golden_dio)
    expected = FourierMap.zeros(bands, (1, 1))
    w1 = golden_dio.omega[0]
    expected.coeffs[4 + 1, 4, 0, 0] = -(-0.5j) / (2 * np.pi * w1)
    expected.coeffs[4 - 1, 4, 0, 0] = -(0.5j) / (2 * np.pi * w1)
    # u = -sin(2 pi theta_1) / (2 pi omega_1)
    assert np.max(np.abs(u.coeffs - expected.coeffs)) < 1e-15
    back = u.lie(golden_dio.omega)
    assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-14


def test_solve_residual_random(golden_dio):
    for _ in range(5):
        v = random_map((8, 8), (2, 1), RNG, decay=0.2)
        u = solve_cohomological(v, golden_dio)
        recon = u.lie(golden_dio.omega).add_constant(v.average())
        rel = np.max(np.abs(recon.coeffs - v.coeffs)) / np.max(np.abs(v.coeffs))
        assert rel < 1e-12
        assert np.max(np.abs(u.average())) == 0.0


def test_solve_uniqueness_mod_constants(golden_dio):
    v = random_map((6, 6), (1, 1), RNG)
    u1 = solve_cohomological(v, golden_dio)
    u2 = solve_cohomological(v.add_constant(np.array([[3.7]])), golden_dio)
    assert np.max(np.abs(u1.coeffs - u2.coeffs)) == 0.0


def test_left_then_right_is_projection(golden_dio):
    v = random_map((6, 6), (1, 1), RNG, decay=0.1)
    omega = golden_dio.omega
    # L_omega (R_omega v) = v - <v>
    lr = solve_cohomological(v, golden_dio).lie(omega)
    target = v.add_constant(-v.average())
    assert np.max(np.abs(lr.coeffs - target.coeffs)) < 1e-12 * np.max(np.abs(v.coeffs))
    # R_omega (L_omega v) = v - <v>
    rl = solve_cohomological(v.lie(omega), golden_dio)
    assert np.max(np.abs(rl.coeffs - target.coeffs)) < 1e-12 * np.max(np.abs(v.coeffs))


def test_solve_resonant_frequency_raises():
    dio_like = DiophantineParams(np.array([1.0, 0.5]), 1e-3, 1.0, 5, check=False)
    v = random_map((4, 4), (1, 1), RNG)
    with pytest.raises(DivisorCollisionError):
        solve_cohomological(v, dio_like)  # k = (1, -2) kills it


def test_params_scan_checked_at_construction():
    # an over-claimed gamma is rejected by the construction-time scan
    with pytest.raises(ValueError):
        DiophantineParams(np.array([1.0, GOLDEN]), 10.0, 1.0, 100)
    # a resonant frequency is rejected outright
    with pytest.raises(DivisorCollisionError):
        DiophantineParams(np.array([1.0, 2.0]), 0.1, 1.0, 10)


def test_generic_scan_dimension_three():
    omega = np.array([1.0, 2.0 ** (1.0 / 3.0), 3.0 ** (1.0 / 3.0)])
    gamma = estimate_gamma(omega, 2.0, 12)
    brute = np.inf
    rng = range(-12, 13)
    for k1 in rng:
        for k2 in rng:
            for k3 in rng:
                n1 = abs(k1) + abs(k2) + abs(k3)
                if 0 < n1 <= 12:
                    brute = min(brute,
                                abs(k1 * omega[0] + k2 * omega[1] + k3 * omega[2])
                                * n1**2.0)
    assert gamma == pytest.approx(brute, rel=1e-12)


# -------------------------------------------------------- Russmann constants


def test_russmann_single_mode_oracle(golden_dio):
    """A one-mode v realizes the ratio |k|^tau e^{-2 pi |k| delta}/(2 pi gamma)
    at worst; the constant must dominate it."""
    bands = (6, 6)
    tau, delta = golden_dio.tau, 0.05
    for k in [(1, 0), (2, -1), (5, 3), (-6, 6)]:
        v = FourierMap.zeros(bands, (1, 1))
        v.coeffs[6 + k[0], 6 + k[1], 0, 0] = 1.0
        v.coeffs[6 - k[0], 6 - k[1], 0, 0] = 1.0
        u = solve_cohomological(v, golden_dio)
        rho = 0.2
        realized = u.norm(rho - delta).value / v.norm(rho).value
        c_r = russmann_constant(tau, delta)
        assert realized <= c_r / (golden_dio.gamma * delta**tau) * (1 + 1e-12)


def test_russmann_monotone_in_delta():
    deltas = [0.002, 0.01, 0.03, 0.08, 0.1589, 0.2, 0.5, 1.0]
    vals = [russmann_constant(1.0, dl) for dl in deltas]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_russmann_envelopes_raw_ratio():
    for tau in (1.0, 1.4, 2.0):
        for delta in (0.003, 0.02, 0.1, 0.3):
            raw = russmann_raw_ratio(tau, delta, (16, 16))
            assert russmann_constant(tau, delta) >= raw * (1 - 1e-12)


def test_russmann_inequality_random_sweep(golden_dio):
    """Lemma-style inequality on 100 random band-limited maps."""
    tau = golden_dio.tau
    rho, delta = 0.15, 0.04
    c_r = russmann_constant(tau, delta)
    factor = c_r / (golden_dio.gamma * delta**tau)
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = random_map((8, 8), (1, 1), rng, decay=rng.uniform(0, 0.5))
        u = solve_cohomological(v, golden_dio)
        assert u.norm(rho - delta).value <= factor * v.norm(rho).value * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=2.5),
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=1e-3, max_value=0.5),
)
def test_russmann_monotone_property(tau, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    assert russmann_constant(tau, lo) >= russmann_constant(tau, hi) - 1e-15
