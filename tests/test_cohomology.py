"""Small-divisor solver, Diophantine scans, and the loss-of-domain constant."""

import ast
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamtorus.cohomology import (
    DiophantineParams,
    DivisorCollisionError,
    estimate_gamma,
    russmann_constant,
    solve_cohomological,
)
from kamtorus.fourier import FourierMap

from conftest import random_map
from oracles import russmann_raw_ratio

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


def brute_gamma(omega, tau, limit):
    """Per-k reference over every 0 < |k|_1 <= limit, both signs of k.

    k.omega is summed left to right as k1 w1 + k2 w2 + ... in float64, and
    |k|_1^tau is looked up in arange(limit + 1)**tau, or is |k|_1 at tau = 1.
    """
    d = omega.size
    box = np.indices((2 * limit + 1,) * d).reshape(d, -1).T - limit
    norm1 = np.abs(box).sum(axis=1)
    keep = (norm1 > 0) & (norm1 <= limit)
    box, norm1 = box[keep].astype(np.float64), norm1[keep]
    dots = box[:, 0] * omega[0]
    for i in range(1, d):
        dots = dots + box[:, i] * omega[i]
    if tau == 1.0:
        weights = norm1.astype(np.float64)
    else:
        weights = (np.arange(limit + 1, dtype=np.float64) ** tau)[norm1]
    return float(np.min(np.abs(dots) * weights))


def _random_cases(d, taus, limits, count, seed):
    rng = np.random.default_rng(seed)
    return [
        pytest.param(np.concatenate([[1.0], rng.uniform(-3.0, 3.0, d - 1)]) * rng.uniform(0.2, 2.0),
                     float(rng.choice(taus)), int(rng.integers(*limits)), id=f"random{i}")
        for i in range(count)
    ]


@pytest.mark.parametrize("omega, tau, limit", [
    pytest.param(np.array([1.0, GOLDEN]), 1.3, 40, id="golden"),
    pytest.param(np.array([-0.7, GOLDEN]), 1.0, 60, id="tau1"),
    pytest.param(np.array([0.01, 1.3]), 2.0, 40, id="all-clipped"),  # |w2/w1| > limit
    pytest.param(np.array([1.0, -(1.0 - 1e-9)]), 0.0, 30, id="unit-ratio-tau0"),  # r ~ 1
    *_random_cases(2, (1.0, 1.3, 2.0, 2.7), (5, 90), 8, seed=2),
])
def test_estimate_gamma_brute_force_oracle(omega, tau, limit):
    assert estimate_gamma(omega, tau, limit) == brute_gamma(omega, tau, limit)


def test_estimate_gamma_resonance():
    with pytest.raises(DivisorCollisionError, match=r"k=\(-2, 1\)"):
        estimate_gamma(np.array([1.0, 2.0]), 1.0, 10)
    with pytest.raises(DivisorCollisionError, match=r"k=\(1, 0\)"):
        estimate_gamma(np.array([0.0, 1.0]), 1.0, 10)
    omega, limit = np.array([1.0, np.sqrt(2.0), 1.0 + np.sqrt(2.0)]), 12
    with pytest.raises(DivisorCollisionError) as info:
        estimate_gamma(omega, 2.0, limit)
    k = np.array(ast.literal_eval(re.search(r"k=(\([^)]*\))", str(info.value)).group(1)))
    assert abs(float(k @ omega)) < 1e-14
    assert 0 < np.abs(k).sum() <= limit


def test_dimension_one_rejected():
    with pytest.raises(ValueError):
        estimate_gamma(np.array([1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        DiophantineParams(np.array([1.0]), 1.0, 0.0, 10)


def test_params_validation(golden_dio):
    rescan = estimate_gamma(golden_dio.omega, golden_dio.tau, golden_dio.scan_limit)
    assert rescan >= golden_dio.gamma * (1 - 1e-12)
    with pytest.raises(ValueError):
        DiophantineParams(golden_dio.omega, -1.0, 1.0, 100)
    with pytest.raises(ValueError):
        DiophantineParams(golden_dio.omega, 1.0, 0.5, 100)  # tau < d-1
    with pytest.raises(ValueError):
        estimate_gamma(golden_dio.omega, -0.5, 100)  # the pruned scan needs tau >= 0


def test_scaled_params(golden_dio):
    """The scanned gamma of 1.4*omega is 1.4*gamma, and holds on a shorter scan."""
    omega, gamma, tau = golden_dio.omega, golden_dio.gamma, golden_dio.tau
    assert estimate_gamma(1.4 * omega, tau, golden_dio.scan_limit) == pytest.approx(
        1.4 * gamma, rel=1e-12)
    assert estimate_gamma(1.4 * omega, tau, 200) >= 1.4 * gamma * (1 - 1e-12)


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


@pytest.mark.parametrize("omega, tau, limit", [
    pytest.param(np.array([1.0, 2.0 ** (1.0 / 3.0), 3.0 ** (1.0 / 3.0)]), 2.0, 12, id="cube-roots"),
    pytest.param(np.array([1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0)]), 1.0, 14, id="tau1"),
    pytest.param(np.array([0.02, 1.0, GOLDEN]), 2.0, 10, id="all-clipped"),  # |w2/w1| > limit
    pytest.param(np.array([1.0, np.sqrt(2.0) - 1.0, 2.0 - np.sqrt(2.0) + 1e-9]), 2.0, 12,
                 id="near-unit-r"),  # k' = (1, 1) gives r ~ -1
    *_random_cases(3, (2.0, 2.5), (4, 16), 6, seed=3),
])
def test_generic_scan_dimension_three(omega, tau, limit):
    assert estimate_gamma(omega, tau, limit) == brute_gamma(omega, tau, limit)


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
