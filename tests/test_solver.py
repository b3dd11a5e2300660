"""Triangular cohomological solve and the fixed-frequency Newton iteration."""

import numpy as np
import pytest

from kamtorus.cohomology import solve_cohomological
from kamtorus.fourier import FourierMap, matmul
from kamtorus.frames import build_frames
from kamtorus.solver import (
    CompatibilityError,
    HypothesisError,
    NewtonSchedule,
    contraction_slope,
    evaluate,
    iterate_newton,
    newton_step,
    solve_triangular,
)

from conftest import GOLDEN, ORDINARY_FRAME_NORMS, random_map, seed_candidate, torsion_frames


# ----------------------------------------------------------------- schedule


def test_schedule_derived_quantities():
    s = NewtonSchedule(a1=2.0, a2=2.0, rho0=0.12)
    assert s.a3 == pytest.approx(12.0)
    assert s.delta0 == pytest.approx(0.01)
    rho_inf = s.rho0 / s.a2  # the final strip of the schedule
    assert rho_inf == pytest.approx(0.06)
    assert s.delta(3) == pytest.approx(0.01 / 8)
    # rho_s -> rho_inf from above: rho_{s+1} = rho_s - 3 delta_s
    rho = s.rho0
    for k in range(60):
        rho -= 3 * s.delta(k)
        assert rho > rho_inf - 1e-12
    assert rho == pytest.approx(rho_inf, abs=1e-9)


def test_schedule_validation():
    with pytest.raises(ValueError):
        NewtonSchedule(a1=1.0)
    with pytest.raises(ValueError):
        NewtonSchedule(rho0=-0.1)


# ---------------------------------------------------------- triangular solve


def _identity_torsion(bands, n):
    return FourierMap.constant(np.eye(n), bands)


def test_solve_triangular_zero_data(golden_dio):
    bands = (6, 6)
    n = 2
    eta = FourierMap.zeros(bands, (n, 1))
    T = _identity_torsion(bands, n)
    xi_L, xi_N, xi_N0, diag = solve_triangular(eta, eta, torsion_frames(T), golden_dio)
    assert np.max(np.abs(xi_N.coeffs)) == 0.0
    assert np.max(np.abs(xi_L.coeffs)) == 0.0


def test_solve_triangular_cosine_chain(golden_dio):
    """T = I, eta^L = 0, eta^N = cos(2 pi theta_1) e_1: the closed-form chain."""
    bands = (6, 6)
    n = 2
    eta_L = FourierMap.zeros(bands, (n, 1))
    eta_N = FourierMap.zeros(bands, (n, 1))
    eta_N.coeffs[6 + 1, 6, 0, 0] = 0.5
    eta_N.coeffs[6 - 1, 6, 0, 0] = 0.5
    T = _identity_torsion(bands, n)
    xi_L, xi_N, xi_N0, diag = solve_triangular(eta_L, eta_N, torsion_frames(T), golden_dio)
    # xi^N = R(eta^N) = -sin(2 pi theta_1)/(2 pi omega_1) e_1, zero average
    assert np.max(np.abs(xi_N0)) < 1e-15
    expected_N = solve_cohomological(eta_N, golden_dio)
    assert np.max(np.abs(xi_N.coeffs - expected_N.coeffs)) < 1e-15
    # xi^L = R(-T xi^N) = -R(R(eta^N))
    expected_L = solve_cohomological(
        solve_cohomological(eta_N, golden_dio) * (-1.0), golden_dio
    )
    assert np.max(np.abs(xi_L.coeffs - expected_L.coeffs)) < 1e-14
    assert diag["residual"] < 1e-14


def test_solve_triangular_random_plugback(golden_dio):
    rng = np.random.default_rng(31)
    bands = (8, 8)
    n = 3
    T = random_map(bands, (n, n), rng, decay=0.8, scale=0.3)
    T = T.add_constant(np.eye(n) * 2.0)
    for trial in range(5):
        eta_L = random_map(bands, (n, 1), rng, decay=0.4)
        eta_N = random_map(bands, (n, 1), rng, decay=0.4)
        eta_N = eta_N.add_constant(-eta_N.average())  # force compatibility
        xi_L, xi_N, xi_N0, diag = solve_triangular(eta_L, eta_N, torsion_frames(T), golden_dio)
        scale = max(eta_L.norm(0.0).value, eta_N.norm(0.0).value)
        assert diag["residual"] <= 1e-11 * scale
        assert np.max(np.abs(xi_L.average())) == 0.0  # phase fix


def test_solve_triangular_compatibility_gate(golden_dio):
    bands = (4, 4)
    T = _identity_torsion(bands, 2)
    eta_N = FourierMap.constant(np.array([[0.3], [0.0]]), bands)
    with pytest.raises(CompatibilityError):
        solve_triangular(FourierMap.zeros(bands, (2, 1)), eta_N, torsion_frames(T),
                         golden_dio)


# -------------------------------------------------------------- newton steps


def test_newton_step_zero_error_is_identity(exact_torus_b):
    sched = NewtonSchedule(a1=2, a2=2, c_n=10.0, rho0=exact_torus_b.rho)
    new_cand, diag = newton_step(exact_torus_b, sched, exact_torus_b.rho / 12.0)
    delta_k = new_cand.k_per - exact_torus_b.k_per
    assert np.max(np.abs(delta_k.coeffs)) < 1e-14
    assert diag.err_before < 1e-13


def test_newton_step_quadratic_gain(golden_omega):
    cand = seed_candidate("lagrangian_rotors", 1e-3, golden_omega,
                          bands=(16, 16), rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho)
    new_cand, diag = newton_step(cand, sched, cand.rho / 12.0)
    assert diag.err_before / diag.err_after >= 1e2
    assert diag.compat <= 1e-12 * max(1.0, diag.err_before)
    assert diag.avg_xi_L == 0.0
    assert new_cand.rho == pytest.approx(cand.rho - 3 * cand.rho / 12.0)


def test_newton_step_smallness_gate(golden_omega):
    cand = seed_candidate("lagrangian_rotors", 0.05, golden_omega,
                          bands=(8, 8), rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=None, rho0=cand.rho)  # natural scale
    with pytest.raises(HypothesisError) as info:
        newton_step(cand, sched, cand.rho / 12.0)
    assert "smallness" in str(info.value)


# ---------------------------------------------------------------- iteration


def test_iterate_zero_coupling_converges_immediately(exact_torus_b):
    sched = NewtonSchedule(a1=2, a2=2, c_n=10.0, rho0=exact_torus_b.rho,
                           stop_tol=1e-12)
    res = iterate_newton(exact_torus_b, sched)
    assert res.converged and "0 steps" in res.reason
    assert len(res.steps) == 0


def test_iterate_converges_and_bookkeeping(golden_omega):
    cand = seed_candidate("lagrangian_rotors", 0.02, golden_omega,
                          bands=(16, 16), rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=10, stop_tol=1e-11,
                           rho0=0.03)
    res = iterate_newton(cand, sched)
    assert res.converged, res.reason
    # frequency bit-identical across the run
    assert res.candidate.omega.tobytes() == cand.omega.tobytes()
    # strips follow rho_{s+1} = rho_s - 3 delta_s and stay above rho_inf
    rhos = [rec["rho"] for rec in res.log]
    for s, (r1, r2) in enumerate(zip(rhos, rhos[1:])):
        assert r2 == pytest.approx(r1 - 3 * sched.delta(s))
        assert r2 > sched.rho0 / sched.a2 - 1e-12
    # phase fix at every step
    assert all(st.avg_xi_L == 0.0 for st in res.steps)
    # errors decay monotonically until the stop
    errs = [rec["err"] for rec in res.log]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_iterate_divergence_reported(golden_omega):
    # absurd coupling: the integrable guess is far outside the Newton basin
    cand = seed_candidate("lagrangian_rotors", 0.6, golden_omega,
                          bands=(8, 8), rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e6, max_iters=6, stop_tol=1e-12,
                           rho0=0.03)
    res = iterate_newton(cand, sched)
    assert not res.converged


def test_per_step_ledger_soundness(golden_omega):
    """||Delta K|| and ||new E|| stay below their ledger bounds at every step."""
    from kamtorus.certificate import build_ledger, estimate_global_constants
    from kamtorus.frames import measure_hypothesis_data

    cand = seed_candidate("lagrangian_rotors", 2e-3, golden_omega, bands=(16, 16),
                          rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho)
    globs = estimate_global_constants(cand.system)
    gamma, tau = cand.dio.gamma, cand.dio.tau
    current = cand
    for s in range(3):
        delta = sched.delta(s)
        it = evaluate(current)
        frames = build_frames(current, it.kitchen)
        err = it.E.norm(current.rho).value
        if err < 1e-13:
            break
        hyp = measure_hypothesis_data(current, frames)
        led = build_ledger("ordinary", globs, hyp, current.dio, current.rho, delta,
                           sched, n=2, d=2)
        new_cand, diag = newton_step(current, sched, delta, step_index=s,
                                     frames=frames)
        dk_bound = led["C_DeltaK"] / (gamma**2 * delta ** (2 * tau)) * err
        e_bound = led["C_E"] / (gamma**4 * delta ** (4 * tau)) * err**2
        assert diag.delta_k_norm <= dk_bound
        assert diag.err_after <= e_bound
        current = new_cand


def test_band_refinement_reported(golden_omega):
    """With refinement enabled, a coarse seed whose error has a heavy tail
    doubles its bands and the event lands in the log."""
    cand = seed_candidate("lagrangian_rotors", 0.02, golden_omega, bands=(2, 2),
                          rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=6, stop_tol=1e-10,
                           rho0=0.03, band_refinement=True, tail_threshold=0.1)
    res = iterate_newton(cand, sched)
    refined = [rec for rec in res.log if "band_refined_to" in rec]
    assert all("tail_fraction" in rec for rec in res.log)
    if refined:  # the tail rule decides; bands never shrink
        assert res.candidate.bands > cand.bands


def test_log_carries_norm_tables(golden_omega):
    cand = seed_candidate("lagrangian_rotors", 5e-3, golden_omega, bands=(8, 8),
                          rho=0.03)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=4, stop_tol=1e-10,
                           rho0=0.03)
    res = iterate_newton(cand, sched)
    stepped = [rec for rec in res.log if "frame_norms" in rec]
    assert stepped
    assert set(stepped[0]["frame_norms"]) == ORDINARY_FRAME_NORMS
    assert "domain_margin" in stepped[0]["hypothesis_margins"]


def test_contraction_slope_window():
    log = [{"err": e} for e in (0.3, 2e-2, 3e-4, 1e-7, 2e-13, 1e-13)]
    slope = contraction_slope(log)
    assert slope is not None and 1.7 <= slope <= 2.3
    assert contraction_slope([{"err": 1.0}]) is None
