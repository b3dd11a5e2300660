"""Frequency-ray bookkeeping and the level-targeting Newton iteration."""

import numpy as np
import pytest

from kamtorus.cohomology import DiophantineParams, estimate_gamma
from kamtorus.fourier import FourierMap
from kamtorus.frames import TorusCandidate, build_frames, grid_kitchen
from kamtorus.isoenergetic import (
    FrequencyRay,
    IsoTarget,
    RayExitError,
    newton_step_iso,
    solve_triangular_iso,
    total_error,
)
from kamtorus.solver import NewtonSchedule, iterate_newton

from conftest import GOLDEN, random_map, seed_candidate, torsion_frames


def iso_setup(eps=0.01, bands=(16, 16), rho=0.03, sigma_omega=2.0):
    omega_target = np.array([1.0, GOLDEN])
    omega_star = omega_target / np.sqrt(sigma_omega)
    ray = FrequencyRay.at_midpoint(omega_star, sigma_omega)
    gamma = estimate_gamma(omega_star, 1.0, 1000)
    dio = DiophantineParams(ray.omega, gamma, 1.0, 1000)
    cand = seed_candidate("symmetric_rotors", eps, ray.omega, bands=bands, rho=rho,
                          dio=dio)
    return cand, ray


# ----------------------------------------------------------------------- ray


def test_ray_midpoint_and_margin():
    ray = FrequencyRay.at_midpoint(np.array([0.7, 1.1]), 4.0)
    assert ray.scale == pytest.approx(2.0)
    assert ray.boundary_margin() == pytest.approx(1.0 * 1.1)
    assert np.allclose(ray.omega, 2.0 * ray.omega_star)


def test_ray_rescale_and_exit():
    ray = FrequencyRay(np.array([1.0, GOLDEN]), 2.0, 1.9)
    with pytest.raises(RayExitError):
        ray.rescaled(1.2)
    ok = ray.rescaled(0.9)
    assert ok.scale == pytest.approx(1.71)
    with pytest.raises(ValueError):
        FrequencyRay(np.array([1.0, GOLDEN]), 2.0, 2.5)


def test_ray_direction_immutable():
    ray = FrequencyRay.at_midpoint(np.array([1.0, GOLDEN]), 2.0)
    r2 = ray.rescaled(0.97).rescaled(1.01)
    assert r2.omega_star.tobytes() == ray.omega_star.tobytes()


# --------------------------------------------------------- triangular (iso)


def test_solve_triangular_iso_zero_data(golden_dio):
    bands = (6, 6)
    n = 2
    zero = FourierMap.zeros(bands, (n, 1))
    T = FourierMap.constant(np.eye(n), bands)
    Tdown = FourierMap.constant(
        np.concatenate([golden_dio.omega, np.zeros(n - 2)])[None, :], bands
    )
    xi_L, xi_N, xi_N0, xi_omega, diag = solve_triangular_iso(
        zero, zero, 0.0, torsion_frames(T, Tdown, golden_dio.omega), golden_dio
    )
    assert np.max(np.abs(xi_L.coeffs)) == 0.0
    assert np.max(np.abs(xi_N.coeffs)) == 0.0
    assert xi_omega == 0.0


def test_solve_triangular_iso_hand_block(golden_dio):
    """T = I, Tdown = omega_hat^T, eta = 0, eta^omega = 1:
    xi^omega = -1/|omega_hat|_2^2 and xi^N_0 = omega_hat/|omega_hat|_2^2."""
    bands = (6, 6)
    n = 2
    omega_hat = golden_dio.omega
    zero = FourierMap.zeros(bands, (n, 1))
    T = FourierMap.constant(np.eye(n), bands)
    Tdown = FourierMap.constant(omega_hat[None, :], bands)
    xi_L, xi_N, xi_N0, xi_omega, diag = solve_triangular_iso(
        zero, zero, 1.0, torsion_frames(T, Tdown, golden_dio.omega), golden_dio
    )
    nrm2 = float(omega_hat @ omega_hat)
    assert xi_omega == pytest.approx(-1.0 / nrm2, rel=1e-13)
    assert np.allclose(xi_N0[:, 0], omega_hat / nrm2, atol=1e-13)


def test_solve_triangular_iso_random_plugback(golden_dio):
    rng = np.random.default_rng(77)
    bands = (8, 8)
    n = 3
    T = random_map(bands, (n, n), rng, decay=0.7, scale=0.2)
    T = T.add_constant(np.eye(n))
    Tdown = random_map(bands, (1, n), rng, decay=0.7, scale=0.2)
    Tdown = Tdown.add_constant(np.concatenate([golden_dio.omega, [0.0]])[None, :])
    for _ in range(5):
        eta_L = random_map(bands, (n, 1), rng, decay=0.4)
        eta_N = random_map(bands, (n, 1), rng, decay=0.4)
        eta_N = eta_N.add_constant(-eta_N.average())
        eta_omega = float(rng.standard_normal())
        xi_L, xi_N, xi_N0, xi_omega, diag = solve_triangular_iso(
            eta_L, eta_N, eta_omega, torsion_frames(T, Tdown, golden_dio.omega), golden_dio
        )
        scale = max(eta_L.norm(0.0).value, eta_N.norm(0.0).value, abs(eta_omega))
        assert diag["residual"] <= 1e-11 * scale
        assert np.max(np.abs(xi_L.average())) == 0.0


# ----------------------------------------------------------------- iso steps


def test_newton_step_iso_no_error_no_change():
    cand, ray = iso_setup(eps=0.0, bands=(8, 8), rho=0.05)
    conserved = cand.system.conserved("H")
    c0 = float(grid_kitchen(cand, conserved).c_map.average().real[0, 0])
    sched = NewtonSchedule(a1=2, a2=2, c_n=100.0, rho0=cand.rho)
    new_cand, new_ray, diag = newton_step_iso(cand, ray, conserved, c0, sched,
                                              cand.rho / 12.0)
    assert np.max(np.abs((new_cand.k_per - cand.k_per).coeffs)) < 1e-13
    assert abs(new_ray.scale - ray.scale) < 1e-14


def test_newton_step_iso_level_gain():
    """From an invariant torus on the wrong level, one step gains >= 1e2 on |E^omega|."""
    cand, ray = iso_setup(eps=1e-3, bands=(12, 12), rho=0.03)
    conserved = cand.system.conserved("H")
    seed_level = total_error(cand, conserved, 0.0).E_omega
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    settled = iterate_newton(cand, sched, IsoTarget(conserved, seed_level), ray)
    assert settled.converged
    base, base_ray = settled.candidate, settled.ray
    c0 = settled.c_final + 1e-4
    sched2 = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=base.rho)
    new_cand, new_ray, diag = newton_step_iso(base, base_ray, conserved, c0, sched2,
                                              base.rho / 12.0)
    assert abs(diag.err_omega_before) == pytest.approx(1e-4)
    assert abs(diag.err_omega_before) / max(abs(diag.err_omega_after), 1e-300) >= 1e2
    assert diag.ray_margin > 0


def test_rescan_certificate_scales_with_frequency():
    """|k . omega_bar| = (1 - xi^omega) |k . omega| along the ray."""
    cand, ray = iso_setup(eps=1e-3, bands=(10, 10))
    factor = 0.99
    fresh = estimate_gamma(factor * cand.dio.omega, cand.dio.tau, 300)
    base = estimate_gamma(cand.dio.omega, cand.dio.tau, 300)
    assert fresh == pytest.approx(factor * base, rel=1e-12)


# ------------------------------------------------------------- full solves


def test_iterate_iso_exact_level_keeps_frequency():
    cand, ray = iso_setup(eps=0.0, bands=(8, 8), rho=0.05)
    conserved = cand.system.conserved("H")
    c0 = float(grid_kitchen(cand, conserved).c_map.average().real[0, 0])
    sched = NewtonSchedule(a1=2, a2=2, c_n=100.0, rho0=cand.rho, stop_tol=1e-12)
    res = iterate_newton(cand, sched, IsoTarget(conserved, c0), ray)
    assert res.converged and "0 steps" in res.reason
    assert res.omega_final.tobytes() == res.omega_initial.tobytes()


@pytest.mark.parametrize("selector", ["H", ("p", 0)])
def test_iterate_iso_targets_offset_level(selector):
    cand, ray = iso_setup(eps=0.01, bands=(16, 16), rho=0.03)
    conserved = cand.system.conserved(selector)
    seed_level = total_error(cand, conserved, 0.0).E_omega
    c0 = seed_level + 1e-3
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    res = iterate_newton(cand, sched, IsoTarget(conserved, c0), ray)
    assert res.converged, res.reason
    assert abs(res.c_final - c0) <= 1e-11
    assert res.ray.boundary_margin() > 0
    # ray direction bit-stable across the run
    assert res.ray.omega_star.tobytes() == ray.omega_star.tobytes()
    # the final frequency is scale * omega_star exactly
    assert res.omega_final.tobytes() == (res.ray.scale * ray.omega_star).tobytes()


def test_iso_on_lagrangian_tori():
    """d = n energy targeting (classical iso-energetic reduction)."""
    omega_target = np.array([1.0, GOLDEN])
    ray = FrequencyRay.at_midpoint(omega_target / np.sqrt(2.0), 2.0)
    gamma = estimate_gamma(ray.omega_star, 1.0, 1000)
    dio = DiophantineParams(ray.omega, gamma, 1.0, 1000)
    cand = seed_candidate("lagrangian_rotors", 5e-3, ray.omega, bands=(16, 16),
                          rho=0.03, dio=dio)
    conserved = cand.system.conserved("H")
    seed_level = total_error(cand, conserved, 0.0).E_omega
    c0 = seed_level + 1e-3
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    res = iterate_newton(cand, sched, IsoTarget(conserved, c0), ray)
    assert res.converged, res.reason
    assert abs(res.c_final - c0) <= 1e-11


def test_iso_per_step_contraction_ledger():
    """The combined quadratic-contraction inequality holds with the ledger
    constant at every executed step."""
    from kamtorus.certificate import contraction_constant_factory, estimate_global_constants

    cand, ray = iso_setup(eps=0.005, bands=(12, 12), rho=0.03)
    conserved = cand.system.conserved("H")
    seed_level = total_error(cand, conserved, 0.0).E_omega
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    globs = estimate_global_constants(cand.system, conserved=conserved)
    hook = contraction_constant_factory(globs, sched)
    res = iterate_newton(cand, sched, IsoTarget(conserved, seed_level + 1e-3), ray, hook)
    assert res.converged
    assert res.steps and all(st.contraction_ok for st in res.steps)


def test_custom_conserved_quantity_verification():
    cand, ray = iso_setup(eps=0.01, bands=(8, 8))
    sys_obj = cand.system
    from kamtorus.hamiltonian import ConservedQuantity

    # H + p is a legitimate first integral in involution with (H, p)
    good = ConservedQuantity(
        "H+p",
        c=lambda z: sys_obj.H(z) + sys_obj.p(z)[..., 0],
        Dc=lambda z: sys_obj.DH(z) + sys_obj.Dp(z)[..., 0, :],
        D2c=lambda z: sys_obj.conserved("H", verify=False).D2c(z),
    )
    out = sys_obj.conserved(custom=good)
    assert out.name == "H+p"
    # x1 is not conserved: {x1, H} = y1 != 0
    bad = ConservedQuantity(
        "x1",
        c=lambda z: z[..., 0],
        Dc=lambda z: np.eye(6)[0] * np.ones(z.shape[:-1] + (1,)),
        D2c=lambda z: np.zeros(z.shape[:-1] + (6, 6)),
    )
    with pytest.raises(ValueError):
        sys_obj.conserved(custom=bad)


def test_iso_frequency_drift_within_reported_bound():
    """|omega_inf - omega| stays below the reported drift bound E3 ||E_c||/(gamma rho^tau)."""
    from kamtorus.certificate import certify, estimate_global_constants

    cand, ray = iso_setup(eps=0.005, bands=(12, 12), rho=0.03)
    conserved = cand.system.conserved("H")
    seed_level = total_error(cand, conserved, 0.0).E_omega
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    settled = iterate_newton(cand, sched, IsoTarget(conserved, seed_level), ray)
    assert settled.converged
    base, base_ray = settled.candidate, settled.ray

    c0 = settled.c_final + 1e-6
    it = IsoTarget(conserved, c0).evaluate(base, base_ray)
    err_c = it.combined_norm(base.rho)
    globs = estimate_global_constants(base.system, conserved=conserved)
    fr = build_frames(base, it.kitchen)
    report, ledger = certify(it, fr, sched, globs)
    assert report.mode == "iso" and report.error_norm == err_c
    resched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=base.rho, stop_tol=1e-12,
                             max_iters=8)
    res = iterate_newton(base, resched, IsoTarget(conserved, c0), base_ray)
    assert res.converged
    measured = float(np.max(np.abs(res.omega_final - base.omega)))
    gamma, tau = base.dio.gamma, base.dio.tau
    bound = ledger["E3"] * err_c / (gamma * base.rho**tau)
    assert measured <= bound
    if report.passed:
        assert report.closeness_second == pytest.approx(bound)


def test_bottom_row_limit_on_converged_torus():
    cand, ray = iso_setup(eps=0.01, bands=(16, 16), rho=0.03)
    conserved = cand.system.conserved("H")
    seed_level = total_error(cand, conserved, 0.0).E_omega
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=cand.rho, stop_tol=1e-12,
                           max_iters=10)
    res = iterate_newton(cand, sched, IsoTarget(conserved, seed_level + 1e-3), ray)
    assert res.converged
    fr = build_frames(res.candidate, grid_kitchen(res.candidate, conserved))
    omega_hat = np.concatenate([res.omega_final, np.zeros(res.candidate.system.n - 2)])
    row = fr.Tdown.add_constant(-omega_hat[None, :])
    assert row.norm(0.0).value <= 1e-8
