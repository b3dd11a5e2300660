"""Frequency-ray bookkeeping and the level-targeting Newton iteration."""

from dataclasses import replace

import numpy as np
import pytest

from kamtorus.cohomology import estimate_gamma
from kamtorus.fourier import FourierMap
from kamtorus.frames import HypothesisError, build_frames
from kamtorus.isoenergetic import (
    FrequencyRay,
    IsoTarget,
    newton_step_iso,
    solve_triangular_iso,
)
from kamtorus.solver import NewtonSchedule, iterate_newton

from conftest import GOLDEN, random_map, seed_run, torsion_frames

ISO = {"system": "symmetric_rotors", "mode": "iso"}  # the energy level, omega_* = (1, phi)/sqrt 2


# ----------------------------------------------------------------------- ray


def test_ray_midpoint_and_margin():
    ray = FrequencyRay.at_midpoint(np.array([0.7, 1.1]), 4.0)
    assert ray.scale == pytest.approx(2.0)
    assert ray.boundary_margin() == pytest.approx(1.0 * 1.1)
    assert np.allclose(ray.omega, 2.0 * ray.omega_star)


def test_ray_rescale_and_exit():
    ray = FrequencyRay(np.array([1.0, GOLDEN]), 2.0, 1.9)
    with pytest.raises(HypothesisError) as info:
        ray.rescaled(1.2)
    assert info.value.hypothesis == "ray"
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
        scale = max(eta_L.norm(0.0), eta_N.norm(0.0), abs(eta_omega))
        assert diag["residual"] <= 1e-11 * scale
        assert np.max(np.abs(xi_L.average())) == 0.0


# ----------------------------------------------------------------- iso steps


def test_newton_step_iso_no_error_no_change():
    it, sched, target = seed_run(**ISO, epsilon=0.0, bands=[8, 8], rho0=0.05, c_n=100.0)
    assert it.E_omega == 0.0  # the target is the seed's own level
    nxt, _ = newton_step_iso(it, target, sched, it.cand.rho / 12.0).evaluate()
    assert np.max(np.abs((nxt.cand.k_per - it.cand.k_per).coeffs)) < 1e-13
    assert abs(nxt.ray.scale - it.ray.scale) < 1e-14


def test_newton_step_iso_level_gain():
    """From an invariant torus on the wrong level, one step gains >= 1e2 on |E^omega|."""
    seed, sched, level = seed_run(**ISO, epsilon=1e-3, bands=[12, 12], rho0=0.03,
                                  max_iters=10)
    settled = iterate_newton(seed, sched, level)
    assert settled.converged
    base, base_ray = settled.iterate.cand, settled.iterate.ray
    c0 = level.c0 + settled.iterate.E_omega + 1e-4  # the settled level + 1e-4
    target = IsoTarget(level.conserved, c0)
    it = target.evaluate(base, base_ray)
    nxt, rec = newton_step_iso(it, target, sched, base.rho / 12.0).evaluate()
    assert abs(it.E_omega) == pytest.approx(1e-4)
    assert abs(it.E_omega) / max(abs(rec["err_omega_after"]), 1e-300) >= 1e2
    assert rec["ray_margin"] > 0


def test_nan_level_error_makes_the_combined_norm_nan():
    """A NaN E^omega is not dropped from max(||E||, |E^omega|)."""
    seed, _, target = seed_run(**ISO, epsilon=0.0, bands=[4, 4], rho0=0.05)
    it = replace(target, c0=float("nan")).evaluate(seed.cand, seed.ray)
    assert np.isnan(it.E_omega) and np.isfinite(it.E.norm(it.cand.rho))
    assert np.isnan(it.combined_norm(it.cand.rho))


def test_rescan_certificate_scales_with_frequency():
    """|k . omega_bar| = (1 - xi^omega) |k . omega| along the ray."""
    cand = seed_run(**ISO, epsilon=1e-3, bands=[10, 10])[0].cand
    factor = 0.99
    fresh = estimate_gamma(factor * cand.dio.omega, cand.dio.tau, 300)
    base = estimate_gamma(cand.dio.omega, cand.dio.tau, 300)
    assert fresh == pytest.approx(factor * base, rel=1e-12)


# ------------------------------------------------------------- full solves


def test_iterate_iso_exact_level_keeps_frequency():
    seed, sched, target = seed_run(**ISO, epsilon=0.0, bands=[8, 8], rho0=0.05, c_n=100.0)
    res = iterate_newton(seed, sched, target)
    assert res.converged and "0 steps" in res.reason
    assert res.iterate.cand.dio.omega.tobytes() == seed.ray.omega.tobytes()


@pytest.mark.parametrize("fields", [
    {"conserved": "H"},
    {"conserved": "p:0"},
    {"system": "lagrangian_rotors", "epsilon": 5e-3},  # d = n: the classical iso-energetic case
], ids=["H", "p:0", "lagrangian_rotors"])
def test_iterate_iso_targets_offset_level(fields):
    seed, sched, target = seed_run(**{**ISO, "epsilon": 0.01, "bands": [16, 16], "rho0": 0.03,
                                      "c0_offset": 1e-3, "max_iters": 10, **fields})
    res = iterate_newton(seed, sched, target)
    assert res.converged, res.reason
    last, c0 = res.iterate, target.c0
    assert abs((c0 + last.E_omega) - c0) <= 1e-11
    assert last.ray.boundary_margin() > 0
    # ray direction bit-stable across the run
    assert last.ray.omega_star.tobytes() == seed.ray.omega_star.tobytes()
    # the final frequency is scale * omega_star exactly
    assert last.cand.dio.omega.tobytes() == (last.ray.scale * seed.ray.omega_star).tobytes()


def test_iso_per_step_contraction_ledger():
    """The combined quadratic-contraction inequality holds with the ledger
    constant at every executed step."""
    from kamtorus.certificate import contraction_constant_factory, estimate_global_constants

    seed, sched, target = seed_run(**ISO, epsilon=0.005, bands=[12, 12], rho0=0.03,
                                   c0_offset=1e-3, max_iters=10)
    globs = estimate_global_constants(seed.cand.system, conserved=target.conserved)
    hook = contraction_constant_factory(globs, sched, 1.1)
    res = iterate_newton(seed, sched, target, hook)
    assert res.converged
    assert len(res.log) > 1 and all(rec["contraction_ok"] for rec in res.log[:-1])


def test_iso_frequency_drift_within_reported_bound():
    """|omega_inf - omega| stays below the reported drift bound E3 ||E_c||/(gamma rho^tau)."""
    from kamtorus.certificate import certify, estimate_global_constants

    seed, sched, level = seed_run(**ISO, epsilon=0.005, bands=[12, 12], rho0=0.03,
                                  max_iters=10)
    settled = iterate_newton(seed, sched, level)
    assert settled.converged
    base, base_ray = settled.iterate.cand, settled.iterate.ray

    conserved = level.conserved
    target = IsoTarget(conserved, level.c0 + settled.iterate.E_omega + 1e-6)  # settled + 1e-6
    it = target.evaluate(base, base_ray)
    err_c = it.combined_norm(base.rho)
    globs = estimate_global_constants(base.system, conserved=conserved)
    fr = build_frames(base, it.kitchen)
    report, ledger = certify(it, fr, sched, globs, 1.1)
    assert report.mode == "iso" and report.error_norm == err_c
    resched = NewtonSchedule(a1=2, a2=2, c_n=1e4, rho0=base.rho, stop_tol=1e-12,
                             max_iters=8)
    res = iterate_newton(it, resched, target)
    assert res.converged
    measured = float(np.max(np.abs(res.iterate.cand.dio.omega - base.dio.omega)))
    gamma, tau = base.dio.gamma, base.dio.tau
    bound = ledger["E3"] * err_c / (gamma * base.rho**tau)
    assert measured <= bound
    if report.passed:
        assert report.closeness_second == pytest.approx(bound)


def test_bottom_row_limit_on_converged_torus():
    seed, sched, target = seed_run(**ISO, epsilon=0.01, bands=[16, 16], rho0=0.03,
                                   c0_offset=1e-3, max_iters=10)
    res = iterate_newton(seed, sched, target)
    assert res.converged
    final = res.iterate.cand
    fr = build_frames(final, res.iterate.kitchen)
    omega_hat = np.concatenate([final.dio.omega, np.zeros(final.system.n - 2)])
    row = fr.Tdown.add_constant(-omega_hat[None, :])
    assert row.norm(0.0) <= 1e-8
