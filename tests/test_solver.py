"""Triangular cohomological solve and the fixed-frequency Newton iteration."""

from dataclasses import replace

import numpy as np
import pytest

from kamtorus import solver
from kamtorus.cohomology import solve_cohomological
from kamtorus.fourier import FourierMap
from kamtorus.frames import build_frames
from kamtorus.solver import (
    HypothesisError,
    NewtonSchedule,
    contraction_slope,
    evaluate,
    iterate_newton,
    newton_step,
    solve_triangular,
)

from conftest import ORDINARY_FRAME_NORMS, random_map, seed_run, torsion_frames


# ----------------------------------------------------------------- schedule


SCHEDULE = dict(a1=2.0, a2=2.0, c_n=None, max_iters=20, stop_tol=1e-12, rho0=0.1)


def test_schedule_derived_quantities():
    s = NewtonSchedule(**{**SCHEDULE, "rho0": 0.12})
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
        NewtonSchedule(**{**SCHEDULE, "a1": 1.0})
    with pytest.raises(ValueError):
        NewtonSchedule(**{**SCHEDULE, "rho0": -0.1})


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
    box = np.zeros((13, 13, n, 1), dtype=complex)
    box[6 + 1, 6, 0, 0] = 0.5
    box[6 - 1, 6, 0, 0] = 0.5
    eta_N = FourierMap.from_coeffs(box)
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
        scale = max(eta_L.norm(0.0), eta_N.norm(0.0))
        assert diag["residual"] <= 1e-11 * scale
        assert np.max(np.abs(xi_L.average())) == 0.0  # phase fix


def test_solve_triangular_compatibility_gate(golden_dio):
    bands = (4, 4)
    T = _identity_torsion(bands, 2)
    eta_N = FourierMap.constant(np.array([[0.3], [0.0]]), bands)
    with pytest.raises(HypothesisError) as info:
        solve_triangular(FourierMap.zeros(bands, (2, 1)), eta_N, torsion_frames(T),
                         golden_dio)
    assert info.value.hypothesis == "compatibility"


# -------------------------------------------------------------- newton steps


@pytest.fixture
def phase_fix(monkeypatch):
    """max |<xi^L>| of each ordinary solve that a Newton step makes, in call order."""
    seen = []
    solve = solver.solve_triangular

    def recording(*args):
        xi_L, *rest = solve(*args)
        seen.append(float(np.max(np.abs(xi_L.average()))))
        return (xi_L, *rest)

    monkeypatch.setattr(solver, "solve_triangular", recording)
    return seen


def test_newton_step_zero_error_is_identity():
    it, sched, _ = seed_run(system="symmetric_rotors", epsilon=0.0, bands=[8, 8], rho0=0.05,
                            c_n=10.0)
    nxt, _ = newton_step(it, sched, it.cand.rho / 12.0).evaluate()
    delta_k = nxt.cand.k_per - it.cand.k_per
    assert np.max(np.abs(delta_k.coeffs)) < 1e-14
    assert it.E.norm(it.cand.rho) < 1e-13


def test_newton_step_quadratic_gain(phase_fix):
    it, sched, _ = seed_run(epsilon=1e-3, bands=[16, 16], rho0=0.03)
    cand = it.cand
    nxt, rec = newton_step(it, sched, cand.rho / 12.0).evaluate()
    new_cand = nxt.cand
    err_before = it.E.norm(cand.rho)
    assert err_before / rec["err_after"] >= 1e2
    assert rec["compat"] <= 1e-12 * max(1.0, err_before)
    assert phase_fix == [0.0]
    assert new_cand.rho == pytest.approx(cand.rho - 3 * cand.rho / 12.0)


def test_newton_step_smallness_gate():
    it, sched, _ = seed_run(epsilon=0.05, bands=[8, 8], rho0=0.03, c_n=None)  # natural scale
    with pytest.raises(HypothesisError) as info:
        newton_step(it, sched, it.cand.rho / 12.0)
    assert info.value.hypothesis.startswith("smallness")


# ---------------------------------------------------------------- iteration


def test_iterate_zero_coupling_converges_immediately():
    res = iterate_newton(*seed_run(system="symmetric_rotors", epsilon=0.0, bands=[8, 8],
                                   rho0=0.05, c_n=10.0, stop_tol=1e-12))
    assert res.converged and "0 steps" in res.reason
    assert len(res.log) - 1 == 0


def test_iterate_converges_and_bookkeeping(phase_fix):
    seed, sched, _ = seed_run(epsilon=0.02, bands=[16, 16], rho0=0.03, max_iters=10,
                              stop_tol=1e-11)
    res = iterate_newton(seed, sched)
    assert res.converged, res.reason
    # frequency bit-identical across the run
    assert res.iterate.cand.dio.omega.tobytes() == seed.cand.dio.omega.tobytes()
    # strips follow rho_{s+1} = rho_s - 3 delta_s and stay above rho_inf
    rhos = [rec["rho"] for rec in res.log]
    for s, (r1, r2) in enumerate(zip(rhos, rhos[1:])):
        assert r2 == pytest.approx(r1 - 3 * sched.delta(s))
        assert r2 > sched.rho0 / sched.a2 - 1e-12
    # phase fix at every step
    assert len(phase_fix) == len(res.log) - 1 and all(v == 0.0 for v in phase_fix)
    # errors decay monotonically until the stop
    errs = [rec["err"] for rec in res.log]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_iterate_divergence_reported():
    # absurd coupling: the integrable guess is far outside the Newton basin
    res = iterate_newton(*seed_run(epsilon=0.6, bands=[8, 8], rho0=0.03, c_n=1e6,
                                   max_iters=6, stop_tol=1e-12))
    assert not res.converged


def test_iterate_refuses_a_seed_off_the_schedule_strip():
    """The seed's errors are measured on its own strip, so a schedule starting
    on another strip is refused rather than re-stripping the seed unevaluated."""
    seed, sched, _ = seed_run(epsilon=5e-3, bands=[4, 4], rho0=0.03)
    with pytest.raises(ValueError, match=r"rho = 0\.03\b.*rho0 = 0\.05\b"):
        iterate_newton(seed, replace(sched, rho0=0.05))


def test_per_step_ledger_soundness():
    """||Delta K|| and ||new E|| stay below their ledger bounds at every step."""
    from kamtorus.certificate import build_ledger, estimate_global_constants
    from kamtorus.frames import measure_hypothesis_data

    seed, sched, _ = seed_run(epsilon=2e-3, bands=[16, 16], rho0=0.03)
    cand = seed.cand
    globs = estimate_global_constants(cand.system)
    gamma, tau = cand.dio.gamma, cand.dio.tau
    current = cand
    for s in range(3):
        delta = sched.delta(s)
        it = evaluate(current)
        frames = build_frames(current, it.kitchen)
        err = it.E.norm(current.rho)
        if err < 1e-13:
            break
        hyp = measure_hypothesis_data(current, frames, 1.1)
        led = build_ledger("ordinary", globs, hyp, current.dio, current.rho, delta,
                           sched, n=2)
        nxt, rec = newton_step(it, sched, delta).evaluate()
        dk_bound = led["C_DeltaK"] / (gamma**2 * delta ** (2 * tau)) * err
        e_bound = led["C_E"] / (gamma**4 * delta ** (4 * tau)) * err**2
        assert rec["delta_k"] <= dk_bound
        assert rec["err_after"] <= e_bound
        current = nxt.cand


def test_log_carries_norm_tables():
    res = iterate_newton(*seed_run(epsilon=5e-3, bands=[8, 8], rho0=0.03, max_iters=4,
                                   stop_tol=1e-10))
    stepped = [rec for rec in res.log if "frame_norms" in rec]
    assert stepped
    assert set(stepped[0]["frame_norms"]) == ORDINARY_FRAME_NORMS
    assert "domain_margin" in stepped[0]["hypothesis_margins"]


def test_contraction_slope_window():
    log = [{"err": e} for e in (0.3, 2e-2, 3e-4, 1e-7, 2e-13, 1e-13)]
    slope = contraction_slope(log)
    assert slope is not None and 1.7 <= slope <= 2.3
    assert contraction_slope([{"err": 1.0}]) is None
