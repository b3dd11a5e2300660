"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one line `ACCEPTANCE <n>: PASS|FAIL - <detail>`;
run `pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kamtorus.certificate import (
    build_ledger,
    certify,
    contraction_constant_factory,
    estimate_global_constants,
    kam_check,
)
from kamtorus.cohomology import russmann_constant, solve_cohomological
from kamtorus.fourier import FourierMap, matmul
from kamtorus.frames import (
    build_frames,
    grid_kitchen,
    invariance_error,
    measure_hypothesis_data,
    tangent_frame,
    work_grid,
)
from kamtorus.solver import Iterate, NewtonSchedule, contraction_slope, evaluate, iterate_newton

from conftest import dk_map, random_map, seed_run, with_zero_integrals
from oracles import error_maps, ledger_diff, matrix_inverse_control, soundness_report


def announce(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)  # visible with `pytest -s`; asserted either way
    assert ok, line


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_cohomology_round_trip(golden_dio):
    """100 random band-limited maps: residual <= 1e-12 relative and the
    small-divisor inequality with the computed constant; wall time < 5 s."""
    rng = np.random.default_rng(1001)
    bands = (16, 16)
    rho, delta = 0.1, 0.03
    tau, gamma = golden_dio.tau, golden_dio.gamma
    c_r = russmann_constant(tau, delta)
    factor = c_r / (gamma * delta**tau)
    t0 = time.time()
    worst_resid, worst_gain = 0.0, 0.0
    for _ in range(100):
        v = random_map(bands, (1, 1), rng, decay=rng.uniform(0.0, 0.6))
        u = solve_cohomological(v, golden_dio)
        recon = u.lie(golden_dio.omega).add_constant(v.average())
        resid = np.max(np.abs(recon.coeffs - v.coeffs)) / np.max(np.abs(v.coeffs))
        worst_resid = max(worst_resid, resid)
        gain = u.norm(rho - delta) / (factor * v.norm(rho))
        worst_gain = max(worst_gain, gain)
    elapsed = time.time() - t0
    ok = worst_resid <= 1e-12 and worst_gain <= 1.0 + 1e-12 and elapsed < 5.0
    announce(1, ok, f"residual {worst_resid:.2e}, bound usage {worst_gain:.3f}, "
                    f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_exact_torus_zeroing():
    it = seed_run(system="symmetric_rotors", epsilon=0.0, bands=[8, 8], rho0=0.05)[0]
    cand, kk = it.cand, it.kitchen
    err = it.E.norm(cand.rho)
    maps = error_maps(cand, build_frames(cand, kk), kk)
    mid = 0.6 * cand.rho
    norms = {
        "OmegaK": maps.OmegaK.norm(mid),
        "Elag": maps.Elag.norm(mid),
        "Esym": maps.Esym.norm(mid),
        "Ered": maps.Ered.norm(mid),
    }
    ok = err <= 1e-13 and all(v <= 1e-11 for v in norms.values())
    announce(2, ok, f"||E|| = {err:.2e}, error maps <= {max(norms.values()):.2e}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_structural_identities():
    rng = np.random.default_rng(33)
    worst_avg, worst_compat, worst_block = 0.0, 0.0, 0.0
    cases = []
    for name, eps, bands in (("lagrangian_rotors", 0.0, [12, 12]),
                             ("lagrangian_rotors", 2e-2, [12, 12]),
                             ("symmetric_rotors", 0.0, [10, 10]),
                             ("symmetric_rotors", 1e-2, [10, 10])):
        base = seed_run(system=name, epsilon=eps, bands=bands, rho0=0.03)[0].cand
        cases.append(base)
        noise = random_map(base.bands, base.k_per.shape, rng,
                           decay=1.5, scale=3e-3)
        cases.append(replace(base, k_per=base.k_per + noise))
    for cand in cases:
        kk = grid_kitchen(cand)
        E = invariance_error(cand, kk)
        fr = build_frames(cand, kk)
        maps = error_maps(cand, fr, kk)
        worst_avg = max(worst_avg, float(np.max(np.abs(maps.OmegaK.average()))))
        eta_N = matmul(fr.L.T, E.rmatmul_constant(cand.system.geometry.Omega))
        worst_compat = max(worst_compat, float(np.max(np.abs(eta_N.average()))))
        n = cand.system.n
        worst_block = max(worst_block,
                          float(np.max(np.abs(maps.Ered.coeffs[..., :n, n:]))))
    ok = worst_avg <= 1e-11 and worst_compat <= 1e-11 and worst_block <= 1e-11
    announce(3, ok, f"<Omega_K> {worst_avg:.2e}, <L^T Omega E> {worst_compat:.2e}, "
                    f"Ered(1,2) {worst_block:.2e} over {len(cases)} candidates")


# ---------------------------------------------------------------- criterion 4


@pytest.mark.parametrize("name,eps", [("lagrangian_rotors", 0.02),
                                      ("symmetric_rotors", 0.01)])
def test_criterion_4_quadratic_convergence(name, eps):
    seed, sched, _ = seed_run(system=name, epsilon=eps, bands=[32, 32], rho0=0.03,
                              max_iters=8, stop_tol=1e-12)
    globs = estimate_global_constants(seed.cand.system)
    hook = contraction_constant_factory(globs, sched, 1.1)
    t0 = time.time()
    res = iterate_newton(seed, sched, contraction_ledger=hook)
    elapsed = time.time() - t0
    slope = contraction_slope(res.log)
    steps = len(res.log) - 1
    per_step_ok = all(rec["contraction_ok"] for rec in res.log[:-1])
    ok = (res.converged and steps <= 8 and elapsed < 60.0
          and slope is not None and 1.7 <= slope <= 2.3 and per_step_ok)
    announce(4, ok, f"{name}: {steps} steps, final {res.log[-1]['err']:.2e}, "
                    f"slope {slope}, ledger inequality {per_step_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5


@pytest.mark.parametrize("selector", ["H", ("p", 0)])
def test_criterion_5_isoenergetic_targeting(selector):
    seed, sched, level = seed_run(
        system="symmetric_rotors", mode="iso", conserved="H" if selector == "H" else "p:0",
        epsilon=0.01, bands=[16, 16], rho0=0.03, c0_offset=1e-3, max_iters=10)
    c0 = level.c0
    res = iterate_newton(seed, sched, level)
    final = res.iterate.cand
    level_err = abs((c0 + res.iterate.E_omega) - c0)
    margin = res.iterate.ray.boundary_margin()
    fr = build_frames(final, res.iterate.kitchen)
    n, d = final.system.n, final.d
    if selector == "H":
        target = np.concatenate([final.dio.omega, np.zeros(n - d)])
    else:
        target = np.eye(n)[d + 0]
    row_err = fr.Tdown.add_constant(-target[None, :]).norm(0.0)
    ok = (res.converged and level_err <= 1e-11 and margin > 0 and row_err <= 1e-8)
    announce(5, ok, f"c={selector}: |<c o K>-c0| = {level_err:.2e}, "
                    f"ray margin {margin:.3f}, bottom row {row_err:.2e}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_lemma_bound_soundness():
    rng = np.random.default_rng(66)
    sched = NewtonSchedule(a1=2, a2=2, c_n=None, max_iters=20, stop_tol=1e-12, rho0=0.03)
    violations = []
    checked = 0
    candidates = []
    for name, eps, bands in (("lagrangian_rotors", 1e-3, [16, 16]),
                             ("symmetric_rotors", 1e-3, [12, 12])):
        settle = iterate_newton(*seed_run(system=name, epsilon=eps, bands=bands, rho0=0.03,
                                          max_iters=20))
        assert settle.converged
        anchor = settle.iterate.cand
        for k in range(10):
            noise = random_map(anchor.bands, anchor.k_per.shape, rng,
                               decay=1.5, scale=10.0 ** rng.uniform(-7, -5))
            candidates.append(replace(anchor, k_per=anchor.k_per + noise))
    for cand in candidates:
        globs = estimate_global_constants(cand.system, "H")
        kk = grid_kitchen(cand, "H")
        it = Iterate(cand, kk, invariance_error(cand, kk))
        fr = build_frames(cand, kk)
        delta = cand.rho / 4.0
        c_centered = kk.c_map.add_constant(-kk.c_map.average())
        p_level = None
        if cand.system.n_integrals:
            p_vals = cand.system.p(cand.k_values(work_grid(cand.bands)))[..., None]
            p_map = FourierMap.from_samples(p_vals, cand.bands)
            p_map = p_map.add_constant(-p_map.average())
            p_level = p_map.norm(cand.rho - delta)
        pairs = soundness_report(it, fr, globs, delta, sched,
                                 c_level_norm=c_centered.norm(cand.rho - delta),
                                 p_level_norm=p_level)
        for label, measured, bound in pairs:
            checked += 1
            if measured > bound + 1e-9:
                violations.append((label, measured, bound))
    ok = len(candidates) == 20 and not violations
    announce(6, ok, f"{checked} inequalities on {len(candidates)} candidates, "
                    f"violations: {violations[:3] if violations else 'none'}")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_certificate_end_to_end():
    # documented parameters: epsilon = 1e-3, bands 16^2, rho0 = 0.03,
    # tau = 1, a1 = a2 = 2, sigma margins at 1.1 x measured
    seed, sched, _ = seed_run(epsilon=1e-3, bands=[16, 16], rho0=0.03, tau=1.0, a1=2.0,
                              a2=2.0, c_n=1e4, max_iters=10, stop_tol=1e-13)
    globs = estimate_global_constants(seed.cand.system)
    res = iterate_newton(seed, sched)
    assert res.converged, res.reason
    it = res.iterate
    torus = it.cand
    fr = build_frames(torus, it.kitchen)
    report, ledger = certify(it, fr, sched, globs, 1.1)
    primary_pass = report.passed and report.ratio < 1.0

    # garbage candidate must fail loudly
    report_bad = kam_check(it.cand, ledger, 1e-2)
    bad_fails = (not report_bad.passed) and report_bad.ratio > 1.0

    if primary_pass:
        # closeness bound: perturb, re-measure, re-converge, compare
        rng = np.random.default_rng(7)
        noise = random_map(torus.bands, torus.k_per.shape, rng,
                           decay=1.5, scale=1e-9)
        perturbed = replace(torus, k_per=torus.k_per + noise)
        it_p = evaluate(perturbed)
        err_p = it_p.E.norm(perturbed.rho)
        fr_p = build_frames(perturbed, it_p.kitchen)
        report_p, ledger_p = certify(it_p, fr_p, sched, globs, 1.1)
        assert report_p.error_norm == err_p
        resched = NewtonSchedule(a1=2.0, a2=2.0, c_n=1e4, max_iters=8,
                                 stop_tol=1e-13, rho0=perturbed.rho)
        re_res = iterate_newton(it_p, resched)
        assert re_res.converged
        rho_inf = perturbed.rho / sched.a2
        measured = (re_res.iterate.cand.k_per - perturbed.k_per).norm(rho_inf)
        gamma, tau = perturbed.dio.gamma, perturbed.dio.tau
        bound = ledger_p["E2"] * err_p / (gamma**2 * perturbed.rho ** (2 * tau))
        closeness_ok = measured <= bound
        ok = primary_pass and bad_fails and closeness_ok
        announce(7, ok, f"PRIMARY branch: ratio {report.ratio:.4f} < 1 at "
                        f"||E|| = {report.error_norm:.2e}; garbage ratio "
                        f"{report_bad.ratio:.2e}; closeness {measured:.2e} <= "
                        f"{bound:.2e}")
    else:
        # documented fallback: the hypothesis ratio must decrease >= 10x per
        # Newton step in the pre-roundoff regime
        ratios = []
        current = seed.cand
        for s in range(4):
            it_s = evaluate(current)
            rep_s, _ = certify(it_s, build_frames(current, it_s.kitchen), sched, globs, 1.1)
            ratios.append(rep_s.ratio)
            from kamtorus.solver import newton_step

            current = newton_step(it_s, sched, sched.delta(s)).cand
        drops = [a / b for a, b in zip(ratios, ratios[1:]) if b > 0]
        fallback_ok = all(drop >= 10.0 for drop in drops) and bad_fails
        announce(7, fallback_ok,
                 f"FALLBACK branch (ratio < 1 unattained at double precision): "
                 f"per-step ratio drops {['%.1f' % d for d in drops]}, all >= 10x; "
                 f"garbage ratio {report_bad.ratio:.2e}")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_inverse_control_sweep():
    rng = np.random.default_rng(88)
    hand = matrix_inverse_control(np.eye(2), np.diag([1.1, 1.0]), 2.0)
    hand_ok = (abs(hand.condition_value - 0.8) < 1e-12
               and abs(hand.actual_difference - 1.0 / 11.0) < 1e-12
               and hand.actual_difference < hand.bound)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        M = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
        Minv_norm = float(np.abs(np.linalg.inv(M)).sum(axis=1).max())
        sigma = Minv_norm * float(rng.uniform(1.02, 4.0))
        step = (sigma - Minv_norm) / (2 * sigma**2) * float(rng.uniform(0.01, 1.0))
        pert = rng.standard_normal((n, n))
        pert *= step / max(np.abs(pert).sum(axis=1).max(), 1e-300)
        rep = matrix_inverse_control(M, M + pert, sigma)
        if not (rep.condition_ok and rep.invertible
                and rep.actual_difference < rep.bound + 1e-14
                and rep.new_inverse_norm < sigma):
            failures += 1
    ok = hand_ok and failures == 0
    announce(8, ok, f"hand example 0.8 vs {hand.actual_difference:.4f}; "
                    f"{failures}/1000 sweep failures")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_lagrangian_reduction():
    it = seed_run(epsilon=1e-3, bands=[12, 12], rho0=0.03)[0]
    cand, kk = it.cand, it.kitchen
    globs = estimate_global_constants(cand.system)
    zero_keys = ("c_p_1", "c_pT_1", "c_Xp_0", "c_Xp_1", "c_Xp_2",
                 "c_XpT_0", "c_XpT_1", "c_XpT_2")
    zeros_ok = all(globs.values[k] == 0.0 for k in zero_keys)
    # the ledger with explicitly zeroed integral constants is bit-identical
    fr = build_frames(cand, kk)
    hyp = measure_hypothesis_data(cand, fr, 1.1)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, max_iters=20, stop_tol=1e-12, rho0=cand.rho)
    led = build_ledger("ordinary", globs, hyp, cand.dio, cand.rho, cand.rho / 12,
                       sched, n=2)
    led_zeroed = build_ledger("ordinary", with_zero_integrals(globs), hyp,
                              cand.dio, cand.rho, cand.rho / 12, sched, n=2)
    diff = ledger_diff(led, led_zeroed)
    # the solver path is the general one with width-zero X_p columns
    L = tangent_frame(cand, kk)
    same_frame = (L.shape == (4, 2)
                  and np.max(np.abs(L.coeffs - dk_map(cand).coeffs)) == 0.0
                  and cand.system.Xp(np.zeros((1, 4))).shape == (1, 4, 0))
    ok = zeros_ok and diff == {} and same_frame
    announce(9, ok, f"integral constants zero: {zeros_ok}; ledger diff: {diff}; "
                    f"empty symmetry columns through the generic path: {same_frame}")
