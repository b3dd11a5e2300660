"""Global constants, the ledger chain, the existence check, inverse control."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamtorus.certificate
from kamtorus.certificate import (
    LedgerError,
    REPORT_HEADER,
    build_ledger,
    certify,
    estimate_global_constants,
    kam_check,
)
from kamtorus.cohomology import DiophantineParams, estimate_gamma
from kamtorus.frames import build_frames, measure_hypothesis_data
from kamtorus.hamiltonian import builtin_system
from kamtorus.solver import NewtonSchedule, evaluate

from conftest import GOLDEN, scaled_structure, seed_candidate, with_zero_integrals
from oracles import ledger_diff, matrix_inverse_control


# ----------------------------------------------------------- global constants


def test_canonical_structure_constants_exact():
    sys_obj = builtin_system("lagrangian_rotors", epsilon=0.01, y_center=[1.0, GOLDEN])
    g = estimate_global_constants(sys_obj)
    for key in ("c_Omega_0", "c_tOmega_0", "c_G_0", "c_J_0", "c_JT_0"):
        assert g.values[key] == 1.0
        assert g.provenance[key] == "canonical-exact"
    for key in ("c_Omega_1", "c_tOmega_1", "c_tOmega_2", "c_G_1", "c_G_2",
                "c_J_1", "c_J_2", "c_JT_1"):
        assert g.values[key] == 0.0


def test_lagrangian_case_zero_integral_constants():
    sys_obj = builtin_system("lagrangian_rotors", epsilon=0.01, y_center=[1.0, GOLDEN])
    g = estimate_global_constants(sys_obj)
    for key in ("c_p_1", "c_pT_1", "c_Xp_0", "c_Xp_1", "c_Xp_2",
                "c_XpT_0", "c_XpT_1", "c_XpT_2"):
        assert g.values[key] == 0.0
        assert g.provenance[key] == "canonical-exact"


def test_sampled_hessian_constant_below_hand_bound():
    """System B: the sampled c_XH_2 must stay below the analytic sup bound of
    the explicit trigonometric third-derivative tensor."""
    eps, w = 0.02, 0.2
    sys_obj = builtin_system("symmetric_rotors", epsilon=eps,
                             y_center=[1.0, GOLDEN, 0.0], imag_width=w)
    g = estimate_global_constants(sys_obj, margin=0.0)
    # trig factors in x1 see |Im| <= w; factors in x2 - x3 see |Im| <= 2w
    C1 = np.cosh(2 * np.pi * w)
    C2 = np.cosh(4 * np.pi * w)
    t3 = (2 * np.pi) ** 3 * eps
    # momentum row 1 collects the nine V_{1jk}: |s1(1+cd)| once, |c1 sd| or
    # |s1 cd| for the remaining eight entries
    row1 = t3 * (C1 * (1 + C2) + 8 * C1 * C2)
    # momentum rows 2, 3 collect nine c1*sd / s1*cd-type entries
    row2 = t3 * 9 * C1 * C2
    hand = max(row1, row2)
    assert g.values["c_XH_2"] <= hand
    assert g.provenance["c_XH_2"] == "sampled"


def test_sampled_constants_dominate_real_samples():
    """The 1.05-margin sampled sup must dominate callback values at fresh points."""
    sys_obj = builtin_system("symmetric_rotors", epsilon=0.03,
                             y_center=[1.0, GOLDEN, 0.0])
    g = estimate_global_constants(sys_obj)
    rng = np.random.default_rng(99)
    z = np.concatenate([rng.uniform(0, 1, (500, 3)),
                        sys_obj.domain.y_center + rng.uniform(-0.45, 0.45, (500, 3))],
                       axis=1)
    assert np.max(np.abs(sys_obj.XH(z))) <= g.values["c_XH_0"]
    assert np.max(np.abs(sys_obj.DXH(z)).sum(axis=-1)) <= g.values["c_XH_1"]
    assert np.max(np.abs(sys_obj.DH(z)).sum(axis=-1)) <= g.values["c_H_1"]


GLOBALS_GOLDEN = Path(__file__).with_name("globals_golden.json")


def golden_global_systems() -> dict:
    """Name -> (system, conserved) for every fixture entry of globals_golden.json."""
    def rotors(name, eps, y_center):
        return builtin_system(name, epsilon=eps, y_center=y_center, y_radius=0.5,
                              imag_width=0.2)

    sys_a = rotors("lagrangian_rotors", 0.02, [1.0, GOLDEN])
    sys_b = rotors("symmetric_rotors", 0.01, [1.0, GOLDEN, 0.0])
    return {
        "lagrangian_rotors-0.02": (sys_a, None),
        "symmetric_rotors-0.01": (sys_b, None),
        "symmetric_rotors-0.01-H": (sys_b, sys_b.conserved("H")),
        "symmetric_rotors-0.01-p0": (sys_b, sys_b.conserved(("p", 0))),
        "scaled_structure": (dataclasses.replace(sys_a, geometry=scaled_structure(2)), None),
    }


def golden_globals() -> dict:
    """Every global constant (as float.hex) and its provenance, per fixture system."""
    out = {}
    for name, (sys_obj, conserved) in golden_global_systems().items():
        g = estimate_global_constants(sys_obj, conserved=conserved)
        out[name] = {"values": {k: float(v).hex() for k, v in g.values.items()},
                     "provenance": g.provenance}
    return out


@pytest.mark.parametrize("length", [kamtorus.certificate.LATTICE_SLICE, 1000, 7000])
def test_global_constants_bit_identical_to_golden(monkeypatch, length):
    """Every constant to the last bit, and its provenance, against a committed
    fixture: at the module's slice length, at one that does not divide the
    6144 sample points, and at one longer than all of them."""
    monkeypatch.setattr(kamtorus.certificate, "LATTICE_SLICE", length)
    assert golden_globals() == json.loads(GLOBALS_GOLDEN.read_text())


def test_global_constants_peak_memory_bounded():
    """The lattice is evaluated a slice at a time: at n = 3, D2XH on all 6144
    points at once would take 21 MB, and its |.| copy 11 MB more."""
    sys_b, conserved = golden_global_systems()["symmetric_rotors-0.01-H"]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        estimate_global_constants(sys_b, conserved=conserved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 8e6


# -------------------------------------------------------------------- ledger


def base_ledger_inputs(case="III", mode="ordinary", n=2, d=2, eps_zero=True):
    omega = np.array([1.0, GOLDEN])
    dio = DiophantineParams(omega, 1.0, 1.0, 100)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, rho0=0.1)
    sys_obj = builtin_system("lagrangian_rotors", epsilon=0.0 if eps_zero else 1e-3,
                             y_center=omega)
    globs = estimate_global_constants(sys_obj)
    hyp = {
        "sigma_K": 1.1, "norm_DK": 1.0,
        "sigma_KT": 1.1, "norm_DKT": 1.0,
        "sigma_B": 1.1, "norm_B": 1.0,
        "sigma_T": 1.1, "norm_avgT_inv": 1.0,
        "dist_domain": 0.05,
    }
    kw = {}
    if mode == "iso":
        hyp.update({"sigma_Tc": 2.2, "norm_avgTc_inv": 2.0})
        kw = {"omega_star_norm": GOLDEN, "sigma_omega": 2.0, "dist_ray": 0.3}
    return globs, hyp, dio, sched, kw


LEDGER_GOLDEN = Path(__file__).with_name("ledger_golden.json")


def golden_ledgers() -> dict:
    """Every row of the ordinary and iso ledgers, Case II and III, as float.hex."""
    out = {}
    for mode in ("ordinary", "iso"):
        globs, hyp, dio, sched, kw = base_ledger_inputs(mode=mode, eps_zero=False)
        for case in ("II", "III"):
            led = build_ledger(mode, globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2, d=2,
                               case_tag=case, **kw)
            out[f"{mode}-{case}"] = [[row.name, row.value.hex()] for row in led.rows.values()]
    return out


def test_ledger_values_bit_identical_to_golden():
    """Row names, order and values to the last bit, against a committed fixture."""
    assert golden_ledgers() == json.loads(LEDGER_GOLDEN.read_text())


@pytest.mark.parametrize("expr", ["__import__('os')", "C_L.real", "min(C_L, C_N)",
                                  "max(C_L, key=C_N)", "C_L < C_N", "C_L == C_N == C_A",
                                  "not C_L", "[C_L]"])
def test_ledger_expression_refuses_foreign_constructs(expr):
    from kamtorus.certificate import _parse

    with pytest.raises(ValueError, match="not allowed"):
        _parse(expr)


def test_free_rotor_ledger_hand_rows():
    """Canonical Case III, d = n, zero coupling: closed-form first rows."""
    globs, hyp, dio, sched, _ = base_ledger_inputs()
    led = build_ledger("ordinary", globs, hyp, dio, rho=0.1, delta=0.1 / 12,
                       schedule=sched, n=2, d=2, case_tag="III")
    sK, sB = hyp["sigma_K"], hyp["sigma_B"]
    assert led["C_L"] == pytest.approx(sK)        # c_Xp_0 = 0
    assert led["C_A"] == 0.0                       # Case III
    assert led["C_N"] == pytest.approx(led["C_N0"] * sB)
    assert led["C_sym"] == pytest.approx(max(1.0, sB**2) * led["C_tOmegaL"])
    assert led["C_GL"] == pytest.approx(led["C_LT"] * led["C_L"])  # c_G_0 = 1
    # E1 assembles the two branches verbatim
    tau, gamma, rho = dio.tau, dio.gamma, 0.1
    a1, a3 = sched.a1, sched.a3
    expected = max((a1 * a3) ** (4 * tau) * led["C_E"],
                   a3 ** (2 * tau + 1) * gamma**2 * rho ** (2 * tau - 1) * led["C_Delta"])
    assert led["E1"] == pytest.approx(expected, rel=1e-14)
    assert led["E2"] == pytest.approx(a3 ** (2 * tau) * led["C_DeltaK"]
                                      / (1 - a1 ** (-2 * tau)), rel=1e-14)
    assert led["E3"] == pytest.approx(globs.values["c_c_1"] * led["E2"], rel=1e-14)


def test_case_ii_vs_case_iii_star_rows():
    globs, hyp, dio, sched, _ = base_ledger_inputs()
    common = dict(mode="ordinary", globs=globs, hyp=hyp, dio=dio, rho=0.1,
                  delta=0.1 / 12, schedule=sched, n=2, d=2)
    led3 = build_ledger(case_tag="III", **common)
    led2 = build_ledger(case_tag="II", **common)
    starred = ("C_A", "C_LieA", "C_DeltaA", "C_DeltaLieA")
    for name in starred:
        assert led3[name] == 0.0
        assert led2[name] > 0.0
    # rows upstream of any A-term agree between the cases
    for name in ("C_L", "C_LT", "C_OmegaL", "C_GL", "C_tOmegaL", "C_N0", "C_N0T",
                 "C_LieK", "C_LieL", "C_LieLT", "C_LieGL", "C_LieB", "C_LoperL"):
        assert led2[name] == led3[name]


def test_ledger_nan_guard():
    globs, hyp, dio, sched, _ = base_ledger_inputs()
    bad = dict(hyp)
    bad["sigma_B"] = np.inf
    with pytest.raises(LedgerError):
        build_ledger("ordinary", globs, bad, dio, rho=0.1, delta=0.1 / 12,
                     schedule=sched, n=2, d=2)


def test_ledger_monotone_in_global_inputs():
    """E1 must not decrease when any global constant grows by 1%."""
    globs, hyp, dio, sched, _ = base_ledger_inputs(eps_zero=False)
    base = build_ledger("ordinary", globs, hyp, dio, rho=0.1, delta=0.1 / 12,
                        schedule=sched, n=2, d=2)["E1"]
    for key in ("c_XH_0", "c_XH_1", "c_XH_2", "c_XHT_1", "c_H_1", "c_Omega_0",
                "c_G_0", "c_J_0", "c_tOmega_0", "c_c_1"):
        bumped_vals = dict(globs.values)
        bumped_vals[key] = bumped_vals[key] * 1.01 if bumped_vals[key] else 0.01
        bumped = type(globs)(bumped_vals, globs.provenance)
        led = build_ledger("ordinary", bumped, hyp, dio, rho=0.1, delta=0.1 / 12,
                           schedule=sched, n=2, d=2)
        assert led["E1"] >= base * (1 - 1e-12), key


def test_degenerate_reduction_to_lagrangian_ledger():
    """Zeroing all integral constants reproduces the d = n ledger row by row."""
    omega = np.array([1.0, GOLDEN])
    sys_b = builtin_system("symmetric_rotors", epsilon=1e-3,
                           y_center=[omega[0], omega[1], 0.0])
    globs_b = estimate_global_constants(sys_b)
    zeroed = with_zero_integrals(globs_b)
    hyp = {
        "sigma_K": 1.1, "norm_DK": 1.0, "sigma_KT": 1.1, "norm_DKT": 1.0,
        "sigma_B": 1.2, "norm_B": 1.0, "sigma_T": 1.2, "norm_avgT_inv": 1.0,
        "dist_domain": 0.05,
    }
    dio = DiophantineParams(omega, 1.0, 1.0, 100)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, rho0=0.1)
    led_zero = build_ledger("ordinary", zeroed, hyp, dio, 0.1, 0.1 / 12, sched,
                            n=3, d=2)
    led_again = build_ledger("ordinary", zeroed, hyp, dio, 0.1, 0.1 / 12, sched,
                             n=3, d=2)
    assert ledger_diff(led_zero, led_again) == {}
    for key in ("c_p_1", "c_pT_1", "c_Xp_0", "c_XpT_0"):
        assert led_zero[key] == 0.0
    # with zero integral constants, C_L collapses to sigma_K (the d = n formula)
    assert led_zero["C_L"] == hyp["sigma_K"]
    assert led_zero["C_LoperL"] == 2.0  # d with no c_Xp_1 delta term


def test_ledger_csv_format():
    globs, hyp, dio, sched, _ = base_ledger_inputs()
    led = build_ledger("ordinary", globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2, d=2)
    csv = led.to_csv()
    head, first = csv.splitlines()[:2]
    assert head == "name,value,formula_label,group,provenance"
    assert first.count(",") >= 4
    assert "E1" in csv and "C_DeltaK" in csv


def test_iso_ledger_rows():
    globs, hyp, dio, sched, kw = base_ledger_inputs(mode="iso")
    led = build_ledger("iso", globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2, d=2, **kw)
    assert led["C_omega"] == pytest.approx(2.0 * GOLDEN)
    assert led["C_xiomega"] == led["C_xiN0"]
    assert led["C_Deltaomega"] == pytest.approx(led["C_omega"] * led["C_xiN0"])
    assert led["C_Ec"] == max(led["C_E"], led["C_E_omega"])
    assert led["E3"] == pytest.approx(
        sched.a3**dio.tau * led["C_Deltaomega"] / (1 - sched.a1 ** (-3 * dio.tau)),
        rel=1e-14,
    )
    assert "C_Delta3" in led.rows
    # the bordered-twist margin inputs are ledgered so kam_check can verify them
    assert led["sigma_Tc"] == hyp["sigma_Tc"]
    assert led["norm_avgTc_inv"] == hyp["norm_avgTc_inv"]
    assert led["dist_ray"] == kw["dist_ray"]


def iso_flat_torus(golden_omega, level_offset):
    """The flat torus of the uncoupled symmetric rotors, as an iso iterate whose
    target level is ``level_offset`` above its own; with its globals."""
    from kamtorus.isoenergetic import FrequencyRay, IsoTarget, total_error

    omega_star = golden_omega / np.sqrt(2.0)
    ray = FrequencyRay.at_midpoint(omega_star, 2.0)
    dio = DiophantineParams(ray.omega, estimate_gamma(omega_star, 1.0, 500), 1.0, 500)
    cand = seed_candidate("symmetric_rotors", 0.0, ray.omega, bands=(8, 8), rho=0.05,
                          dio=dio)
    conserved = cand.system.conserved("H")
    level = total_error(cand, conserved, 0.0).E_omega
    it = IsoTarget(conserved, level + level_offset).evaluate(cand, ray)
    return it, estimate_global_constants(cand.system, conserved=conserved)


def test_iso_kam_check_reports_bordered_margin(golden_omega):
    it, globs = iso_flat_torus(golden_omega, 0.0)
    fr = build_frames(it.cand, it.kitchen)
    sched = NewtonSchedule(a1=2, a2=2, rho0=it.cand.rho)
    report, ledger = certify(it, fr, sched, globs, error_norm=0.0)
    assert report.mode == "iso" and ledger.mode == "iso"
    assert report.passed and report.ratio == 0.0
    assert report.margins.get("sigma_Tc") is not None
    assert report.margins["sigma_Tc"] > 0
    assert ledger["dist_ray"] == it.ray.boundary_margin()


def test_iso_certify_default_error_is_the_combined_norm(golden_omega):
    """Without an override, an iso certificate bounds max(||E||, |E^omega|)."""
    it, globs = iso_flat_torus(golden_omega, 1e-3)
    assert abs(it.E_omega) > it.E.norm(it.cand.rho).value
    fr = build_frames(it.cand, it.kitchen)
    sched = NewtonSchedule(a1=2, a2=2, rho0=it.cand.rho)
    report, _ = certify(it, fr, sched, globs)
    assert report.error_norm == abs(it.E_omega)


# ----------------------------------------------------------------- kam_check


def test_kam_check_zero_error_passes(golden_omega):
    it = evaluate(seed_candidate("lagrangian_rotors", 0.0, golden_omega, bands=(8, 8),
                                 rho=0.1))
    fr = build_frames(it.cand, it.kitchen)
    sched = NewtonSchedule(a1=2, a2=2, rho0=it.cand.rho)
    report, ledger = certify(it, fr, sched, estimate_global_constants(it.cand.system),
                             error_norm=0.0)
    assert report.passed and report.ratio == 0.0
    assert report.closeness_K == 0.0
    assert report.header == REPORT_HEADER


def test_kam_check_garbage_candidate_fails(golden_omega):
    it = evaluate(seed_candidate("lagrangian_rotors", 0.0, golden_omega, bands=(8, 8),
                                 rho=0.1))
    fr = build_frames(it.cand, it.kitchen)
    sched = NewtonSchedule(a1=2, a2=2, rho0=it.cand.rho)
    report, ledger = certify(it, fr, sched, estimate_global_constants(it.cand.system),
                             error_norm=1.0)
    assert not report.passed
    assert report.ratio > 1.0
    assert report.dominant  # names the dominant constant branch
    assert report.closeness_K is None


def test_kam_check_requires_positive_margins(golden_omega):
    cand = seed_candidate("lagrangian_rotors", 0.0, golden_omega, bands=(8, 8),
                          rho=0.1)
    fr = build_frames(cand, evaluate(cand).kitchen)
    hyp = measure_hypothesis_data(cand, fr)
    hyp["sigma_K"] = hyp["norm_DK"]  # kill the margin
    globs = estimate_global_constants(cand.system)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, rho0=cand.rho)
    with pytest.raises(ArithmeticError):
        build_ledger("ordinary", globs, hyp, cand.dio, cand.rho, cand.rho / 12,
                     sched, n=2, d=2)


# -------------------------------------------------------- inverse control


def test_inverse_control_identity_case():
    rep = matrix_inverse_control(np.eye(3), np.eye(3), 2.0)
    assert rep.condition_ok and rep.invertible
    assert rep.bound == 0.0 and rep.actual_difference == 0.0
    assert rep.new_inverse_norm < 2.0


def test_inverse_control_hand_example():
    rep = matrix_inverse_control(np.eye(2), np.diag([1.1, 1.0]), 2.0)
    assert rep.precondition_ok and rep.condition_ok
    assert rep.condition_value == pytest.approx(0.8)
    assert rep.bound == pytest.approx(0.8)
    assert rep.actual_difference == pytest.approx(1.0 / 11.0, rel=1e-12)
    assert rep.actual_difference < rep.bound


def test_inverse_control_precondition_reported_not_thrown():
    rep = matrix_inverse_control(np.eye(2) * 0.1, np.eye(2) * 0.1, 2.0)
    assert not rep.precondition_ok and not rep.invertible
    singular = matrix_inverse_control(np.zeros((2, 2)), np.eye(2), 2.0)
    assert not singular.precondition_ok


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inverse_control_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    M = rng.standard_normal((n, n)) + n * np.eye(n)
    Minv_norm = float(np.abs(np.linalg.inv(M)).sum(axis=1).max())
    sigma = Minv_norm * float(rng.uniform(1.05, 3.0))
    step = (sigma - Minv_norm) / (2 * sigma**2) * float(rng.uniform(0.05, 0.99))
    pert = rng.standard_normal((n, n))
    pert *= step / max(np.abs(pert).sum(axis=1).max(), 1e-300)
    rep = matrix_inverse_control(M, M + pert, sigma)
    assert rep.precondition_ok and rep.condition_ok
    assert rep.invertible
    assert rep.actual_difference < rep.bound + 1e-15
    assert rep.new_inverse_norm < sigma
