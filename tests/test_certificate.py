"""Global constants, the ledger chain, the existence check, inverse control."""

import dataclasses
import functools
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamtorus.certificate import (
    REPORT_HEADER,
    build_ledger,
    certify,
    estimate_global_constants,
    kam_check,
)
from kamtorus.cohomology import DiophantineParams
from kamtorus.frames import HypothesisError, build_frames, measure_hypothesis_data
from kamtorus.hamiltonian import builtin_system
from kamtorus.solver import NewtonSchedule, evaluate, iterate_newton

from conftest import GOLDEN, scaled_structure, seed_run, with_zero_integrals
from oracles import (LATTICE_SLICE, domain_points, lattice_rows, ledger_diff,
                     matrix_inverse_control)


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


def without_table(sys_obj):
    """The same callbacks with no term table, so that no closed form bounds them."""
    return dataclasses.replace(sys_obj, table=None)


def test_sampled_hessian_constant_below_hand_bound():
    """System B: the lattice maximum of the row sums of D2XH must stay below the
    analytic sup bound of the explicit trigonometric third-derivative tensor."""
    eps, w = 0.02, 0.2
    sys_obj = builtin_system("symmetric_rotors", epsilon=eps, y_center=[1.0, GOLDEN, 0.0],
                             imag_width=w)
    seen = lattice_rows(sys_obj)
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
    assert seen["c_XH_2"] <= hand


def test_sampled_constants_dominate_real_samples():
    """The margin-free lattice maxima dominate the callbacks at fresh real points,
    and the exact rows dominate both."""
    sys_obj = builtin_system("symmetric_rotors", epsilon=0.03, y_center=[1.0, GOLDEN, 0.0])
    seen = lattice_rows(sys_obj)
    exact = estimate_global_constants(sys_obj).values
    rng = np.random.default_rng(99)
    z = np.concatenate([rng.uniform(0, 1, (500, 3)),
                        sys_obj.domain.y_center + rng.uniform(-0.45, 0.45, (500, 3))],
                       axis=1)
    for g in (seen, exact):
        assert np.max(np.abs(sys_obj.XH(z))) <= g["c_XH_0"]
        assert np.max(np.abs(sys_obj.DXH(z)).sum(axis=-1)) <= g["c_XH_1"]
        assert np.max(np.abs(sys_obj.DH(z)).sum(axis=-1)) <= g["c_H_1"]


GLOBALS_GOLDEN = Path(__file__).with_name("globals_golden.json")


def golden_global_systems() -> dict:
    """Name -> (system, selector of c or None) for every fixture entry of
    globals_golden.json."""
    def rotors(name, eps, y_center):
        return builtin_system(name, epsilon=eps, y_center=y_center, y_radius=0.5,
                              imag_width=0.2)

    sys_a = rotors("lagrangian_rotors", 0.02, [1.0, GOLDEN])
    sys_b = rotors("symmetric_rotors", 0.01, [1.0, GOLDEN, 0.0])
    return {
        "lagrangian_rotors-0.02": (sys_a, None),
        "symmetric_rotors-0.01": (sys_b, None),
        "symmetric_rotors-0.01-H": (sys_b, "H"),
        "symmetric_rotors-0.01-p0": (sys_b, ("p", 0)),
        "scaled_structure": (dataclasses.replace(sys_a, geometry=scaled_structure(2)), None),
    }


def golden_globals() -> dict:
    """Every global constant (as float.hex) and its provenance, per fixture system."""
    out = {}
    for name, (sys_obj, selector) in golden_global_systems().items():
        g = estimate_global_constants(sys_obj, selector or "H")
        out[name] = {"values": {k: float(v).hex() for k, v in g.values.items()},
                     "provenance": g.provenance}
    return out


@functools.cache
def unsliced_lattice_rows(name: str) -> dict:
    """The lattice maxima of a fixture system, its 6144 points swept at once."""
    sys_obj, selector = golden_global_systems()[name]
    z = domain_points(sys_obj)
    return lattice_rows(sys_obj, selector or "H", z, len(z))


@pytest.mark.parametrize("length", [LATTICE_SLICE, 1000, 7000])
def test_global_constants_bit_identical_to_golden(length):
    """Every constant to the last bit, and its provenance, against a committed
    fixture.  The lattice maxima that check them are the same bits when the
    6144 sample points are swept at the oracle's slice length, at one that does
    not divide them, and at one longer than all of them, as in one sweep (on
    the fixture system with the most callbacks: n = 3, c = p_0)."""
    assert golden_globals() == json.loads(GLOBALS_GOLDEN.read_text())
    name = "symmetric_rotors-0.01-p0"
    sys_obj, selector = golden_global_systems()[name]
    assert lattice_rows(sys_obj, selector, domain_points(sys_obj), length) == \
        unsliced_lattice_rows(name)


def test_global_constants_peak_memory_bounded():
    """The lattice is evaluated a slice at a time: at n = 3, D2XH on all 6144
    points at once would take 21 MB, and its |.| copy 11 MB more."""
    sys_b = golden_global_systems()["symmetric_rotors-0.01"][0]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        seen = lattice_rows(sys_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(seen["c_XH_2"]) and np.isfinite(seen["c_c_2"])
    assert peak - entry < 8e6


def test_each_callback_is_swept_once():
    """Rows that reduce the sup of one callback share one lattice sweep: with c
    = H, c_H_1 and c_c_1 both reduce the sup of DH, which runs on the 6 slices
    of the 6144 points once."""
    sys_b = golden_global_systems()["symmetric_rotors-0.01"][0]
    calls = []

    def dh(z):
        calls.append(len(z))
        return sys_b.DH(z)

    seen = lattice_rows(dataclasses.replace(sys_b, DH=dh))
    assert calls == [LATTICE_SLICE] * 6
    assert seen["c_c_1"] == seen["c_H_1"]


def test_table_less_system_is_refused():
    """Without a term table no closed form bounds the callbacks: the first
    callback row is refused by name."""
    sys_b = golden_global_systems()["symmetric_rotors-0.01"][0]
    with pytest.raises(HypothesisError, match="global constant c_H_1 has no exact bound") \
            as info:
        estimate_global_constants(without_table(sys_b))
    assert info.value.hypothesis == "ledger"


def test_nan_at_one_lattice_point_names_the_row():
    """A lattice maximum that is not finite is refused by name: DH is NaN at one
    lattice point, and c_H_1 is the first row it reaches."""
    sys_b = golden_global_systems()["symmetric_rotors-0.01"][0]
    bad = domain_points(sys_b)[4321]

    def dh(z):
        out = sys_b.DH(z)
        out[np.all(z == bad, axis=1)] = np.nan
        return out

    with pytest.raises(ValueError, match="lattice row c_H_1 is not finite"):
        lattice_rows(dataclasses.replace(sys_b, DH=dh))


def test_non_finite_global_constant_names_the_row():
    """An exact row that is not finite is refused by name: one amplitude of the
    term table is NaN, and c_H_1 is the first row it reaches."""
    sys_b = golden_global_systems()["symmetric_rotors-0.01"][0]
    table = dataclasses.replace(sys_b.table, v=np.array([np.nan, 0.005, 0.005]))
    with pytest.raises(HypothesisError, match="global constant c_H_1 is not finite") as info:
        estimate_global_constants(dataclasses.replace(sys_b, table=table))
    assert info.value.hypothesis == "ledger"


STRUCTURE_ROWS = {"c_Omega_0", "c_Omega_1", "c_tOmega_0", "c_tOmega_1", "c_tOmega_2", "c_G_0",
                  "c_G_1", "c_G_2", "c_J_0", "c_J_1", "c_J_2", "c_JT_0", "c_JT_1"}
CALLBACK_ROWS = {"c_H_1", "c_XH_0", "c_XH_1", "c_XHT_1", "c_XH_2", "c_c_1", "c_c_2"}
INTEGRAL_ROWS = {"c_p_1", "c_pT_1", "c_Xp_0", "c_XpT_0", "c_Xp_1", "c_XpT_1", "c_Xp_2",
                 "c_XpT_2"}


def corner_points(sys_obj) -> np.ndarray:
    """Im x = +-w in each of the 2^n sign patterns, Re x on a 4-point grid per
    angle, and every momentum at its largest modulus |y_center| + y_radius."""
    box, n = sys_obj.domain, sys_obj.n
    re = np.stack(np.meshgrid(*[np.arange(4) / 4] * n, indexing="ij"), -1).reshape(-1, n)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    x = (re[:, None, :] + 1j * box.imag_width * signs[None]).reshape(-1, n)
    y = box.y_center + box.y_radius * np.where(box.y_center < 0, -1.0, 1.0)
    return np.concatenate([x, np.broadcast_to(y, (len(x), y.size))], axis=1)


@pytest.mark.parametrize("name, selector", [("lagrangian_rotors-0.02", None),
                                            ("symmetric_rotors-0.01", "H"),
                                            ("symmetric_rotors-0.01", ("p", 0)),
                                            ("scaled_structure", None)],
                         ids=["lagrangian", "symmetric-H", "symmetric-p0", "scaled"])
def test_exact_constants_dominate_lattice_and_corners(name, selector):
    """Each global row is at least the entry-wise sup of its callback over the
    sample lattice and all 2^n corners of the strip, aggregated as the row
    aggregates it, with no tolerance: some corners attain the bound, and the
    closed forms are rounded up over the round-off of both sides.  It is also
    within 5% of that sup, so the bound of each entry is joint over the terms
    of the table (a sum of per-term suprema reads 1.8x for symmetric_rotors),
    and the structure rows and the zero rows are the sup itself."""
    sys_obj = golden_global_systems()[name][0]
    exact = estimate_global_constants(sys_obj, selector or "H")
    rows = CALLBACK_ROWS | (INTEGRAL_ROWS if sys_obj.n_integrals else set())
    rows |= set() if sys_obj.geometry.is_canonical else STRUCTURE_ROWS
    assert {k for k, v in exact.provenance.items() if v == "exact"} == rows
    assert set(exact.provenance.values()) <= {"exact", "canonical-exact"}
    z = np.concatenate([domain_points(sys_obj), corner_points(sys_obj)])
    seen = lattice_rows(sys_obj, selector or "H", z)
    assert seen.keys() == exact.values.keys()
    for key, value in exact.values.items():
        assert seen[key] <= value <= 1.05 * seen[key], key
        if key not in CALLBACK_ROWS | INTEGRAL_ROWS:
            assert value == seen[key], key


@pytest.mark.parametrize("selector", ["p", ("p", 1), ("q", 0), None],
                         ids=["bare-p", "p-out-of-range", "unknown-name", "none"])
def test_unknown_selector_is_refused(selector):
    """The certificate bounds c = H and c = p_j only: any other selector, or a
    first integral the system does not have, is refused."""
    sys_obj = golden_global_systems()["symmetric_rotors-0.01"][0]
    with pytest.raises(ValueError, match="selector|no first integral"):
        estimate_global_constants(sys_obj, selector)


@pytest.mark.parametrize("table", [True, False], ids=["exact", "sampled"])
def test_mixed_corner_inside_the_global_constants(table):
    """At Im x = (w, -w) the term cos 2 pi (x1 - x2) reaches cosh(4 pi w).  A
    lattice whose boundary points carry one sign for both angles never gets
    there: it sampled c_XH_1 = 4.69 here, against 10.99 at this point.  The
    exact rows bound it, and so do the lattice maxima with a 5% margin (the
    point is off the lattice, so they miss c_H_1 by 1%)."""
    sys_obj = golden_global_systems()["lagrangian_rotors-0.02"][0]
    w = sys_obj.domain.imag_width
    corner = np.array([[0.2 + 1j * w, -1j * w, 1.5, GOLDEN + 0.5]])
    g = estimate_global_constants(sys_obj).values if table else \
        {key: 1.05 * value for key, value in lattice_rows(sys_obj).items()}
    assert np.abs(sys_obj.DH(corner)).sum() <= g["c_H_1"]
    assert np.abs(sys_obj.DXH(corner)).sum(axis=-1).max() <= g["c_XH_1"]
    assert np.abs(sys_obj.D2XH(corner)).sum(axis=(-2, -1)).max() <= g["c_XH_2"]


@pytest.mark.parametrize("name", ["lagrangian_rotors-0.02", "symmetric_rotors-0.01"])
def test_lattice_boundary_takes_every_sign_pattern(name):
    """The boundary sweep pins |Im x| at the width in all 2^n sign patterns."""
    sys_obj = golden_global_systems()[name][0]
    n, w = sys_obj.n, sys_obj.domain.imag_width
    im = domain_points(sys_obj)[:, :n].imag
    pinned = im[np.all(np.abs(im) == w, axis=1)]
    assert {tuple(row) for row in np.sign(pinned)} == set(itertools.product((1.0, -1.0),
                                                                            repeat=n))


# -------------------------------------------------------------------- ledger


def base_ledger_inputs(case="III", mode="ordinary", n=2, eps_zero=True):
    omega = np.array([1.0, GOLDEN])
    dio = DiophantineParams(omega, 1.0, 1.0, 100)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, max_iters=20, stop_tol=1e-12, rho0=0.1)
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
            led = build_ledger(mode, globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2,
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
                       schedule=sched, n=2, case_tag="III")
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
                  delta=0.1 / 12, schedule=sched, n=2)
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
    with pytest.raises(HypothesisError, match="sigma_B = inf") as info:
        build_ledger("ordinary", globs, bad, dio, rho=0.1, delta=0.1 / 12,
                     schedule=sched, n=2)
    assert info.value.hypothesis == "ledger"


def test_ledger_monotone_in_global_inputs():
    """E1 must not decrease when any global constant grows by 1%."""
    globs, hyp, dio, sched, _ = base_ledger_inputs(eps_zero=False)
    base = build_ledger("ordinary", globs, hyp, dio, rho=0.1, delta=0.1 / 12,
                        schedule=sched, n=2)["E1"]
    for key in ("c_XH_0", "c_XH_1", "c_XH_2", "c_XHT_1", "c_H_1", "c_Omega_0",
                "c_G_0", "c_J_0", "c_tOmega_0", "c_c_1"):
        bumped_vals = dict(globs.values)
        bumped_vals[key] = bumped_vals[key] * 1.01 if bumped_vals[key] else 0.01
        bumped = type(globs)(bumped_vals, globs.provenance)
        led = build_ledger("ordinary", bumped, hyp, dio, rho=0.1, delta=0.1 / 12,
                           schedule=sched, n=2)
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
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, max_iters=20, stop_tol=1e-12, rho0=0.1)
    led_zero = build_ledger("ordinary", zeroed, hyp, dio, 0.1, 0.1 / 12, sched,
                            n=3)
    led_again = build_ledger("ordinary", zeroed, hyp, dio, 0.1, 0.1 / 12, sched,
                             n=3)
    assert ledger_diff(led_zero, led_again) == {}
    for key in ("c_p_1", "c_pT_1", "c_Xp_0", "c_XpT_0"):
        assert led_zero[key] == 0.0
    # with zero integral constants, C_L collapses to sigma_K (the d = n formula)
    assert led_zero["C_L"] == hyp["sigma_K"]
    assert led_zero["C_LoperL"] == 2.0  # d with no c_Xp_1 delta term


def test_ledger_csv_format():
    globs, hyp, dio, sched, _ = base_ledger_inputs()
    led = build_ledger("ordinary", globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2)
    csv = led.to_csv()
    head, first = csv.splitlines()[:2]
    assert head == "name,value,formula_label,group,provenance"
    assert first.count(",") >= 4
    assert "E1" in csv and "C_DeltaK" in csv


def test_iso_ledger_rows():
    globs, hyp, dio, sched, kw = base_ledger_inputs(mode="iso")
    led = build_ledger("iso", globs, hyp, dio, 0.1, 0.1 / 12, sched, n=2, **kw)
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


def iso_flat_torus(level_offset):
    """The flat torus of the uncoupled symmetric rotors, as an iso seed whose
    target level is ``level_offset`` above its own; with its schedule and globals."""
    it, sched, target = seed_run(system="symmetric_rotors", mode="iso", epsilon=0.0,
                                 bands=[8, 8], rho0=0.05, scan_limit=500, c0_offset=level_offset)
    return it, sched, estimate_global_constants(it.cand.system, conserved=target.conserved)


def test_iso_kam_check_reports_bordered_margin():
    it, sched, globs = iso_flat_torus(0.0)
    fr = build_frames(it.cand, it.kitchen)
    _, ledger = certify(it, fr, sched, globs, 1.1)
    report = kam_check(it.cand, ledger, 0.0)
    assert report.mode == "iso" and ledger.mode == "iso"
    assert report.passed and report.ratio == 0.0
    assert report.margins.get("sigma_Tc") is not None
    assert report.margins["sigma_Tc"] > 0
    assert ledger["dist_ray"] == it.ray.boundary_margin()


def test_iso_certify_default_error_is_the_combined_norm():
    """An iso certificate bounds max(||E||, |E^omega|)."""
    it, sched, globs = iso_flat_torus(1e-3)
    assert abs(it.E_omega) > it.E.norm(it.cand.rho)
    fr = build_frames(it.cand, it.kitchen)
    report, _ = certify(it, fr, sched, globs, 1.1)
    assert report.error_norm == abs(it.E_omega)


# ------------------------------------------------------- covariance, case II


def test_case_ii_structure_solves_the_same_torus_and_certifies_from_exact_rows():
    """The method is covariant: the certify-b16 config at bands 8, solved under
    the canonical structure and under the constant scaled one (G = 2I,
    J = 2 Omega_0, tilde-Omega = 4 Omega_0, case II), takes the same steps to the
    same torus, since J DK B is the same product for both.  The first two
    errors are the same bits; the final tori differ by 2.2e-16 per coefficient
    (measured), bounded here by 4 eps.  The case II ledger evaluates from exact
    global rows, every row finite; its ratio reads 2.45 (FAIL) against 0.0180."""
    config = dict(system="lagrangian_rotors", epsilon=1e-3, bands=[8, 8], rho0=0.03, tau=1.0)
    runs = {}
    for geometry in (None, scaled_structure(2)):
        seed, sched, _ = seed_run(**config)
        if geometry is not None:
            seed = evaluate(dataclasses.replace(
                seed.cand, system=dataclasses.replace(seed.cand.system, geometry=geometry)))
        runs[geometry is None] = iterate_newton(seed, sched, None)
    canonical, scaled = runs[True], runs[False]
    assert canonical.converged and scaled.converged
    assert len(canonical.log) == len(scaled.log)
    assert [rec["err"] for rec in canonical.log[:2]] == [rec["err"] for rec in scaled.log[:2]]
    gap = np.abs(canonical.iterate.cand.k_per.coeffs - scaled.iterate.cand.k_per.coeffs)
    assert gap.max() <= 4 * np.finfo(float).eps
    it = scaled.iterate
    globs = estimate_global_constants(it.cand.system)
    assert set(globs.provenance.values()) <= {"exact", "canonical-exact"}
    report, ledger = certify(it, build_frames(it.cand, it.kitchen), sched, globs, 1.1)
    assert it.cand.system.geometry.case_tag == "II" and ledger["C_A"] > 0.0
    assert all(np.isfinite(row.value) for row in ledger.rows.values())
    assert np.isfinite(report.ratio)


# ----------------------------------------------------------------- kam_check


def test_kam_check_zero_error_passes():
    it, sched, _ = seed_run(epsilon=0.0, bands=[8, 8], rho0=0.1)
    fr = build_frames(it.cand, it.kitchen)
    _, ledger = certify(it, fr, sched, estimate_global_constants(it.cand.system), 1.1)
    report = kam_check(it.cand, ledger, 0.0)
    assert report.passed and report.ratio == 0.0
    assert report.closeness_K == 0.0
    assert report.header == REPORT_HEADER


def test_kam_check_garbage_candidate_fails():
    it, sched, _ = seed_run(epsilon=0.0, bands=[8, 8], rho0=0.1)
    fr = build_frames(it.cand, it.kitchen)
    _, ledger = certify(it, fr, sched, estimate_global_constants(it.cand.system), 1.1)
    report = kam_check(it.cand, ledger, 1.0)
    assert not report.passed
    assert report.ratio > 1.0
    assert report.dominant  # names the dominant constant branch
    assert report.closeness_K is None


def test_kam_check_requires_positive_margins():
    it = seed_run(epsilon=0.0, bands=[8, 8], rho0=0.1)[0]
    cand = it.cand
    fr = build_frames(cand, it.kitchen)
    hyp = measure_hypothesis_data(cand, fr, 1.1)
    hyp["sigma_K"] = hyp["norm_DK"]  # kill the margin
    globs = estimate_global_constants(cand.system)
    sched = NewtonSchedule(a1=2, a2=2, c_n=2.0, max_iters=20, stop_tol=1e-12, rho0=cand.rho)
    with pytest.raises(HypothesisError, match="sigma_K") as info:
        build_ledger("ordinary", globs, hyp, cand.dio, cand.rho, cand.rho / 12,
                     sched, n=2)
    assert info.value.hypothesis == "sigma margins"


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
