"""Systems, structures, the involution/commutation bounds of a term table
against the sampled oracles, callback validation."""

import dataclasses

import numpy as np
import pytest

from kamtorus.certificate import estimate_global_constants
from kamtorus.hamiltonian import (
    _BUILTIN_TERMS,
    DomainBox,
    GeometricStructure,
    HamiltonianSystem,
    StructureError,
    TermTable,
    _omega0,
    _trig_potential_system,
    builtin_dims,
    builtin_system,
    canonical_structure,
    check_derivatives,
)

from conftest import scaled_structure
from oracles import contains_margin, poisson_bracket, verify_commutation, verify_involution

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def system_b(eps=0.01):
    return builtin_system("symmetric_rotors", epsilon=eps,
                          y_center=[1.0, GOLDEN, 0.0], y_radius=0.5, imag_width=0.2)


def system_a(eps=0.02):
    return builtin_system("lagrangian_rotors", epsilon=eps,
                          y_center=[1.0, GOLDEN], y_radius=0.5, imag_width=0.2)


# ------------------------------------------------------------------ brackets


def test_poisson_canonical_pair():
    sys_obj = system_a(0.0)
    z = np.array([[0.3, 0.7, 1.1, -0.2]])

    def Dg(w):  # g = z_1 (position)
        out = np.zeros(w.shape[:-1] + (4,))
        out[..., 0] = 1.0
        return out

    def Df(w):  # f = z_3 (conjugate momentum)
        out = np.zeros(w.shape[:-1] + (4,))
        out[..., 2] = 1.0
        return out

    val = poisson_bracket(Dg, Df, sys_obj.geometry.Omega, z)
    assert abs(val[0] - 1.0) < 1e-14


def test_poisson_antisymmetry_self():
    sys_obj = system_a(0.05)
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, size=(20, 4))
    val = poisson_bracket(sys_obj.DH, sys_obj.DH, sys_obj.geometry.Omega, z)
    assert np.max(np.abs(val)) < 1e-14


def test_poisson_H_p_vanishes_on_system_b():
    sys_obj = system_b(0.07)
    rng = np.random.default_rng(6)
    z = rng.uniform(-1.5, 1.5, size=(50, 6))
    val = poisson_bracket(sys_obj.DH, lambda w: sys_obj.Dp(w)[..., 0, :],
                          sys_obj.geometry.Omega, z)
    assert np.max(np.abs(val)) < 1e-12


# ----------------------------------------------------------------- involution


def test_involution_passes_on_system_b():
    rep = verify_involution(system_b(), sample_count=200)
    assert rep.passed and rep.max_bracket <= 1e-10


def test_involution_fails_on_broken_integral():
    """H = |y|^2/2 + cos(2 pi x1) with p = y1: {H, p} = 2 pi sin(2 pi x1) != 0."""
    base = system_a(0.0)
    tp = 2 * np.pi

    def H(z):
        return 0.5 * (z[..., 2] ** 2 + z[..., 3] ** 2) + np.cos(tp * z[..., 0])

    def DH(z):
        out = np.zeros(z.shape[:-1] + (4,), dtype=np.result_type(z, 0.0))
        out[..., 0] = -tp * np.sin(tp * z[..., 0])
        out[..., 2] = z[..., 2]
        out[..., 3] = z[..., 3]
        return out

    def Dp(z):
        out = np.zeros(z.shape[:-1] + (1, 4), dtype=np.result_type(z, 0.0))
        out[..., 0, 2] = 1.0  # p = y1
        return out

    broken = HamiltonianSystem(
        n_integrals=1, geometry=base.geometry,
        H=H, DH=DH, XH=base.XH, DXH=base.DXH, D2XH=base.D2XH,
        p=lambda z: z[..., 2:3], Dp=Dp,
        Xp=base.Xp, DXp=base.DXp, D2Xp=base.D2Xp, domain=base.domain,
    )
    rep = verify_involution(broken, sample_count=100)
    assert not rep.passed
    assert rep.max_bracket > 1.0  # 2 pi sin hits order one


def test_involution_vacuous_when_no_integrals():
    rep = verify_involution(system_a())
    assert rep.passed and rep.max_bracket == 0.0


# ---------------------------------------------------------------- commutation


def test_commutation_passes_on_system_b():
    rep = verify_commutation(system_b(), sample_count=200)
    assert rep.passed and rep.max_bracket <= 1e-10


def test_commutation_detects_injected_fault():
    base = system_b(0.05)

    def bad_DXp(z):
        out = base.DXp(z)
        out = out + 0.1  # fault: constant offset
        return out

    broken = HamiltonianSystem(
        n_integrals=1, geometry=base.geometry,
        H=base.H, DH=base.DH, XH=base.XH, DXH=base.DXH, D2XH=base.D2XH,
        p=base.p, Dp=base.Dp, Xp=base.Xp, DXp=bad_DXp, D2Xp=base.D2Xp,
        domain=base.domain,
    )
    rep = verify_commutation(broken, sample_count=50)
    assert not rep.passed


def test_commutation_linear_system_identically():
    rep = verify_commutation(system_b(0.0), sample_count=100)
    assert rep.max_bracket == 0.0


# ------------------------------------------------------ term-table bounds


def non_involutive_system():
    """H = |y|^2/2 + V with p = y2 + y3, whose terms k_j = (1,1,0) and (0,1,1)
    are not orthogonal to c = (0,1,1): {H, p} does not vanish."""
    table = TermTable(np.array([0.01, 0.008, 0.004]),
                      np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                      np.array([[0.0, 1.0, 1.0]]))
    return _trig_potential_system(table, system_b().domain)


@pytest.mark.parametrize("make", [system_a, system_b, non_involutive_system],
                         ids=["lagrangian", "symmetric", "non-involutive"])
def test_table_bounds_dominate_the_sampled_defects(make):
    """The bounds of a term table are 0 exactly when every k_j is orthogonal to
    every c_a, and never below the brackets and residuals sampled by the oracles."""
    sys_obj = make()
    bracket, residual = sys_obj.table.involution_bounds()
    inv, comm = verify_involution(sys_obj), verify_commutation(sys_obj)
    assert inv.max_bracket <= bracket and comm.max_bracket <= residual
    if make is non_involutive_system:
        # 2 pi (0.008 + 2 * 0.004) and (2 pi)^2 (0.008 * 1 + 0.004 * 1 * 2)
        assert (bracket, residual) == pytest.approx((2 * np.pi * 0.016,
                                                     (2 * np.pi) ** 2 * 0.016), rel=1e-15)
        assert not inv.passed and not comm.passed
        assert inv.max_bracket > 0.9 * bracket
    else:
        assert bracket == residual == 0.0 and inv.passed and comm.passed


# -------------------------------------------------------------------- builtin


def test_builtin_xp_constant_column():
    sys_obj = system_b()
    z = np.random.default_rng(0).uniform(-2, 2, size=(7, 6))
    xp = sys_obj.Xp(z)
    expected = np.zeros((7, 6, 1))
    expected[:, 1, 0] = 1.0
    expected[:, 2, 0] = 1.0
    assert np.max(np.abs(xp - expected)) == 0.0


# H of each registered system as the README states it, independent of its term table
CLOSED_FORMS = {
    "lagrangian_rotors": lambda x, y, eps: 0.5 * np.sum(y**2, axis=-1) + eps * (
        np.cos(2 * np.pi * x[:, 0]) + np.cos(2 * np.pi * (x[:, 0] - x[:, 1]))),
    "symmetric_rotors": lambda x, y, eps: 0.5 * np.sum(y**2, axis=-1) + eps * np.cos(
        2 * np.pi * x[:, 0]) * (1.0 + np.cos(2 * np.pi * (x[:, 1] - x[:, 2]))),
    "d3_rotors": lambda x, y, eps: 0.5 * np.sum(y**2, axis=-1) + eps * (
        np.cos(2 * np.pi * x[:, 0]) + np.cos(2 * np.pi * x[:, 1])
        + np.cos(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * (x[:, 2] - x[:, 3]))),
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_TERMS))
def test_registered_system_matches_closed_form(name):
    """The FD cross-check cannot see a wrong table coefficient: the derivatives
    stay consistent with a wrong H.  So H is also checked against its closed form."""
    eps = 0.03
    n = builtin_system(name).n
    y_center = np.zeros(n)
    y_center[:2] = [1.0, GOLDEN]
    sys_obj = builtin_system(name, epsilon=eps, y_center=y_center)
    assert builtin_dims(name) == (sys_obj.n, sys_obj.n_integrals)
    rng = np.random.default_rng(11)
    z = rng.uniform(-1, 1, (200, 2 * n)) + 1j * rng.uniform(-0.2, 0.2, (200, 2 * n))
    expected = CLOSED_FORMS[name](z[:, :n], z[:, n:], eps)
    assert np.max(np.abs(sys_obj.H(z) - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert check_derivatives(sys_obj)["passed"]
    assert verify_involution(sys_obj).passed and verify_commutation(sys_obj).passed
    assert sys_obj.table.involution_bounds() == (0.0, 0.0)
    d2xh = sys_obj.D2XH(z)
    assert np.array_equal(d2xh, np.swapaxes(d2xh, -1, -2))


def test_builtin_unknown_name():
    for lookup in (builtin_system, builtin_dims):
        with pytest.raises(ValueError, match="unknown system 'nonexistent_rotors'"):
            lookup("nonexistent_rotors")


def test_builtin_exact_invariance_at_zero_coupling():
    sys_obj = system_b(0.0)
    omega = np.array([1.0, GOLDEN])
    theta = np.random.default_rng(1).uniform(0, 1, size=(30, 2))
    K = np.concatenate(
        [theta, np.zeros((30, 1)), np.full((30, 1), omega[0]),
         np.full((30, 1), omega[1]), np.zeros((30, 1))], axis=1
    )
    # X_H(K) = DK omega with DK = [I; 0]
    lhs = sys_obj.XH(K)
    rhs = np.zeros_like(lhs)
    rhs[:, 0] = omega[0]
    rhs[:, 1] = omega[1]
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_derivative_cross_checks():
    for sys_obj in (system_a(0.03), system_b(0.02)):
        rep = check_derivatives(sys_obj)
        assert rep["passed"], rep


@pytest.mark.parametrize("n", [2, 3])
def test_case_tag_is_read_off_the_matrices(n):
    """Case III needs J^2 = -I and a J that preserves Omega and G; J = 2 Omega_0
    with G = 2I is only Case II, and replacing a field derives the case again."""
    canonical = canonical_structure(n)
    assert canonical.case_tag == "III"
    assert scaled_structure(n).case_tag == "II"
    omega0 = _omega0(n)
    replaced = dataclasses.replace(canonical, G=2.0 * np.eye(2 * n), J=2.0 * omega0)
    assert replaced.case_tag == "II" and not replaced.is_canonical
    assert np.array_equal(replaced.tOmega, 4.0 * omega0)


def test_structure_invariants_refuse_a_false_claim():
    """Matrices that break an identity of the structure build no structure: a
    non-antisymmetric Omega, an indefinite G and J^T Omega != G are refused by
    name, also through ``dataclasses.replace``, and the matrices are read-only."""
    omega0, eye = _omega0(2), np.eye(4)
    bent = omega0.copy()
    bent[0, 1] = 1.0
    cases = [((bent, eye, omega0), "antisymmetry"),
             ((-omega0, -eye, omega0), "metric positive definite"),
             ((omega0, eye, 2.0 * omega0), r"compatibility J\^T Omega = G")]
    for mats, name in cases:
        with pytest.raises(StructureError, match=name):
            GeometricStructure(*mats)
    with pytest.raises(StructureError, match="compatibility"):
        dataclasses.replace(canonical_structure(2), J=2.0 * omega0)
    with pytest.raises(ValueError, match="read-only"):
        canonical_structure(2).G[0, 0] = 2.0


def test_domain_box_margin():
    box = DomainBox(y_center=np.array([1.0, 1.6]), y_radius=0.5, imag_width=0.2)
    z = np.array([[0.3 + 0.05j, 0.9, 1.2, 1.5]])
    assert contains_margin(box, z) > 0
    z_out = np.array([[0.3 + 0.25j, 0.9, 1.2, 1.5]])
    assert contains_margin(box, z_out) < 0


def test_system_refuses_a_domain_of_another_size():
    """n is read off the structure: a domain centre with another number of
    momenta is refused, and so is a centre that is not a vector."""
    base = system_a()
    assert base.n == 2 and base.domain.y_center.shape == (2,)
    with pytest.raises(ValueError, match=r"n = 3 entries, got shape \(2,\)"):
        dataclasses.replace(base, geometry=canonical_structure(3))
    with pytest.raises(ValueError, match=r"n = 2 entries, got shape \(2, 1\)"):
        dataclasses.replace(base, domain=DomainBox(np.zeros((2, 1)), 0.5, 0.2))


def test_system_refuses_an_integral_count_its_table_does_not_have():
    """A generated system's first integrals are the rows of its term table: a
    count that differs is refused, and one that agrees is kept."""
    base = system_b()
    assert base.n_integrals == base.table.c.shape[0] == 1
    for count in (0, 2):
        with pytest.raises(ValueError, match=rf"n_integrals = {count} but the term table "
                                             r"has 1 integral rows"):
            dataclasses.replace(base, n_integrals=count)
    assert dataclasses.replace(base, n_integrals=1).d == 2
    assert dataclasses.replace(base, n_integrals=0, table=None).d == 3


# --------------------------------------------------- trajectory sanity (RK4)


def rk4_orbit(sys_obj, z0, t_end=1.0, steps=2000):
    h = t_end / steps
    z = np.array(z0, dtype=float)
    for _ in range(steps):
        k1 = sys_obj.XH(z)
        k2 = sys_obj.XH(z + 0.5 * h * k1)
        k3 = sys_obj.XH(z + 0.5 * h * k2)
        k4 = sys_obj.XH(z + h * k3)
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


@pytest.mark.parametrize("make", [system_a, system_b])
def test_energy_drift_small_along_rk4(make):
    sys_obj = make(0.02)
    z0 = np.concatenate([[0.15, 0.35, 1.0, GOLDEN], [0.1] * (2 * sys_obj.n - 4)])
    z0 = z0[: 2 * sys_obj.n]
    e0 = float(sys_obj.H(z0))
    z1 = rk4_orbit(sys_obj, z0)
    assert abs(float(sys_obj.H(z1)) - e0) < 1e-8


def test_conserved_selector():
    sys_obj = system_b(0.04)
    z = np.random.default_rng(8).uniform(-1, 1, size=(10, 6))
    c, dc = sys_obj.conserved("H", z)
    assert np.array_equal(c, sys_obj.H(z)) and np.array_equal(dc, sys_obj.DH(z))
    c, dc = sys_obj.conserved(("p", 0), z)
    assert np.max(np.abs(c - (z[..., 4] + z[..., 5]))) == 0.0
    assert np.max(np.abs(dc - sys_obj.Dp(z)[..., 0, :])) == 0.0
    with pytest.raises(ValueError):
        sys_obj.conserved(("p", 5), z)
    with pytest.raises(ValueError):
        system_a().conserved(("p", 0), z)


def test_canonical_structure_case_tag():
    geo = canonical_structure(3)
    assert geo.case_tag == "III" and geo.is_canonical
    assert np.max(np.abs(geo.J @ geo.J + np.eye(6))) == 0.0


# ------------------------------------------------ canonical flag and structure


def test_unflagged_structure_is_not_canonical():
    """The scaled structure is not the canonical one, and its structure rows are
    the exact row and column sums of its matrices."""
    geo = scaled_structure(2)
    assert not geo.is_canonical and geo.case_tag == "II"
    g = estimate_global_constants(dataclasses.replace(system_a(), geometry=geo))
    assert [g.values[key] for key in ("c_Omega_0", "c_G_0", "c_J_0", "c_JT_0",
                                      "c_tOmega_0")] == [1.0, 2.0, 2.0, 2.0, 4.0]
    for key in ("c_Omega_1", "c_tOmega_1", "c_tOmega_2", "c_G_1", "c_G_2", "c_J_1",
                "c_J_2", "c_JT_1"):
        assert g.values[key] == 0.0
    assert set(g.provenance.values()) == {"exact", "canonical-exact"}
    assert g.provenance["c_G_0"] == g.provenance["c_G_1"] == "exact"
