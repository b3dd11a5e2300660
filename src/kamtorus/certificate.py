"""Explicit-constant certification of approximate invariant tori.

This module evaluates the complete chain of constants behind the existence
statement: from the global analytic bounds of the system callbacks (the
c_* family), through the frame/torsion/reducibility constants (C_* family),
the per-step correction constants, and finally the three headline constants
E1, E2, E3 entering the hypothesis ratio

    ratio = E1 * ||E||_rho / (gamma^4 * rho^{4 tau})      (ordinary mode),
    ratio = E1 * ||E_c||_rho / (gamma^4 * rho^{4 tau})    (iso mode).

ratio < 1 certifies a true invariant torus nearby, with closeness bounds
||K_inf - K|| < E2 ||E|| / (gamma^2 rho^{2 tau}) and the E3 drift bound.

The arithmetic is plain floating point.  Every global constant is an exact
bound: the row sums of the structure's constant matrices, the zero rows of a
system without first integrals, or the closed forms of a term table; a row
with none of these refuses the certificate.  Every report states that the
evaluation is not a rigorously rounded enclosure, that norms refer to the
truncated Fourier model, and that gamma is a scan-limited lower-bound
certificate.
"""

from __future__ import annotations

import ast
import io
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .cohomology import DiophantineParams, russmann_constant
from .frames import FrameBundle, HypothesisError, TorusCandidate, measure_hypothesis_data
from .hamiltonian import GeometricStructure, HamiltonianSystem, TermTable, _omega0
from .solver import Iterate, NewtonSchedule, resolve_smallness_scale

REPORT_HEADER = (
    "floating-point constant chain (no directed rounding); norms are Fourier "
    "majorants of the truncated model; gamma is a finite-scan lower bound; "
    "global constants are closed-form strip bounds (ledger provenance 'exact')"
)


# ---------------------------------------------------------------------------
# global norm constants (analytic bounds of the system callbacks)
# ---------------------------------------------------------------------------

# the bounds of the first integrals p and their fields X_p: exact zeros when m = 0
_INTEGRAL_FIELDS = ("c_p_1", "c_pT_1", "c_Xp_0", "c_Xp_1", "c_Xp_2",
                    "c_XpT_0", "c_XpT_1", "c_XpT_2")

# every global row in ledger order (a system without first integrals lists its
# zero rows in _INTEGRAL_FIELDS order)
_GLOBAL_ROWS = ("c_Omega_0", "c_Omega_1", "c_tOmega_0", "c_tOmega_1", "c_tOmega_2",
                "c_G_0", "c_G_1", "c_G_2", "c_J_0", "c_J_1", "c_J_2", "c_JT_0", "c_JT_1",
                "c_H_1", "c_XH_0", "c_XH_1", "c_XHT_1", "c_XH_2",
                "c_p_1", "c_pT_1", "c_Xp_0", "c_XpT_0", "c_Xp_1", "c_XpT_1", "c_Xp_2",
                "c_XpT_2", "c_c_1", "c_c_2")


@dataclass
class GlobalNormConstants:
    """Exact bounds on the analytic norms of the system callbacks."""

    values: dict
    provenance: dict


def _sign_patterns(a: int) -> np.ndarray:
    """The 2^a sign patterns of R^a: row i holds the signs (-1)^(bit b of i), b < a."""
    return 1.0 - 2.0 * ((np.arange(2**a)[:, None] >> np.arange(a)) & 1)


def _structure_rows(geometry: GeometricStructure) -> dict:
    """The structure rows: the row sums of |Omega|, |tilde-Omega|, |G| and |J|,
    the column sums of |J| (J^T), and 0 for every derivative of the constant
    matrices."""
    om, g, j, tom = (np.abs(mat) for mat in (geometry.Omega, geometry.G, geometry.J,
                                              geometry.tOmega))
    derivatives = ("c_Omega_1", "c_tOmega_1", "c_tOmega_2", "c_G_1", "c_G_2", "c_J_1", "c_J_2",
                   "c_JT_1")
    rows = {"c_Omega_0": om.sum(axis=1).max(), "c_tOmega_0": tom.sum(axis=1).max(),
            "c_G_0": g.sum(axis=1).max(), "c_J_0": j.sum(axis=1).max(),
            "c_JT_0": j.sum(axis=0).max(), **dict.fromkeys(derivatives, 0.0)}
    return {key: float(value) for key, value in rows.items()}


# the closed forms below are rounded to nearest; this relative 64 eps lifts them
# over the round-off of their own few sums and of the callbacks' (not a margin)
_ROUND_UP = 1.0 + 64 * np.finfo(np.float64).eps


def _table_bounds(sys: HamiltonianSystem, conserved) -> dict:
    """The callback rows of a term-table system whose Omega is Omega_0 (the
    table's X_H is built against it), in closed form, with the c rows of the
    selector ``conserved``; {} for any other system.

    At Im x = eta, |cos| and |sin| of 2 pi k_j . x are at most
    cosh(2 pi k_j . eta), so entry (a_1 .. a_r) of d^r V is at most
    sum_j |v_j| (2 pi)^r prod_i |k_j,a_i| cosh(2 pi k_j . eta).  That is convex
    in eta, so its max over the strip |eta_a| <= w is at one of the 2^n corners
    eta = w s; the entry-wise max over s is aggregated into each row as the row
    aggregates the entries of its callback.  A momentum entry is at most
    |y_center| + y_radius.  c = H has the rows of DH and of the Hessian of H,
    c = p_j those of the constant row c_j.
    """
    tab, box, n = sys.table, sys.domain, sys.n
    j = sys.integral_index(conserved)
    if tab is None or not np.array_equal(sys.geometry.Omega, _omega0(n)):
        return {}
    tp = 2.0 * np.pi
    ak = np.abs(tab.k)
    amp = np.abs(tab.v) * np.cosh(tp * box.imag_width * _sign_patterns(n) @ tab.k.T)
    dv1 = tp * (amp @ ak).max(axis=0)  # entry bounds of dV
    dv2 = tp**2 * np.einsum("sj,ja,jb->sab", amp, ak, ak).max(axis=0)  # ... of d^2 V
    dv3 = tp**3 * np.einsum("sj,ja,jb,jc->sabc", amp, ak, ak, ak).max(axis=0)
    y = np.abs(box.y_center) + box.y_radius
    # DXH = [[0, I], [-d^2 V, 0]]; the Hessian of H is [[d^2 V, 0], [0, I]]
    rows = {"c_H_1": dv1.sum() + y.sum(), "c_XH_0": max(dv1.max(), y.max()),
            "c_XH_1": max(1.0, dv2.sum(axis=1).max()), "c_XHT_1": n + dv2.sum(),
            "c_XH_2": dv3.sum(axis=(1, 2)).max()}
    c = np.abs(tab.c)
    if c.size:  # X_p = (c_a, 0) is constant
        rows.update(c_p_1=c.sum(axis=1).max(), c_pT_1=c.sum(), c_Xp_0=c.sum(axis=0).max(),
                    c_XpT_0=c.sum(axis=1).max(), c_Xp_1=0.0, c_XpT_1=0.0, c_Xp_2=0.0,
                    c_XpT_2=0.0)
    if j is None:
        rows.update(c_c_1=rows["c_H_1"], c_c_2=n + dv2.sum())
    else:
        rows.update(c_c_1=c[j].sum(), c_c_2=0.0)
    return {key: float(value) * _ROUND_UP for key, value in rows.items()}


def table_width_limit(table: TermTable) -> float:
    """The widest strip |Im x| <= w on which the closed forms of
    :func:`_table_bounds` stay finite.

    The largest of them, c_XH_2, is at most
        (2 pi)^3 sum_j |v_j| |k_j|_1^3 cosh(2 pi w |k_j|_1) <= (2 pi)^3 T v K^3 e^(2 pi w K)
    with T terms, v = max(1, max_j |v_j|) and K = max_j |k_j|_1 >= 1; the other
    rows carry lower powers of 2 pi |k_j|_1 >= 2 pi.  The limit is the w at
    which this bound is half the largest double, which leaves room for the
    momentum and dimension terms that some rows add and for the round-up.
    Amplitudes below one count as one, so that cosh itself stays finite at
    epsilon = 0.  Amplitudes so large that the bound overflows at w = 0 give
    -inf: no strip fits."""
    k1 = np.abs(table.k).sum(axis=1).max()
    with np.errstate(over="ignore", divide="ignore"):
        scale = 2.0 * (2.0 * np.pi) ** 3 * len(table.v) * max(1.0, np.abs(table.v).max()) * k1**3
        return float(np.log(np.finfo(np.float64).max / scale) / (2.0 * np.pi * k1))


def momentum_radius_limit(y_center) -> float:
    """The largest y_radius at which the momentum terms of :func:`_table_bounds`
    stay finite around the domain centre ``y_center`` (n entries).

    Those terms are |y_center_a| + y_radius: c_XH_0 takes their maximum, and
    c_H_1 (so also c_c_1 for c = H) adds their sum over the n momenta to the
    sum of the entry bounds of dV, which is at most
        2 pi T v K e^(2 pi w K) = (2 pi)^3 T v K^3 e^(2 pi w K) / (2 pi K)^2 < F / 78
    (F the largest double, T, v and K as in :func:`table_width_limit`, whose
    width limit makes the numerator at most F / 2, and K >= 1).  Keeping
    n (max_a |y_center_a| + y_radius) <= F / 4 holds c_H_1 below F / 4 + F / 78
    with room for the rounding of the sum and the round-up.  A centre beyond
    F / (4 n) leaves a negative limit: no radius fits."""
    y = np.abs(np.asarray(y_center, dtype=np.float64))
    return float(np.finfo(np.float64).max / (4 * y.size) - y.max())


def estimate_global_constants(sys: HamiltonianSystem, conserved="H") -> GlobalNormConstants:
    """Exact bounds of the callback norms over the complexified domain, for the
    target conserved quantity of the selector ``conserved`` ("H" or ("p", j)).

    Each row of _GLOBAL_ROWS comes from one exact source: the structure
    matrices (:func:`_structure_rows`; provenance "canonical-exact" for the
    canonical structure), exact zeros for the p / X_p rows when there
    are no first integrals, or the closed forms of a term-table system
    (:func:`_table_bounds`).  A row with no source, or whose bound is not
    finite, raises a ``ledger`` HypothesisError naming it.
    """
    geo = sys.geometry
    sources = ((_structure_rows(geo), "canonical-exact" if geo.is_canonical else "exact"),
               (dict.fromkeys(_INTEGRAL_FIELDS, 0.0) if sys.n_integrals == 0 else {},
                "canonical-exact"),
               (_table_bounds(sys, conserved), "exact"))
    exact = {name: (value, prov) for rows, prov in sources for name, value in rows.items()}
    names = list(_GLOBAL_ROWS)
    if sys.n_integrals == 0:
        names[names.index("c_p_1"):names.index("c_c_1")] = _INTEGRAL_FIELDS
    values: dict = {}
    provenance: dict = {}
    for name in names:
        if name not in exact:
            raise HypothesisError("ledger", f"global constant {name} has no exact bound: it "
                                  "needs a term table on Omega_0")
        values[name], provenance[name] = exact[name]
        if not np.isfinite(values[name]):
            raise HypothesisError("ledger", f"global constant {name} is not finite")
    return GlobalNormConstants(values, provenance)


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------


@dataclass
class LedgerRow:
    name: str
    value: float
    formula: str
    group: str
    provenance: str


@dataclass
class ConstantLedger:
    mode: str
    rows: dict = field(default_factory=dict)
    # sigma bound -> sigma minus its measured norm; build_ledger checks each > 0
    margins: dict = field(default_factory=dict)

    def set(self, name: str, value: float, formula: str, group: str,
            provenance: str = "derived"):
        value = float(value)
        if not np.isfinite(value):
            raise HypothesisError("ledger", f"ledger row {name} = {value} ({formula})")
        self.rows[name] = LedgerRow(name, value, formula, group, provenance)
        return value

    def __getitem__(self, name: str) -> float:
        return self.rows[name].value

    def __contains__(self, name: str) -> bool:
        return name in self.rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,value,formula_label,group,provenance\n")
        for row in self.rows.values():
            formula = row.formula.replace('"', "'")
            buf.write(f'{row.name},{row.value!r},"{formula}",{row.group},{row.provenance}\n')
        return buf.getvalue()


# The chain of constants, one row per constant in dependency order, grouped.
# Each row is (name, expression) or (name, expression, variant): the
# expression is written in the names of the rows above it (inputs, measured
# data and global bounds included), it gives the row's value through
# _evaluate, and it is the row's formula in ledger.csv.  A row with a
# variant applies only in that mode ("ordinary", "iso") or structure case
# ("II", "III").  Every factor gamma delta^tau is written (gamma * delta**tau):
# the grouping fixes the rounding.
_LEDGER_TABLE = {
    "frame": (
        ("C_LieOmegaK", "2 * n * c_Omega_0 * sigma_K + sigma_KT * c_Omega_1 * sigma_K * delta"
                        " + d * sigma_KT * c_Omega_0"),
        ("C_OmegaK", "c_R * C_LieOmegaK"),
        ("C_L", "sigma_K + c_Xp_0"),
        ("C_LT", "max(sigma_KT, c_XpT_0)"),
        ("C_OmegaL", "c_R * max(C_LieOmegaK + c_pT_1, d * c_p_1)"),
        ("C_GL", "C_LT * c_G_0 * C_L"),
        ("C_tOmegaL", "C_LT * c_tOmega_0 * C_L"),
        ("C_N0", "c_J_0 * C_L"),
        ("C_N0T", "C_LT * c_JT_0"),
        ("C_A", "0.5 * sigma_B**2 * C_tOmegaL", "II"),
        ("C_A", "0.0", "III"),
        ("C_N", "C_L * C_A + C_N0 * sigma_B"),
        ("C_NT", "C_A * C_LT + sigma_B * C_N0T"),
        ("C_sym", "(1 + C_A) * max(1.0, C_A + sigma_B**2 * (1.0 if C_A == 0.0 else 0.0))"
                  " * C_tOmegaL"),
        ("C_LieK", "delta * c_small + c_XH_0"),
        ("C_LieL", "d * c_small + c_XH_1 * sigma_K + c_Xp_1 * C_LieK"),
        ("C_LieLT", "max(2 * n * c_small + c_XHT_1 * sigma_K, c_XpT_1 * C_LieK)"),
        ("C_LieJ", "c_J_1 * C_LieK"),
        ("C_LieG", "c_G_1 * C_LieK"),
        ("C_LietOmega", "c_tOmega_1 * C_LieK"),
        ("C_LieN0", "C_LieJ * C_L + c_J_0 * C_LieL"),
        ("C_LieGL", "C_LieLT * c_G_0 * C_L + C_LT * C_LieG * C_L + C_LT * c_G_0 * C_LieL"),
        ("C_LietOmegaL", "C_LieLT * c_tOmega_0 * C_L + C_LT * C_LietOmega * C_L"
                         " + C_LT * c_tOmega_0 * C_LieL"),
        ("C_LieB", "sigma_B**2 * C_LieGL"),
        ("C_LieA", "C_LieB * C_tOmegaL * sigma_B + 0.5 * sigma_B**2 * C_LietOmegaL", "II"),
        ("C_LieA", "0.0", "III"),
        ("C_LieN", "C_LieL * C_A + C_L * C_LieA + C_LieN0 * sigma_B + C_N0 * C_LieB"),
        ("C_LoperL", "d + c_Xp_1 * delta"),
        ("C_LoperLT", "max(2.0 * n, c_XpT_1 * delta)"),
        ("C_LoperN", "C_LoperL * c_small * C_A + c_XH_1 * C_N0 * sigma_B + C_L * C_LieA"
                     " + C_LieN0 * sigma_B + C_N0 * C_LieB"),
        ("C_T", "C_NT * c_Omega_0 * C_LoperN"),
        ("C_LieOmegaL", "max(C_LieOmegaK + c_pT_1, d * c_p_1)"),
        ("C_red11", "C_NT * c_Omega_0 * C_LoperL"),
        ("C_red21", "C_LT * c_Omega_0 * C_LoperL"),
        ("C_red22", "(C_LT * c_Omega_1 * C_N * delta + C_LoperLT * c_Omega_0 * C_N"
                    " + C_LieOmegaL * C_A) * (gamma * delta**tau) + C_OmegaL * C_LieA"),
        ("C_red", "max(C_red11 * (gamma * delta**tau), C_red21 * (gamma * delta**tau) + C_red22)"),
    ),
    "step": (
        ("C_omega", "sigma_omega * omega_star_norm", "iso"),
        ("C_xiN0", "sigma_T * (C_NT * c_Omega_0 * (gamma * delta**tau)"
                   " + c_R * C_T * C_LT * c_Omega_0)", "ordinary"),
        ("C_xiN0", "sigma_Tc * max(C_NT * c_Omega_0 * (gamma * delta**tau)"
                   " + c_R * C_T * C_LT * c_Omega_0,"
                   " gamma * delta**tau + c_R * c_c_1 * C_N * C_LT * c_Omega_0)", "iso"),
        ("C_xiomega", "C_xiN0", "iso"),
        ("C_Deltaomega", "C_omega * C_xiN0", "iso"),
        ("C_xiN", "C_xiN0 + c_R * C_LT * c_Omega_0"),
        ("C_xiL", "c_R * (C_NT * c_Omega_0 * (gamma * delta**tau) + C_T * C_xiN)"),
        ("C_xi", "max(C_xiL, C_xiN * (gamma * delta**tau))"),
        ("C_DeltaK", "C_L * C_xiL + C_N * C_xiN * (gamma * delta**tau)"),
        ("C_LiexiN", "C_LT * c_Omega_0"),
        ("C_LiexiL", "C_NT * c_Omega_0 * (gamma * delta**tau) + C_T * C_xiN", "ordinary"),
        ("C_LiexiL", "C_NT * c_Omega_0 * (gamma * delta**tau) + C_T * C_xiN"
                     " + C_omega * C_xiomega", "iso"),
        ("C_Liexi", "max(C_LiexiL, C_LiexiN * (gamma * delta**tau))"),
        ("C_lin", "C_red * C_xi + c_Omega_0 * C_sym * C_Liexi * (gamma * delta**tau)",
         "ordinary"),
        ("C_lin", "C_red * C_xi + c_Omega_0 * C_sym * C_Liexi * (gamma * delta**tau)"
                  " + max(C_A, 1.0) * C_OmegaL * C_omega * C_xiomega", "iso"),
        ("C_lin_omega", "d * c_R * c_c_1 * C_xiL", "iso"),
        ("C_LieDeltaK", "C_LieL * C_xiL + (C_L * C_LiexiL + C_LieN * C_xiN) * (gamma * delta**tau)"
                        " + C_N * C_LiexiN * (gamma * delta**tau)**2"),
        ("C_E", "2 * (C_L + C_N) * C_lin * gamma * delta ** (tau - 1)"
                " + 0.5 * c_XH_2 * C_DeltaK**2", "ordinary"),
        ("C_E", "2 * (C_L + C_N) * C_lin * gamma * delta ** (tau - 1)"
                " + 0.5 * c_XH_2 * C_DeltaK**2"
                " + C_xiomega * C_LieDeltaK * (gamma * delta**tau)", "iso"),
        ("C_E_omega", "C_lin_omega * gamma * delta ** (tau - 1) + 0.5 * c_c_2 * C_DeltaK**2",
         "iso"),
        ("C_Ec", "max(C_E, C_E_omega)", "iso"),
        ("C_DeltaL", "(d + c_Xp_1 * delta) * C_DeltaK"),
        ("C_DeltaLT", "max(2.0 * n, c_XpT_1 * delta) * C_DeltaK"),
        ("C_DeltaG", "c_G_1 * C_DeltaK"),
        ("C_DeltaGL", "C_LT * c_G_0 * C_DeltaL + C_LT * C_DeltaG * C_L * delta"
                      " + C_DeltaLT * c_G_0 * C_L"),
        ("C_DeltaB", "2 * sigma_B**2 * C_DeltaGL"),
        ("C_DeltatOmega", "c_tOmega_1 * C_DeltaK"),
        ("C_DeltatOmegaL", "C_LT * c_tOmega_0 * C_DeltaL + C_LT * C_DeltatOmega * C_L * delta"
                           " + C_DeltaLT * c_tOmega_0 * C_L"),
        ("C_DeltaA", "sigma_B * C_tOmegaL * C_DeltaB + 0.5 * sigma_B**2 * C_DeltatOmegaL", "II"),
        ("C_DeltaA", "0.0", "III"),
        ("C_DeltaJ", "c_J_1 * C_DeltaK"),
        ("C_DeltaJT", "c_JT_1 * C_DeltaK"),
        ("C_DeltaN0", "c_J_0 * C_DeltaL + C_DeltaJ * C_L * delta"),
        ("C_DeltaN0T", "C_DeltaLT * c_JT_0 + C_LT * C_DeltaJT * delta"),
        ("C_DeltaN", "C_L * C_DeltaA + C_DeltaL * C_A + C_N0 * C_DeltaB + C_DeltaN0 * sigma_B"),
        ("C_DeltaNT", "C_A * C_DeltaLT + C_DeltaA * C_LT + C_DeltaB * C_N0T"
                      " + sigma_B * C_DeltaN0T"),
        ("C_DeltaLieK", "C_LieDeltaK", "ordinary"),
        ("C_DeltaLieK", "sigma_omega * C_xiomega * C_LieK * (gamma * delta**tau) + C_LieDeltaK",
         "iso"),
        ("C_DeltaLieL", "d * C_DeltaLieK + c_Xp_1 * C_DeltaLieK * delta"
                        " + c_Xp_2 * C_DeltaK * C_LieK * delta"),
        ("C_DeltaLieLT", "max(2 * n * C_DeltaLieK, c_XpT_1 * C_DeltaLieK * delta"
                         " + c_XpT_2 * C_DeltaK * C_LieK * delta)"),
        ("C_DeltaLieG", "c_G_1 * C_DeltaLieK + c_G_2 * C_DeltaK * C_LieK"),
        ("C_DeltaLieGL", "C_LieLT * c_G_0 * C_DeltaL + C_LieLT * c_G_1 * C_DeltaK * C_L * delta"
                         " + C_DeltaLieLT * c_G_0 * C_L + C_LT * c_G_1 * C_LieK * C_DeltaL"
                         " + C_LT * C_DeltaLieG * C_L * delta + C_DeltaLT * c_G_1 * C_LieK * C_L"
                         " + C_LT * c_G_0 * C_DeltaLieL + C_LT * c_G_1 * C_DeltaK * C_LieL * delta"
                         " + C_DeltaLT * c_G_0 * C_LieL"),
        ("C_DeltaLieB", "2 * sigma_B * C_LieGL * C_DeltaB + sigma_B**2 * C_DeltaLieGL"),
        ("C_DeltaLietOmega", "c_tOmega_1 * C_DeltaLieK + c_tOmega_2 * C_DeltaK * C_LieK"),
        ("C_DeltaLietOmegaL", "C_LieLT * c_tOmega_0 * C_DeltaL"
                              " + C_LieLT * c_tOmega_1 * C_DeltaK * C_L * delta"
                              " + C_DeltaLieLT * c_tOmega_0 * C_L"
                              " + C_LT * c_tOmega_1 * C_LieK * C_DeltaL"
                              " + C_LT * C_DeltaLietOmega * C_L * delta"
                              " + C_DeltaLT * c_tOmega_1 * C_LieK * C_L"
                              " + C_LT * c_tOmega_0 * C_DeltaLieL"
                              " + C_LT * c_tOmega_1 * C_DeltaK * C_LieL * delta"
                              " + C_DeltaLT * c_tOmega_0 * C_LieL"),
        ("C_DeltaLieA", "C_LieB * C_tOmegaL * C_DeltaB + C_LieB * C_DeltatOmegaL * sigma_B"
                        " + C_DeltaLieB * C_tOmegaL * sigma_B + sigma_B * C_LietOmegaL * C_DeltaB"
                        " + 0.5 * sigma_B**2 * C_DeltaLietOmegaL", "II"),
        ("C_DeltaLieA", "0.0", "III"),
        ("C_DeltaLieJ", "c_J_1 * C_DeltaLieL + c_J_2 * C_DeltaK * C_LieK"),
        ("C_DeltaLieN0", "C_LieJ * C_DeltaL + C_DeltaLieJ * C_L * delta + c_J_0 * C_DeltaLieL"
                         " + C_DeltaJ * C_LieL * delta"),
        ("C_DeltaLieN", "C_LieL * C_DeltaA + C_DeltaLieL * C_A + C_L * C_DeltaLieA"
                        " + C_DeltaL * C_LieA + C_LieN0 * C_DeltaB + C_DeltaLieN0 * sigma_B"
                        " + C_N0 * C_DeltaLieB + C_DeltaN0 * C_LieB"),
        ("C_DeltaLoperN", "c_XH_1 * C_DeltaN + c_XH_2 * C_DeltaK * C_N * delta + C_DeltaLieN"),
        ("C_DeltaT", "C_NT * c_Omega_0 * C_DeltaLoperN"
                     " + C_NT * c_Omega_1 * C_DeltaK * C_LoperN * delta"
                     " + C_DeltaNT * c_Omega_0 * C_LoperN"),
        ("C_DeltaTInv", "2 * sigma_T**2 * C_DeltaT", "ordinary"),
        ("C_DeltaTc", "max(C_DeltaT + C_Deltaomega * gamma * delta ** (tau + 1),"
                      " c_c_1 * C_DeltaN + c_c_2 * C_DeltaK * C_N * delta)", "iso"),
        ("C_DeltaTcInv", "2 * sigma_Tc**2 * C_DeltaTc", "iso"),
    ),
    "convergence": (
        ("C_Delta1", "max(d * C_DeltaK / (sigma_K - norm_DK),"
                     " 2 * n * C_DeltaK / (sigma_KT - norm_DKT), C_DeltaB / (sigma_B - norm_B),"
                     " C_DeltaTInv / (sigma_T - norm_avgT_inv))", "ordinary"),
        ("C_Delta1", "max(d * C_DeltaK / (sigma_K - norm_DK),"
                     " 2 * n * C_DeltaK / (sigma_KT - norm_DKT), C_DeltaB / (sigma_B - norm_B),"
                     " C_DeltaTcInv / (sigma_Tc - norm_avgTc_inv))", "iso"),
        ("C_Delta2", "C_DeltaK * delta / dist_domain"),
        ("C_Delta3", "C_Deltaomega * gamma * delta ** (tau + 1) / dist_ray", "iso"),
        ("C_Delta", "max(gamma**2 * delta ** (2 * tau) / c_small, 2 * C_sym * gamma * delta**tau,"
                    " C_Delta1 / (1 - a1 ** (1 - 2 * tau)), C_Delta2 / (1 - a1 ** (-2 * tau)))",
         "ordinary"),
        ("C_Delta", "max(gamma**2 * delta ** (2 * tau) / c_small, 2 * C_sym * gamma * delta**tau,"
                    " C_Delta1 / (1 - a1 ** (1 - 2 * tau)), C_Delta2 / (1 - a1 ** (-2 * tau)),"
                    " C_Delta3 / (1 - a1 ** (1 - 3 * tau)))", "iso"),
        ("E1", "max((a1 * a3) ** (4 * tau) * C_E,"
               " a3 ** (2 * tau + 1) * gamma**2 * rho ** (2 * tau - 1) * C_Delta)", "ordinary"),
        ("E1", "max((a1 * a3) ** (4 * tau) * C_Ec,"
               " a3 ** (2 * tau + 1) * gamma**2 * rho ** (2 * tau - 1) * C_Delta)", "iso"),
        ("E2", "a3 ** (2 * tau) * C_DeltaK / (1 - a1 ** (-2 * tau))"),
        ("E3", "c_c_1 * E2", "ordinary"),
        ("E3", "a3**tau * C_Deltaomega / (1 - a1 ** (-3 * tau))", "iso"),
    ),
}

# the terms of C_Delta's max(), in table order, as named by E1_dominant
_DELTA_TERMS = ("smallness", "sym", "margins", "domain", "ray")


def _power(base: float, exponent: float) -> float:
    """base ** exponent, inf where Python's float power overflows (it raises
    where a product overflows to inf); every ledger base is positive."""
    try:
        return base**exponent
    except OverflowError:
        return float("inf")


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _power}


def _parse(expr: str) -> ast.expr:
    """The tree of a ledger expression; any construct beyond those :func:`_evaluate`
    knows is refused."""
    tree = ast.parse(expr, mode="eval").body
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINARY:
            stack += node.left, node.right
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            stack.append(node.operand)
        elif kind is ast.Call and getattr(node.func, "id", None) == "max" and not node.keywords:
            stack += node.args
        elif kind is ast.IfExp:
            stack += node.test, node.body, node.orelse
        elif kind is ast.Compare and len(node.ops) == 1 and type(node.ops[0]) is ast.Eq:
            stack += node.left, *node.comparators
        elif kind is not ast.Name and kind is not ast.Constant:
            raise ValueError(f"ledger expression {expr!r}: {kind.__name__} not allowed")
    return tree


def _evaluate(node: ast.expr, led: "ConstantLedger") -> float:
    """Value of a parsed ledger expression over the rows of ``led``, in plain
    floating point with Python's operator order and grouping."""
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, led), _evaluate(node.right, led))
    if isinstance(node, ast.Name):
        return led[node.id]
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, led)
    if isinstance(node, ast.Call):
        return max(_evaluate(arg, led) for arg in node.args)
    if isinstance(node, ast.IfExp):
        return _evaluate(node.body if _evaluate(node.test, led) else node.orelse, led)
    return _evaluate(node.left, led) == _evaluate(node.comparators[0], led)


def _first_max(node: ast.Call, led: "ConstantLedger") -> int:
    """Index of the first largest argument of a max() row."""
    terms = [_evaluate(arg, led) for arg in node.args]
    return terms.index(max(terms))


# (name, expression, tree, group, variant) for every row, parsed once
_LEDGER_ROWS = tuple((name, expr, _parse(expr), group, variant[0] if variant else None)
                     for group, rows in _LEDGER_TABLE.items()
                     for name, expr, *variant in rows)


def build_ledger(mode: str, globs: GlobalNormConstants, hyp: dict,
                 dio: DiophantineParams, rho: float, delta: float,
                 schedule: NewtonSchedule, n: int, case_tag: str = "III",
                 omega_star_norm: float | None = None,
                 sigma_omega: float | None = None,
                 dist_ray: float | None = None) -> ConstantLedger:
    """Evaluate every constant of the chain in dependency order.

    ``hyp`` carries the measured frame/twist norms and sigma bounds (see
    frames.measure_hypothesis_data); for iso mode it must include sigma_Tc /
    norm_avgTc_inv, and the ray data (omega_star_norm, sigma_omega, dist_ray)
    must be supplied.  ``delta`` is the strip bite; the theorem-level
    constants use the worst step value delta_0 = rho / a3, so pass that when
    evaluating the existence ratio.  The derived rows are those of
    _LEDGER_TABLE for this mode and case.
    """
    if mode not in ("ordinary", "iso"):
        raise ValueError("mode must be 'ordinary' or 'iso'")
    if mode == "iso" and None in (omega_star_norm, sigma_omega, dist_ray):
        raise ValueError("iso mode needs omega_star_norm, sigma_omega and dist_ray")
    d, tau = dio.d, dio.tau
    c_small = schedule.c_n
    if c_small is None:
        raise ValueError("the smallness scale schedule.c_n must be pinned for a ledger")
    c_R = russmann_constant(tau, delta)
    led = ConstantLedger(mode=mode)

    grp = "inputs"
    for key, val in (("gamma", dio.gamma), ("tau", tau), ("rho", rho), ("delta", delta),
                     ("a1", schedule.a1), ("a2", schedule.a2), ("a3", schedule.a3),
                     ("c_R", c_R), ("c_small", c_small), ("n", float(n)), ("d", float(d))):
        led.set(key, val, "input", grp, "user-supplied")
    for key in ("sigma_K", "sigma_KT", "sigma_B", "sigma_T", "sigma_Tc",
                "norm_DK", "norm_DKT", "norm_B", "norm_avgT_inv",
                "norm_avgTc_inv", "dist_domain"):
        if key in hyp:
            led.set(key, hyp[key], "measured/margin", grp, "measured")
    if mode == "iso":
        for key, val in (("sigma_omega", sigma_omega),
                         ("omega_star_norm", omega_star_norm),
                         ("dist_ray", dist_ray)):
            led.set(key, val, "ray data", grp, "user-supplied")
    for key, val in globs.values.items():
        led.set(key, val, "global bound", "globals", globs.provenance[key])

    twist = ("sigma_Tc", "norm_avgTc_inv") if mode == "iso" else ("sigma_T", "norm_avgT_inv")
    led.margins = {sigma: led[sigma] - led[norm] for sigma, norm in (
        ("sigma_K", "norm_DK"), ("sigma_KT", "norm_DKT"), ("sigma_B", "norm_B"), twist)}
    bad = {k: v for k, v in led.margins.items() if v <= 0}
    if bad:
        raise HypothesisError("sigma margins", f"{bad} not positive: the strict norm "
                              "hypotheses fail on this candidate")

    variants = (None, mode, "III" if case_tag == "III" else "II")
    trees = {}
    for name, expr, tree, group, variant in _LEDGER_ROWS:
        if variant in variants:
            led.set(name, _evaluate(tree, led), expr, group)
            trees[name] = tree
    led.set(
        "E1_dominant", 1.0 + _first_max(trees["E1"], led),
        "1: contraction branch, 2: margin branch (dominant margin term: "
        f"{_DELTA_TERMS[_first_max(trees['C_Delta'], led)]})",
        "convergence",
    )
    return led


# ---------------------------------------------------------------------------
# the certificate check
# ---------------------------------------------------------------------------


@dataclass
class CertificateReport:
    mode: str
    passed: bool
    ratio: float
    error_norm: float
    gamma: float
    tau: float
    rho: float
    delta: float
    scan_limit: int
    closeness_K: float | None
    closeness_second: float | None
    dominant: str
    margins: dict
    header: str = REPORT_HEADER


def kam_check(cand: TorusCandidate, ledger: ConstantLedger,
              error_norm: float) -> CertificateReport:
    """Evaluate the existence hypothesis ratio E1 ||E|| / (gamma^4 rho^{4 tau}).

    The mode is the ledger's.  ``error_norm`` is ||E||_rho (ordinary) or the
    combined ||E_c||_rho (iso).
    On pass, the closeness bounds are reported: E2 ||E||/(gamma^2 rho^{2tau})
    for the parameterization and the E3 bound for the conserved quantity
    (ordinary) or the frequency (iso, with denominator gamma rho^tau).
    """
    gamma, tau, rho = ledger["gamma"], ledger["tau"], ledger["rho"]
    denom = gamma**4 * rho ** (4 * tau)
    # a denominator that underflows to 0 leaves the hypothesis unchecked: fail it
    ratio = ledger["E1"] * error_norm / denom if denom > 0 else float("inf")
    passed = bool(ratio < 1.0)
    closeness_K = None
    closeness_second = None
    if passed:
        closeness_K = ledger["E2"] * error_norm / (gamma**2 * rho ** (2 * tau))
        if ledger.mode == "iso":
            closeness_second = ledger["E3"] * error_norm / (gamma * rho**tau)
        else:
            closeness_second = ledger["E3"] * error_norm / (gamma**2 * rho ** (2 * tau))
    branch = ledger["E1_dominant"]
    dominant = ledger.rows["E1_dominant"].formula if branch == 2.0 else "contraction constant C_E"
    return CertificateReport(
        mode=ledger.mode,
        passed=passed,
        ratio=float(ratio),
        error_norm=float(error_norm),
        gamma=float(gamma),
        tau=float(tau),
        rho=float(rho),
        delta=float(ledger["delta"]),
        scan_limit=cand.dio.scan_limit,
        closeness_K=closeness_K,
        closeness_second=closeness_second,
        dominant=dominant,
        margins=dict(ledger.margins),
    )


def _ledger(it: Iterate, frames: FrameBundle, schedule: NewtonSchedule,
            globs: GlobalNormConstants, delta: float, sigma_factor: float) -> ConstantLedger:
    """The ledger of the iterate ``it`` at the bite ``delta``.

    Iso mode is an iterate with a frequency ray, whose data enter the ledger.
    An unpinned smallness scale (``schedule.c_n`` None) is the natural
    max(1, ||X_H o K||_rho) of the iterate's kitchen.
    """
    cand, ray = it.cand, it.ray
    sched = replace(schedule, c_n=resolve_smallness_scale(schedule, it))
    hyp = measure_hypothesis_data(cand, frames, sigma_factor=sigma_factor)
    kw = {} if ray is None else {"omega_star_norm": float(np.max(np.abs(ray.omega_star))),
                                 "sigma_omega": ray.sigma_omega,
                                 "dist_ray": ray.boundary_margin()}
    return build_ledger("ordinary" if ray is None else "iso", globs, hyp, cand.dio, cand.rho,
                        delta, sched, case_tag=cand.system.geometry.case_tag, n=cand.system.n,
                        **kw)


def certify(it: Iterate, frames: FrameBundle, schedule: NewtonSchedule,
            globs: GlobalNormConstants, sigma_factor: float):
    """Measure the hypothesis data of ``it``, build the ledger at the worst-step
    bite delta_0 = rho/a3, and run kam_check.  Returns (report, ledger).

    The mode is the iterate's: iso when it carries a frequency ray.  The
    error is the iterate's ||E||_rho, or ||E_c||_rho = max(||E||_rho,
    |E^omega|) in iso mode.  The smallness scale
    is the natural max(1, ||X_H o K||_rho): the solver may run with a much
    larger override, but the smallness scale is a free parameter of the
    theorem and the certificate picks its own.
    """
    rho = it.cand.rho
    ledger = _ledger(it, frames, replace(schedule, c_n=None), globs, rho / schedule.a3,
                     sigma_factor)
    return kam_check(it.cand, ledger, it.combined_norm(rho)), ledger


def contraction_constant_factory(globs: GlobalNormConstants, schedule: NewtonSchedule,
                                 sigma_factor: float):
    """Per-step quadratic-contraction constant hook for the Newton loop.

    Returns a callable (it, frames, delta) -> C_E (or C_Ec in iso mode) that
    measures the hypothesis data on the iterate ``it`` and evaluates the
    ledger rows at the step's bite delta with the run's smallness scale.
    """

    def constant(it: Iterate, frames: FrameBundle, delta: float) -> float:
        led = _ledger(it, frames, schedule, globs, delta, sigma_factor)
        return led["C_E"] if it.ray is None else led["C_Ec"]

    return constant
