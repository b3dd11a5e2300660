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

The arithmetic is plain floating point with an upward safety margin applied
to sampled global constants only; every report states that the evaluation is
not a rigorously rounded enclosure, that norms refer to the truncated Fourier
model, and that gamma is a scan-limited lower-bound certificate.
"""

from __future__ import annotations

import ast
import io
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .cohomology import DiophantineParams, russmann_constant
from .frames import FrameBundle, TorusCandidate, measure_hypothesis_data
from .hamiltonian import ConservedQuantity, HamiltonianSystem
from .solver import Iterate, NewtonSchedule, resolve_smallness_scale

REPORT_HEADER = (
    "floating-point constant chain (no directed rounding); norms are Fourier "
    "majorants of the truncated model; gamma is a finite-scan lower bound; "
    "sampled global constants carry a 5% upward margin"
)


class LedgerError(ArithmeticError):
    """A ledger row evaluated to NaN/inf; the offending row is named."""


# ---------------------------------------------------------------------------
# global norm constants (analytic bounds of the system callbacks)
# ---------------------------------------------------------------------------

_CANONICAL_EXACT = {
    "c_Omega_0": 1.0, "c_Omega_1": 0.0,
    "c_tOmega_0": 1.0, "c_tOmega_1": 0.0, "c_tOmega_2": 0.0,
    "c_G_0": 1.0, "c_G_1": 0.0, "c_G_2": 0.0,
    "c_J_0": 1.0, "c_J_1": 0.0, "c_J_2": 0.0,
    "c_JT_0": 1.0, "c_JT_1": 0.0,
}

# the bounds of the first integrals p and their fields X_p: exact zeros when m = 0
_INTEGRAL_FIELDS = ("c_p_1", "c_pT_1", "c_Xp_0", "c_Xp_1", "c_Xp_2",
                    "c_XpT_0", "c_XpT_1", "c_XpT_2")

_GLOBAL_FIELDS = [*_CANONICAL_EXACT, "c_H_1", "c_XH_0", "c_XH_1", "c_XH_2", "c_XHT_1",
                  *_INTEGRAL_FIELDS, "c_c_1", "c_c_2"]


@dataclass
class GlobalNormConstants:
    """Sampled/exact bounds on the analytic norms of the system callbacks."""

    values: dict
    provenance: dict


def _rank1_lattice(npts: int, dim: int) -> np.ndarray:
    """Deterministic rank-1 lattice in [0,1)^dim (Korobov-style generator)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    gen = np.array([np.modf(phi ** (i + 1))[0] for i in range(dim)])
    j = np.arange(npts)[:, None]
    return np.modf(j * gen[None, :] + 0.5 / npts)[0]


LATTICE_DENSITY = 2048  # points in each of the three sample sets of _domain_points
LATTICE_SLICE = 1024  # points per callback evaluation in estimate_global_constants


def _domain_points(sys: HamiltonianSystem) -> np.ndarray:
    """Complexified sample set: rank-1 lattice through the domain box plus a
    sweep with the imaginary parts pinned at the extreme width."""
    box = sys.domain
    a = box.angle_count
    m = 2 * sys.n - a  # disc-constrained coordinates
    u = _rank1_lattice(LATTICE_DENSITY, 2 * a + 2 * m)
    x = u[:, :a] + 1j * box.imag_width * (2.0 * u[:, a : 2 * a] - 1.0)
    ang = 2.0 * np.pi * u[:, 2 * a : 2 * a + m]
    rad = box.y_radius * u[:, 2 * a + m :]
    y = box.y_center + rad * np.exp(1j * ang)
    interior = np.concatenate([x, y], axis=1)

    u2 = _rank1_lattice(LATTICE_DENSITY, a + m)
    signs = np.where(_rank1_lattice(LATTICE_DENSITY, max(a, 1))[:, :a] > 0.5, 1.0, -1.0)
    x2 = u2[:, :a] + 1j * box.imag_width * signs
    y2 = box.y_center + box.y_radius * np.exp(2j * np.pi * u2[:, a:])
    boundary = np.concatenate([x2, y2], axis=1)
    real_pts = np.concatenate(
        [u2[:, :a], box.y_center + 0.9 * box.y_radius * (2 * u2[:, a:] - 1)], axis=1
    ).astype(np.complex128)
    return np.concatenate([interior, boundary, real_pts], axis=0)


def estimate_global_constants(sys: HamiltonianSystem, margin: float = 0.05,
                              conserved: ConservedQuantity | None = None) -> GlobalNormConstants:
    """Sampled maxima (x 1+margin) of the callback norms over the complexified domain.

    Canonical structure entries are set exactly; with no first integrals all
    p/X_p entries are exact zeros.  Provenance records which is which.
    """
    vals: dict = {}
    prov: dict = {}
    z = _domain_points(sys)
    up = 1.0 + margin

    def sup(f):
        """Entry-wise max of |f| over z, evaluated LATTICE_SLICE points at a time
        (a max is exact in any order, so the slicing cannot change a bit)."""
        out = np.abs(f(z[:LATTICE_SLICE])).max(axis=0)
        for start in range(LATTICE_SLICE, len(z), LATTICE_SLICE):
            np.maximum(out, np.abs(f(z[start:start + LATTICE_SLICE])).max(axis=0), out=out)
        return out

    if sys.geometry.is_canonical:
        vals.update(_CANONICAL_EXACT)
        prov.update({k: "canonical-exact" for k in _CANONICAL_EXACT})
    else:
        geo = sys.geometry
        mats = {
            "c_Omega": (geo.omega_mat, geo.d_omega, None),
            "c_tOmega": (geo.tilde_omega, geo.d_tilde_omega, geo.d2_tilde_omega),
            "c_G": (geo.metric_G, geo.d_G, geo.d2_G),
            "c_J": (geo.iso_J, geo.d_J, geo.d2_J),
        }
        for key, (f0, f1, f2) in mats.items():
            sup0 = sup(f0)
            vals[f"{key}_0"] = up * float(sup0.sum(axis=1).max())
            if f1 is None:
                raise ValueError(f"non-canonical structure needs derivative callback for {key}")
            sup1 = sup(f1)  # (2n, 2n, 2n): d M_ij / dz_l
            vals[f"{key}_1"] = up * float(sup1.sum(axis=(1, 2)).max())
            if key != "c_Omega":
                if f2 is None:
                    raise ValueError(f"missing second-derivative callback for {key}")
                sup2 = sup(f2)
                vals[f"{key}_2"] = up * float(sup2.sum(axis=(1, 2, 3)).max())
        # the loop ends on c_J, so sup0 and sup1 are the sups of J and DJ
        vals["c_JT_0"] = up * float(sup0.sum(axis=0).max())
        vals["c_JT_1"] = up * float(sup1.sum(axis=(0, 2)).max())
        prov.update({k: "sampled" for k in vals})

    def sampled(key, value):
        vals[key] = up * float(value)
        prov[key] = "sampled"

    sampled("c_H_1", sup(sys.DH).sum())
    sampled("c_XH_0", sup(sys.XH).max())
    dxh = sup(sys.DXH)
    sampled("c_XH_1", dxh.sum(axis=1).max())
    sampled("c_XHT_1", dxh.sum())
    sampled("c_XH_2", sup(sys.D2XH).sum(axis=(1, 2)).max())

    m = sys.n_integrals
    if m == 0:
        for key in _INTEGRAL_FIELDS:
            vals[key] = 0.0
            prov[key] = "canonical-exact"
    else:
        dp = sup(sys.Dp)  # (m, 2n)
        per_int = dp.sum(axis=1)
        sampled("c_p_1", per_int.max())
        sampled("c_pT_1", per_int.sum())
        xp = sup(sys.Xp)  # (2n, m)
        sampled("c_Xp_0", xp.sum(axis=1).max())
        sampled("c_XpT_0", xp.sum(axis=0).max())
        dxp = sup(sys.DXp)  # (2n, m, 2n)
        sampled("c_Xp_1", dxp.sum(axis=(1, 2)).max())
        sampled("c_XpT_1", dxp.sum(axis=(0, 2)).max())
        d2xp = sup(sys.D2Xp)
        sampled("c_Xp_2", d2xp.sum(axis=(1, 2, 3)).max())
        sampled("c_XpT_2", d2xp.sum(axis=(0, 2, 3)).max())

    if conserved is not None:
        sampled("c_c_1", sup(conserved.Dc).sum())
        sampled("c_c_2", sup(conserved.D2c).sum())
    else:  # c = H: its Hessian is Omega DXH
        vals["c_c_1"] = vals["c_H_1"]
        prov["c_c_1"] = "sampled"
        sampled("c_c_2", sup(sys.conserved("H").D2c).sum())

    for key in _GLOBAL_FIELDS:
        if key not in vals:
            raise LedgerError(f"global constant {key} was not produced")
        if not np.isfinite(vals[key]):
            raise LedgerError(f"global constant {key} is not finite")
    return GlobalNormConstants(vals, prov)


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
    case_tag: str = "III"
    # sigma bound -> sigma minus its measured norm; build_ledger checks each > 0
    margins: dict = field(default_factory=dict)

    def set(self, name: str, value: float, formula: str, group: str,
            provenance: str = "derived"):
        value = float(value)
        if not np.isfinite(value):
            raise LedgerError(f"ledger row {name} = {value} ({formula})")
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

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


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
                 d: int | None = None, omega_star_norm: float | None = None,
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
    if d is None:
        d = dio.d
    tau = dio.tau
    c_small = schedule.c_n
    if c_small is None:
        raise ValueError("the smallness scale schedule.c_n must be pinned for a ledger")
    c_R = russmann_constant(tau, delta)
    led = ConstantLedger(mode=mode, case_tag=case_tag)

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
        raise LedgerError(f"non-positive sigma margins {bad}: the strict norm "
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

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "mode": self.mode,
            "passed": self.passed,
            "ratio": self.ratio,
            "error_norm": self.error_norm,
            "gamma": self.gamma,
            "tau": self.tau,
            "rho": self.rho,
            "delta": self.delta,
            "scan_limit": self.scan_limit,
            "closeness_K": self.closeness_K,
            "closeness_second": self.closeness_second,
            "dominant": self.dominant,
            "margins": self.margins,
        }


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
    ratio = ledger["E1"] * error_norm / denom
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
    sched = replace(schedule, c_n=resolve_smallness_scale(schedule, it.kitchen))
    hyp = measure_hypothesis_data(cand, frames, sigma_factor=sigma_factor)
    kw = {} if ray is None else {"omega_star_norm": float(np.max(np.abs(ray.omega_star))),
                                 "sigma_omega": ray.sigma_omega,
                                 "dist_ray": ray.boundary_margin()}
    return build_ledger("ordinary" if ray is None else "iso", globs, hyp, cand.dio, cand.rho,
                        delta, sched, case_tag=cand.system.geometry.case_tag, n=cand.system.n,
                        d=cand.d, **kw)


def certify(it: Iterate, frames: FrameBundle, schedule: NewtonSchedule,
            globs: GlobalNormConstants, sigma_factor: float = 1.1,
            error_norm: float | None = None):
    """Measure the hypothesis data of ``it``, build the ledger at the worst-step
    bite delta_0 = rho/a3, and run kam_check.  Returns (report, ledger).

    The mode is the iterate's: iso when it carries a frequency ray.  The
    error is the iterate's ||E||_rho, or ||E_c||_rho = max(||E||_rho,
    |E^omega|) in iso mode; ``error_norm`` overrides it.  The smallness scale
    is the natural max(1, ||X_H o K||_rho): the solver may run with a much
    larger override, but the smallness scale is a free parameter of the
    theorem and the certificate picks its own.
    """
    rho = it.cand.rho
    ledger = _ledger(it, frames, replace(schedule, c_n=None), globs, rho / schedule.a3,
                     sigma_factor)
    if error_norm is None:
        error_norm = it.combined_norm(rho)
    return kam_check(it.cand, ledger, error_norm), ledger


def contraction_constant_factory(globs: GlobalNormConstants, schedule: NewtonSchedule,
                                 sigma_factor: float = 1.1):
    """Per-step quadratic-contraction constant hook for the Newton loop.

    Returns a callable (it, frames, delta) -> C_E (or C_Ec in iso mode) that
    measures the hypothesis data on the iterate ``it`` and evaluates the
    ledger rows at the step's bite delta with the run's smallness scale.
    """

    def constant(it: Iterate, frames: FrameBundle, delta: float) -> float:
        led = _ledger(it, frames, schedule, globs, delta, sigma_factor)
        return led["C_E"] if it.ray is None else led["C_Ec"]

    return constant
