"""Hamiltonian systems with first integrals in involution.

A system bundles analytic callbacks for the Hamiltonian H, its vector field
X_H = Omega^{-1} (DH)^T and a stack of n-d first integrals p (possibly
empty), with the constant geometric structure (symplectic matrix Omega,
metric G, isomorphism J, and tilde-Omega = J^T Omega J).  All callbacks are
vectorized over a leading batch of phase-space points.  A target conserved
quantity c is named by its selector: "H", or ("p", j) for p_j.

Derivative conventions (batch axes elided):
    H() -> scalar            DH() -> (2n,)           [row gradient]
    XH() -> (2n,)            DXH() -> (2n, 2n)       [i,j] = dX_i/dz_j
    D2XH() -> (2n, 2n, 2n)   [i,j,k] = d^2 X_i / dz_j dz_k
    p() -> (m,)              Dp() -> (m, 2n)
    Xp() -> (2n, m)          DXp() -> (2n, m, 2n)    D2Xp() -> (2n, m, 2n, 2n)

Analytic derivatives are mandatory; a finite-difference validator
cross-checks them but is never used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class StructureError(ValueError):
    """A geometric-structure invariant fails (a singular Omega among them)."""


# ---------------------------------------------------------------------------
# geometric structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricStructure:
    """The constant matrices of the exact symplectic structure and metric on
    R^{2n}: Omega, the metric G, the isomorphism J and tilde-Omega = J^T
    Omega J.  Omega is exact with the action a(z) = -Omega z / 2.

    case_tag "III" asserts the compatible (anti-involutive J) case, in which
    the frame coefficient A vanishes identically; "II" is the generic
    metric-compatible case.  The frames multiply map coefficients by the
    matrices directly and the certificate bounds them exactly.  Only
    :func:`constant_structure` builds one.
    """

    Omega: np.ndarray
    G: np.ndarray
    J: np.ndarray
    tOmega: np.ndarray
    case_tag: str = "III"

    @property
    def is_canonical(self) -> bool:
        """The standard structure: Omega = Omega_0, G = I, J = Omega_0."""
        omega0 = _omega0(len(self.Omega) // 2)
        return all(np.array_equal(got, want) for got, want in
                   zip((self.Omega, self.G, self.J, self.tOmega),
                       (omega0, np.eye(len(omega0)), omega0, omega0)))

    def check_invariants(self, tol: float = 1e-10):
        """Verify Omega^T = -Omega (so Omega is exact), G^T = G > 0, J^T Omega = G,
        tilde-Omega = J^T Omega J, and the Case III compatibility identities
        when tagged."""
        Om, G, J = self.Omega, self.G, self.J
        errs = {
            "antisymmetry": float(np.max(np.abs(Om + Om.T))),
            "metric_symmetry": float(np.max(np.abs(G - G.T))),
            "compatibility_JTO_G": float(np.max(np.abs(J.T @ Om - G))),
            "tilde_consistency": float(np.max(np.abs(self.tOmega - J.T @ Om @ J))),
        }
        eigmin = float(np.min(np.linalg.eigvalsh(G)))
        if eigmin <= 0:
            raise StructureError(f"metric not positive definite: min eigenvalue {eigmin}")
        if self.case_tag == "III":
            errs["J_anti_involutive"] = float(np.max(np.abs(J @ J + np.eye(len(J)))))
            errs["omega_J_invariant"] = float(np.max(np.abs(J.T @ Om @ J - Om)))
            errs["metric_J_invariant"] = float(np.max(np.abs(J.T @ G @ J - G)))
        bad = {k: v for k, v in errs.items() if v > tol}
        if bad:
            raise StructureError(f"structure invariants violated: {bad}")
        return errs


def _omega0(n: int) -> np.ndarray:
    """Omega_0 = [[0, -I], [I, 0]] on R^{2n}."""
    return np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])


def constant_structure(omega: np.ndarray, G: np.ndarray, J: np.ndarray,
                       case_tag: str) -> GeometricStructure:
    """The structure with the constant matrices Omega, G, J and
    tilde-Omega = J^T Omega J."""
    om, g, j = (np.array(m, dtype=np.float64) for m in (omega, G, J))
    return GeometricStructure(om, g, j, j.T @ om @ j, case_tag)


def canonical_structure(n: int) -> GeometricStructure:
    """Standard structure on R^{2n}: Omega = Omega_0, G = I, J = Omega_0 (Case III)."""
    omega0 = _omega0(n)
    return constant_structure(omega0, np.eye(2 * n), omega0, "III")


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainBox:
    """Complexified evaluation domain.

    The leading ``angle_count`` coordinates are periodic: only their imaginary
    part is constrained (|Im| < imag_width).  The remaining 2n - angle_count
    coordinates live in complex discs |z_j - center_j| < radius.  The default
    angle_count = n models T^n x R^n; angle_count = 0 models a bounded region
    of R^{2n}.
    """

    n: int
    y_center: np.ndarray
    y_radius: float
    imag_width: float
    angle_count: int | None = None

    def __post_init__(self):
        if self.angle_count is None:
            object.__setattr__(self, "angle_count", self.n)
        object.__setattr__(self, "y_center", np.asarray(self.y_center, dtype=np.float64))
        if not 0 <= self.angle_count <= 2 * self.n:
            raise ValueError("angle_count must lie in [0, 2n]")
        if self.y_center.shape != (2 * self.n - self.angle_count,):
            raise ValueError("y_center must cover the non-periodic coordinates")
        if self.y_radius <= 0 or self.imag_width <= 0:
            raise ValueError("radii must be positive")


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermTable:
    """H = |y|^2/2 + sum_j v_j cos(2 pi k_j . x) with the integrals p_a = c_a . y."""

    v: np.ndarray  # (terms,)
    k: np.ndarray  # (terms, n)
    c: np.ndarray  # (m, n)


@dataclass(frozen=True)
class HamiltonianSystem:
    name: str
    n: int
    n_integrals: int
    geometry: GeometricStructure
    H: Callable
    DH: Callable
    XH: Callable
    DXH: Callable
    D2XH: Callable
    p: Callable
    Dp: Callable
    Xp: Callable
    DXp: Callable
    D2Xp: Callable
    domain: DomainBox
    table: TermTable | None = None  # the term table the callbacks were generated from

    @property
    def d(self) -> int:
        """Torus dimension n - (number of first integrals)."""
        return self.n - self.n_integrals

    def integral_index(self, selector) -> int | None:
        """None for the target conserved quantity c = H (selector "H"), j for
        c = p_j (selector ("p", j)); ValueError for any other selector."""
        if selector == "H":
            return None
        if isinstance(selector, (tuple, list)) and selector[0] == "p":
            j = int(selector[1])
            if not 0 <= j < self.n_integrals:
                raise ValueError(f"no first integral with index {j}")
            return j
        raise ValueError(f"unknown conserved-quantity selector {selector!r}")

    def conserved(self, selector, z):
        """(c(z), Dc(z)) of the target conserved quantity of ``selector``: H and
        DH, or p_j and Dp_j, column j of p and Dp."""
        j = self.integral_index(selector)
        if j is None:
            return self.H(z), self.DH(z)
        return self.p(z)[..., j], self.Dp(z)[..., j, :]


# ---------------------------------------------------------------------------
# brackets and verification
# ---------------------------------------------------------------------------


def poisson_bracket(Df: Callable, Dg: Callable, omega: np.ndarray, z) -> np.ndarray:
    """{f, g}(z) = Df(z) Omega^{-1} (Dg(z))^T for the constant matrix Omega."""
    z = np.asarray(z)
    dg = np.asarray(Dg(z))
    df = np.asarray(Df(z))
    if abs(np.linalg.det(omega)) < 1e-300:
        raise StructureError("Omega is singular")
    sol = np.linalg.solve(omega, dg[..., :, None])[..., 0]
    return np.einsum("...i,...i->...", df, sol)


@dataclass
class InvolutionReport:
    max_bracket: float
    passed: bool
    details: dict


def _sample_points(sys: HamiltonianSystem, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = sys.domain.angle_count
    x = rng.uniform(0.0, 1.0, size=(count, a))
    y = sys.domain.y_center + rng.uniform(
        -0.7, 0.7, size=(count, 2 * sys.n - a)
    ) * sys.domain.y_radius
    return np.concatenate([x, y], axis=1)


def verify_involution(sys: HamiltonianSystem, sample_count: int = 200, seed: int = 0,
                      tol: float = 1e-10) -> InvolutionReport:
    """Check {H, p_j} = 0 and {p_i, p_j} = 0 at random domain points.

    Vacuous pass when the system has no extra integrals (d = n).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    m = sys.n_integrals
    if m == 0:
        return InvolutionReport(0.0, True, {"note": "no first integrals: vacuous pass"})
    z = _sample_points(sys, sample_count, seed)
    worst = 0.0
    details = {}
    for j in range(m):
        br = poisson_bracket(sys.DH, lambda w, j=j: sys.Dp(w)[..., j, :], sys.geometry.Omega, z)
        details[f"{{H,p{j}}}"] = float(np.max(np.abs(br)))
        worst = max(worst, details[f"{{H,p{j}}}"])
    for i in range(m):
        for j in range(i + 1, m):
            br = poisson_bracket(
                lambda w, i=i: sys.Dp(w)[..., i, :],
                lambda w, j=j: sys.Dp(w)[..., j, :],
                sys.geometry.Omega,
                z,
            )
            details[f"{{p{i},p{j}}}"] = float(np.max(np.abs(br)))
            worst = max(worst, details[f"{{p{i},p{j}}}"])
    return InvolutionReport(worst, worst <= tol, details)


def verify_commutation(sys: HamiltonianSystem, sample_count: int = 200, seed: int = 0,
                       tol: float = 1e-10) -> InvolutionReport:
    """Check DX_H X_p = DX_p[X_H] and the pairwise X_p commutation identities."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    m = sys.n_integrals
    if m == 0:
        return InvolutionReport(0.0, True, {"note": "no first integrals: vacuous pass"})
    z = _sample_points(sys, sample_count, seed)
    XH = sys.XH(z)
    Xp = sys.Xp(z)
    dXH = sys.DXH(z)
    dXp = sys.DXp(z)
    lhs = np.einsum("...ij,...ja->...ia", dXH, Xp)
    rhs = np.einsum("...iaj,...j->...ia", dXp, XH)
    details = {"DXH.Xp - DXp[XH]": float(np.max(np.abs(lhs - rhs)))}
    worst = details["DXH.Xp - DXp[XH]"]
    # (D X_{p_a}) X_{p_b} is symmetric in (a, b) when the fields commute
    pair = np.einsum("...iaj,...jb->...iab", dXp, Xp)
    err = float(np.max(np.abs(pair - np.swapaxes(pair, -1, -2))))
    details["pairwise Xp commutation"] = err
    worst = max(worst, err)
    return InvolutionReport(worst, worst <= tol, details)


def check_derivatives(sys: HamiltonianSystem, sample_count: int = 20, seed: int = 1,
                      h: float = 1e-6, rtol: float = 1e-6) -> dict:
    """Finite-difference cross-check of every analytic derivative callback.

    Diagnostic only; the solver never consumes finite differences.
    """
    z = _sample_points(sys, sample_count, seed)
    n2 = 2 * sys.n
    out = {}

    def fd_jacobian(f, shape):
        J = np.empty(z.shape[:-1] + shape + (n2,))
        for j in range(n2):
            e = np.zeros(n2)
            e[j] = h
            J[..., j] = ((np.asarray(f(z + e)) - np.asarray(f(z - e))) / (2 * h)).real
        return J

    def rel(a, b):
        scale = max(1.0, float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) / scale

    out["DH"] = rel(sys.DH(z), fd_jacobian(sys.H, ()))
    out["DXH"] = rel(sys.DXH(z), fd_jacobian(sys.XH, (n2,)))
    out["D2XH"] = rel(sys.D2XH(z), fd_jacobian(sys.DXH, (n2, n2)))
    if sys.n_integrals:
        out["Dp"] = rel(sys.Dp(z), fd_jacobian(sys.p, (sys.n_integrals,)))
        out["DXp"] = rel(sys.DXp(z), fd_jacobian(sys.Xp, (n2, sys.n_integrals)))
        out["D2Xp"] = rel(sys.D2Xp(z), fd_jacobian(sys.DXp, (n2, sys.n_integrals, n2)))
    out["passed"] = all(v <= rtol for k, v in out.items() if k != "passed")
    return out


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------


def _constant(value: np.ndarray) -> Callable:
    """Callback broadcasting a constant array over the batch axes of z."""

    def cb(z):
        z = np.asarray(z)
        out = np.zeros(z.shape[:-1] + value.shape, dtype=np.result_type(z, 0.0))
        out[...] = value
        return out

    return cb


def _linear_integrals(c: np.ndarray):
    """Callbacks of the linear momenta p_a = c_a . y, one row of c (m, n) per integral.

    In the canonical structure X_p = (c_a, 0) is constant and DXp, D2Xp vanish.
    """
    m, n = c.shape

    def p(z):
        return np.einsum("...j,aj->...a", np.asarray(z)[..., n:], c)

    return (p, _constant(np.concatenate([np.zeros((m, n)), c], axis=1)),
            _constant(np.concatenate([c.T, np.zeros((n, m))])),
            _constant(np.zeros((2 * n, m, 2 * n))), _constant(np.zeros((2 * n, m, 2 * n, 2 * n))))


def _trig_potential_system(name: str, table: TermTable, domain: DomainBox) -> HamiltonianSystem:
    """The system of a term table: H = |y|^2/2 + V(x), V = sum_j v_j cos(2 pi
    k_j . x), on the canonical structure, with the linear first integrals
    p_a = c_a . y.

    Every derivative of V comes from one formula,
        d^r V = sum_j v_j (2 pi)^r cos(2 pi k_j . x + r pi/2) k_j^{(x) r},
    at order r = 0 (H), 1 (DH, XH), 2 (DXH) and 3 (D2XH).
    """
    v, k, c = table.v, table.k, table.c
    n = k.shape[1]
    tp = 2 * np.pi
    k_powers = [np.ones((len(v), 1))]  # k_j^{(x) r}, flattened to shape (terms, n**r)
    for _ in range(3):
        k_powers.append(np.einsum("jm,ja->jma", k_powers[-1], k).reshape(len(v), -1))

    def dV(z, r):
        z = np.asarray(z)
        phase = tp * np.einsum("...a,ja->...j", z[..., :n], k)
        # cos(t + r pi/2) is cos, -sin, -cos, sin for r = 0, 1, 2, 3
        wave = np.sin(phase) if r % 2 else np.cos(phase)
        amp = wave * ((-1.0 if r in (1, 2) else 1.0) * tp**r * v)
        return np.einsum("...j,jm->...m", amp, k_powers[r]).reshape(z.shape[:-1] + (n,) * r)

    def H(z):
        y = np.asarray(z)[..., n:]
        return 0.5 * np.sum(y * y, axis=-1) + dV(z, 0)

    def DH(z):
        return np.concatenate([dV(z, 1), np.asarray(z)[..., n:]], axis=-1)

    def XH(z):
        return np.concatenate([np.asarray(z)[..., n:], -dV(z, 1)], axis=-1)

    flow = _constant(np.eye(2 * n, k=n))  # dx/dt = y

    def DXH(z):
        out = flow(z)
        out[..., n:, :n] = -dV(z, 2)
        return out

    zero3 = _constant(np.zeros((2 * n,) * 3))

    def D2XH(z):
        out = zero3(z)
        out[..., n:, :n, :n] = -dV(z, 3)
        return out

    p, Dp, Xp, DXp, D2Xp = _linear_integrals(c)
    return HamiltonianSystem(
        name=name, n=n, n_integrals=c.shape[0], geometry=canonical_structure(n),
        H=H, DH=DH, XH=XH, DXH=DXH, D2XH=D2XH,
        p=p, Dp=Dp, Xp=Xp, DXp=DXp, D2Xp=D2Xp,
        domain=domain, table=table,
    )


# name -> (terms (v_j / epsilon, k_j) of V, rows c_a of the integrals p_a = c_a . y)
_BUILTIN_TERMS = {
    # H = |y|^2/2 + eps (cos 2pi x1 + cos 2pi(x1 - x2))
    "lagrangian_rotors": ([(1.0, (1, 0)), (1.0, (1, -1))], []),
    # H = |y|^2/2 + eps cos(2pi x1)(1 + cos 2pi(x2 - x3)), p = y2 + y3
    "symmetric_rotors": ([(1.0, (1, 0, 0)), (0.5, (1, 1, -1)), (0.5, (1, -1, 1))],
                         [(0, 1, 1)]),
}


def builtin_table(name: str, epsilon: float = 1.0) -> TermTable:
    """The term table of a registered system, its amplitudes times epsilon."""
    if not isinstance(name, str) or name not in _BUILTIN_TERMS:
        raise ValueError(f"unknown system {name!r}; registered: {', '.join(_BUILTIN_TERMS)}")
    terms, integrals = _BUILTIN_TERMS[name]
    k = np.array([kv for _, kv in terms], dtype=float)
    return TermTable(np.array([epsilon * coef for coef, _ in terms]), k,
                     np.array(integrals, dtype=float).reshape(-1, k.shape[1]))


def builtin_dims(name: str) -> tuple[int, int]:
    """(n, number of first integrals) of a registered system, read off its term table."""
    table = builtin_table(name)
    return table.k.shape[1], table.c.shape[0]


def builtin_system(name: str, epsilon: float = 0.0, y_center=None,
                   y_radius: float = 0.5, imag_width: float = 0.2) -> HamiltonianSystem:
    """Registered example systems, generated from their term table.

    "lagrangian_rotors":  n = d = 2 coupled rotors (no extra integrals).
    "symmetric_rotors":   n = 3, d = 2 rotors with translation symmetry,
                          p = y2 + y3; target quantity selectable as H or p.
    """
    table = builtin_table(name, epsilon)
    n = table.k.shape[1]
    domain = DomainBox(n=n, y_center=np.zeros(n) if y_center is None else y_center,
                       y_radius=y_radius, imag_width=imag_width)
    return _trig_potential_system(name, table, domain)
