"""Hamiltonian systems with first integrals in involution.

A system bundles analytic callbacks for the Hamiltonian H, its vector field
X_H = Omega^{-1} (DH)^T and a stack of n-d first integrals p (possibly
empty), with the constant geometric structure (symplectic matrix Omega,
metric G and isomorphism J, whose identities are checked when it is built).
All callbacks are vectorized over a leading batch of phase-space points.  A
target conserved quantity c is named by its selector: "H", or ("p", j) for
p_j.

Derivative conventions (batch axes elided):
    H() -> scalar            DH() -> (2n,)           [row gradient]
    XH() -> (2n,)            DXH() -> (2n, 2n)       [i,j] = dX_i/dz_j
    D2XH() -> (2n, 2n, 2n)   [i,j,k] = d^2 X_i / dz_j dz_k
    p() -> (m,)              Dp() -> (m, 2n)
    Xp() -> (2n, m)          DXp() -> (2n, m, 2n)    D2Xp() -> (2n, m, 2n, 2n)

Analytic derivatives are mandatory; a finite-difference validator
cross-checks them but is never used by the solver.  A system generated from a
term table states the involution of its integrals exactly
(``TermTable.involution_bounds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class StructureError(ValueError):
    """An identity of a geometric structure fails as it is built."""


# ---------------------------------------------------------------------------
# geometric structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricStructure:
    """The constant matrices of the exact symplectic structure and metric on
    R^{2n}: Omega, the metric G and the isomorphism J.  Omega is exact with the
    action a(z) = -Omega z / 2.

    Building one casts the matrices to read-only float64 copies and checks, to
    STRUCTURE_TOL, the identities Omega^T = -Omega, G^T = G > 0 and
    J^T Omega = G (so Omega is invertible); a ``StructureError`` names each
    one that fails.  tilde-Omega = J^T Omega J and the case are read off the
    matrices: Case III, in which the frame coefficient A vanishes identically,
    when J is anti-involutive and preserves Omega and G, Case II otherwise.
    The frames multiply map coefficients by the matrices directly and the
    certificate bounds them exactly.
    """

    Omega: np.ndarray
    G: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        for name in ("Omega", "G", "J"):
            mat = np.array(getattr(self, name), dtype=np.float64)
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        om, g, j = self.Omega, self.G, self.J
        bad = [name for name, err in (("antisymmetry Omega^T = -Omega", om + om.T),
                                      ("metric symmetry G^T = G", g - g.T),
                                      ("compatibility J^T Omega = G", j.T @ om - g))
               if not _vanishes(err)]
        if not (np.isfinite(g).all() and np.linalg.eigvalsh(g)[0] > 0):
            bad.append("metric positive definite G > 0")
        if bad:
            raise StructureError(f"structure invariants violated: {'; '.join(bad)}")

    @property
    def tOmega(self) -> np.ndarray:
        """tilde-Omega = J^T Omega J."""
        return self.J.T @ self.Omega @ self.J

    @property
    def case_tag(self) -> str:
        """"III" when J^2 = -I, J^T Omega J = Omega and J^T G J = G, else "II"."""
        om, g, j = self.Omega, self.G, self.J
        compatible = (j @ j + np.eye(len(j)), self.tOmega - om, j.T @ g @ j - g)
        return "III" if all(map(_vanishes, compatible)) else "II"

    @property
    def is_canonical(self) -> bool:
        """The standard structure: Omega = Omega_0, G = I, J = Omega_0."""
        omega0 = _omega0(len(self.Omega) // 2)
        return all(np.array_equal(got, want) for got, want in
                   zip((self.Omega, self.G, self.J), (omega0, np.eye(len(omega0)), omega0)))


STRUCTURE_TOL = 1e-10  # the largest entry of a structure identity's residual that counts as 0


def _vanishes(residual: np.ndarray) -> bool:
    """Every entry of ``residual`` is at most STRUCTURE_TOL in modulus (NaN is not)."""
    return bool(np.max(np.abs(residual)) <= STRUCTURE_TOL)


def _omega0(n: int) -> np.ndarray:
    """Omega_0 = [[0, -I], [I, 0]] on R^{2n}."""
    return np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])


def canonical_structure(n: int) -> GeometricStructure:
    """Standard structure on R^{2n}: Omega = Omega_0, G = I, J = Omega_0 (Case III)."""
    omega0 = _omega0(n)
    return GeometricStructure(omega0, np.eye(2 * n), omega0)


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainBox:
    """Complexified evaluation domain T^n x B^n, n the length of ``y_center``.

    The n angles are periodic: only their imaginary part is constrained
    (|Im| < imag_width).  The n momenta live in complex discs
    |y_j - y_center_j| < y_radius.
    """

    y_center: np.ndarray
    y_radius: float
    imag_width: float

    def __post_init__(self):
        object.__setattr__(self, "y_center", np.asarray(self.y_center, dtype=np.float64))
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

    def involution_bounds(self) -> tuple[float, float]:
        """Bounds over the real domain of the involution and commutation defects,
        read off the table: 0 exactly when every k_j is orthogonal to every c_a.

        On the canonical structure {H, p_a} = -2 pi sum_j v_j (k_j . c_a)
        sin(2 pi k_j . x), and X_{p_a} = (c_a, 0) is constant, so
        DX_H X_{p_a} - DX_{p_a} X_H = (0, (2 pi)^2 sum_j v_j (k_j . c_a)
        cos(2 pi k_j . x) k_j).  Hence, maximized over a,
            |{H, p_a}| <= 2 pi sum_j |v_j| |k_j . c_a|,
            |DX_H X_p - DX_p X_H| <= (2 pi)^2 sum_j |v_j| max_i |k_j,i| |k_j . c_a|.
        The brackets {p_a, p_b} and the commutators of the X_p vanish
        identically.  Returns (bracket bound, residual bound).
        """
        weight = np.abs(self.v)[:, None] * np.abs(self.k @ self.c.T)  # |v_j| |k_j . c_a|
        bracket = 2 * np.pi * weight.sum(axis=0)
        residual = (2 * np.pi) ** 2 * (np.abs(self.k).max(axis=1) @ weight)
        return float(bracket.max(initial=0.0)), float(residual.max(initial=0.0))


@dataclass(frozen=True)
class HamiltonianSystem:
    """The callbacks of a system on R^{2n}, n read off its structure, with its
    domain (whose centre has n entries) and, when generated, its term table
    (whose integral rows number ``n_integrals``)."""

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

    def __post_init__(self):
        if self.domain.y_center.shape != (self.n,):
            raise ValueError(f"the domain centre must have n = {self.n} entries, "
                             f"got shape {self.domain.y_center.shape}")
        if self.table is not None and self.table.c.shape[0] != self.n_integrals:
            raise ValueError(f"n_integrals = {self.n_integrals} but the term table has "
                             f"{self.table.c.shape[0]} integral rows")

    @property
    def n(self) -> int:
        """Half the phase-space dimension, read off the structure's Omega (2n x 2n)."""
        return len(self.geometry.Omega) // 2

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
# verification
# ---------------------------------------------------------------------------


def _sample_points(sys: HamiltonianSystem, count: int, seed: int) -> np.ndarray:
    """``count`` real points of the domain: angles in [0, 1), momenta within
    0.7 y_radius of the centre in each coordinate."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(count, sys.n))
    y = sys.domain.y_center + rng.uniform(-0.7, 0.7, size=(count, sys.n)) * sys.domain.y_radius
    return np.concatenate([x, y], axis=1)


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


def _trig_potential_system(table: TermTable, domain: DomainBox) -> HamiltonianSystem:
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
        n_integrals=c.shape[0], geometry=canonical_structure(n),
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
    # H = |y|^2/2 + eps (cos 2pi x1 + cos 2pi x2 + cos 2pi x1 cos 2pi(x3 - x4)), p = y3 + y4
    "d3_rotors": ([(1.0, (1, 0, 0, 0)), (1.0, (0, 1, 0, 0)), (0.5, (1, 0, 1, -1)),
                   (0.5, (1, 0, -1, 1))], [(0, 0, 1, 1)]),
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
    "d3_rotors":          n = 4, d = 3 rotors with the first integral
                          p = y3 + y4; target quantity selectable as H or p.
    """
    table = builtin_table(name, epsilon)
    domain = DomainBox(np.zeros(table.k.shape[1]) if y_center is None else y_center,
                       y_radius=y_radius, imag_width=imag_width)
    return _trig_potential_system(table, domain)
