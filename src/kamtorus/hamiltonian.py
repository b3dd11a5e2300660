"""Hamiltonian systems with first integrals in involution.

A system bundles analytic callbacks for the Hamiltonian H, its vector field
X_H = Omega^{-1} (DH)^T, a stack of n-d first integrals p (possibly empty),
an optional target conserved quantity c, and the geometric structure
(action a, symplectic matrix Omega, metric G, isomorphism J, and
tilde-Omega = J^T Omega J).  All callbacks are vectorized over a leading
batch of phase-space points and must accept complex input, since the
certification layer samples them on a complexified domain.

Derivative conventions (batch axes elided):
    H() -> scalar            DH() -> (2n,)           [row gradient]
    XH() -> (2n,)            DXH() -> (2n, 2n)       [i,j] = dX_i/dz_j
    D2XH() -> (2n, 2n, 2n)   [i,j,k] = d^2 X_i / dz_j dz_k
    p() -> (m,)              Dp() -> (m, 2n)
    Xp() -> (2n, m)          DXp() -> (2n, m, 2n)    D2Xp() -> (2n, m, 2n, 2n)
    c() -> scalar            Dc() -> (2n,)           D2c() -> (2n, 2n)

Analytic derivatives are mandatory; a finite-difference validator
cross-checks them but is never used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class StructureError(ValueError):
    """A geometric-structure invariant fails at a sampled point."""


class SingularStructureError(ArithmeticError):
    """Omega(z) is singular: the 2-form degenerates at the point."""


# ---------------------------------------------------------------------------
# geometric structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricStructure:
    """Matrix representations of the exact symplectic structure and metric.

    case_tag "III" asserts the compatible (anti-involutive J) case, in which
    the frame coefficient A vanishes identically; "II" is the generic
    metric-compatible case.  ``is_canonical`` marks the standard structure
    (Omega = Omega_0, G = I, J = Omega_0), for which all global structure
    constants are known exactly and the frames treat Omega, G, J and
    tilde-Omega as constants.  Only :func:`canonical_structure` sets it; a
    structure that claims it is checked at a few points on construction.
    """

    dim_n: int
    action_a: Callable
    omega_mat: Callable
    metric_G: Callable
    iso_J: Callable
    tilde_omega: Callable
    case_tag: str = "III"
    is_canonical: bool = False
    d_omega: Callable | None = None
    d_G: Callable | None = None
    d_J: Callable | None = None
    d_tilde_omega: Callable | None = None
    d2_G: Callable | None = None
    d2_J: Callable | None = None
    d2_tilde_omega: Callable | None = None

    def __post_init__(self):
        if not self.is_canonical:
            return
        n2 = 2 * self.dim_n
        omega0 = _omega0(self.dim_n)
        z = np.linspace(-1.0, 1.0, 3 * n2).reshape(3, n2) + np.arange(3)[:, None]
        expect = {"omega_mat": omega0, "metric_G": np.eye(n2), "iso_J": omega0,
                  "tilde_omega": omega0}
        wrong = [name for name, mat in expect.items()
                 if not np.array_equal(getattr(self, name)(z), np.broadcast_to(mat, (3, n2, n2)))]
        if wrong:
            raise StructureError(f"structure claims is_canonical but {wrong} differ from "
                                 "Omega_0, I, Omega_0, Omega_0")

    def check_invariants(self, points: np.ndarray, tol: float = 1e-10, fd_step: float = 1e-6):
        """Verify Omega^T = -Omega, G^T = G > 0, J^T Omega = G at sample points,
        exactness Omega = (Da)^T - Da by finite differences, and the Case III
        compatibility identities when tagged."""
        z = np.asarray(points, dtype=np.float64)
        Om = self.omega_mat(z)
        G = self.metric_G(z)
        J = self.iso_J(z)
        tOm = self.tilde_omega(z)
        errs = {
            "antisymmetry": float(np.max(np.abs(Om + np.swapaxes(Om, -1, -2)))),
            "metric_symmetry": float(np.max(np.abs(G - np.swapaxes(G, -1, -2)))),
            "compatibility_JTO_G": float(np.max(np.abs(np.swapaxes(J, -1, -2) @ Om - G))),
            "tilde_consistency": float(
                np.max(np.abs(tOm - np.swapaxes(J, -1, -2) @ Om @ J))
            ),
        }
        eigmin = float(np.min(np.linalg.eigvalsh(G.real)))
        if eigmin <= 0:
            raise StructureError(f"metric not positive definite: min eigenvalue {eigmin}")
        # exactness by central differences of the action form
        n2 = 2 * self.dim_n
        Da = np.empty(z.shape[:-1] + (n2, n2))
        for j in range(n2):
            h = np.zeros(n2)
            h[j] = fd_step
            Da[..., :, j] = (self.action_a(z + h) - self.action_a(z - h)).real / (2 * fd_step)
        errs["exactness"] = float(np.max(np.abs(np.swapaxes(Da, -1, -2) - Da - Om)))
        if self.case_tag == "III":
            eye = np.eye(n2)
            errs["J_anti_involutive"] = float(np.max(np.abs(J @ J + eye)))
            errs["omega_J_invariant"] = float(
                np.max(np.abs(np.swapaxes(J, -1, -2) @ Om @ J - Om))
            )
            errs["metric_J_invariant"] = float(
                np.max(np.abs(np.swapaxes(J, -1, -2) @ G @ J - G))
            )
        bad = {k: v for k, v in errs.items() if v > (1e-8 if k == "exactness" else tol)}
        if bad:
            raise StructureError(f"structure invariants violated: {bad}")
        return errs


def _omega0(n: int) -> np.ndarray:
    """Omega_0 = [[0, -I], [I, 0]] on R^{2n}."""
    return np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])


def canonical_structure(n: int) -> GeometricStructure:
    """Standard structure on R^{2n}: Omega = Omega_0, G = I, J = Omega_0 (Case III)."""
    omega0 = _omega0(n)
    eye = np.eye(2 * n)

    def _bcast(mat):
        def cb(z):
            z = np.asarray(z)
            return np.broadcast_to(mat, z.shape[:-1] + mat.shape).copy()

        return cb

    def action(z):
        z = np.asarray(z)
        a = np.zeros_like(z)
        a[..., :n] = z[..., n:]
        return a

    zero3 = _bcast(np.zeros((2 * n,) * 3))
    return GeometricStructure(
        dim_n=n,
        action_a=action,
        omega_mat=_bcast(omega0),
        metric_G=_bcast(eye),
        iso_J=_bcast(omega0),
        tilde_omega=_bcast(omega0),
        case_tag="III",
        is_canonical=True,
        d_omega=zero3,
        d_G=zero3,
        d_J=zero3,
        d_tilde_omega=zero3,
        d2_G=_bcast(np.zeros((2 * n,) * 4)),
        d2_J=_bcast(np.zeros((2 * n,) * 4)),
        d2_tilde_omega=_bcast(np.zeros((2 * n,) * 4)),
    )


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
# conserved quantity bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservedQuantity:
    """Target conserved quantity c with first and second derivatives."""

    name: str
    c: Callable
    Dc: Callable
    D2c: Callable


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


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
    params: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        """Torus dimension n - (number of first integrals)."""
        return self.n - self.n_integrals

    def conserved(self, selector="H", custom: ConservedQuantity | None = None,
                  verify: bool = True) -> ConservedQuantity:
        """Select the target conserved quantity: "H", ("p", j), or a custom bundle.

        A custom c is verified in involution with (H, p) at load time (standing
        hypothesis of the frequency-adjusting theorem); pass verify=False only
        for diagnostics.
        """
        if custom is not None:
            if verify:
                worst = verify_involution_of(self, custom)
                if worst > 1e-10:
                    raise ValueError(
                        f"custom conserved quantity fails involution with (H, p): "
                        f"max bracket {worst:.3e}"
                    )
            return custom
        if selector == "H":
            return ConservedQuantity("H", self.H, self.DH, self._d2h())
        if isinstance(selector, (tuple, list)) and selector[0] == "p":
            j = int(selector[1])
            if not 0 <= j < self.n_integrals:
                raise ValueError(f"no first integral with index {j}")

            def c(z):
                return self.p(z)[..., j]

            def Dc(z):
                return self.Dp(z)[..., j, :]

            def D2c(z):
                return self._d2p_component(z, j)

            return ConservedQuantity(f"p{j}", c, Dc, D2c)
        raise ValueError(f"unknown conserved-quantity selector {selector!r}")

    def _d2h(self) -> Callable:
        """Hessian of H from Omega DXH (exact in the canonical case)."""

        def D2H(z):
            z = np.asarray(z)
            Om = self.geometry.omega_mat(z)
            dX = self.DXH(z)
            return Om @ dX

        return D2H

    def _d2p_component(self, z, j: int):
        z = np.asarray(z)
        Om = self.geometry.omega_mat(z)
        dXp = self.DXp(z)[..., :, j, :]
        return Om @ dXp


# ---------------------------------------------------------------------------
# brackets and verification
# ---------------------------------------------------------------------------


def poisson_bracket(Df: Callable, Dg: Callable, omega_mat: Callable, z) -> np.ndarray:
    """{f, g}(z) = Df(z) Omega(z)^{-1} (Dg(z))^T."""
    z = np.asarray(z)
    Om = omega_mat(z)
    dg = np.asarray(Dg(z))
    df = np.asarray(Df(z))
    if abs(np.linalg.det(Om.reshape(-1, *Om.shape[-2:])[0])) < 1e-300:
        raise SingularStructureError("Omega(z) is singular")
    sol = np.linalg.solve(Om, dg[..., :, None])[..., 0]
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
        br = poisson_bracket(sys.DH, lambda w, j=j: sys.Dp(w)[..., j, :], sys.geometry.omega_mat, z)
        details[f"{{H,p{j}}}"] = float(np.max(np.abs(br)))
        worst = max(worst, details[f"{{H,p{j}}}"])
    for i in range(m):
        for j in range(i + 1, m):
            br = poisson_bracket(
                lambda w, i=i: sys.Dp(w)[..., i, :],
                lambda w, j=j: sys.Dp(w)[..., j, :],
                sys.geometry.omega_mat,
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


def verify_involution_of(sys: HamiltonianSystem, quantity: ConservedQuantity,
                         sample_count: int = 100, seed: int = 4) -> float:
    """Max of |{c, H}| and |{c, p_j}| over random domain points."""
    z = _sample_points(sys, sample_count, seed)
    worst = float(np.max(np.abs(
        poisson_bracket(quantity.Dc, sys.DH, sys.geometry.omega_mat, z)
    )))
    for j in range(sys.n_integrals):
        bracket = poisson_bracket(quantity.Dc, lambda w, j=j: sys.Dp(w)[..., j, :],
                                  sys.geometry.omega_mat, z)
        worst = max(worst, float(np.max(np.abs(bracket))))
    return worst


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


def _trig_potential_system(name: str, terms, c: np.ndarray, domain: DomainBox,
                           params: dict) -> HamiltonianSystem:
    """H = |y|^2/2 + V(x), V = sum_j v_j cos(2 pi k_j . x), canonical structure,
    with the linear first integrals p_a = c_a . y.

    Every derivative of V comes from one formula,
        d^r V = sum_j v_j (2 pi)^r cos(2 pi k_j . x + r pi/2) k_j^{(x) r},
    at order r = 0 (H), 1 (DH, XH), 2 (DXH) and 3 (D2XH).
    """
    v = np.array([coef for coef, _ in terms], dtype=float)
    k = np.array([kv for _, kv in terms], dtype=float)
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
        domain=domain, params=params,
    )


# name -> (terms (v_j / epsilon, k_j) of V, rows c_a of the integrals p_a = c_a . y)
_BUILTIN_TERMS = {
    # H = |y|^2/2 + eps (cos 2pi x1 + cos 2pi(x1 - x2))
    "lagrangian_rotors": ([(1.0, (1, 0)), (1.0, (1, -1))], []),
    # H = |y|^2/2 + eps cos(2pi x1)(1 + cos 2pi(x2 - x3)), p = y2 + y3
    "symmetric_rotors": ([(1.0, (1, 0, 0)), (0.5, (1, 1, -1)), (0.5, (1, -1, 1))],
                         [(0, 1, 1)]),
}


def builtin_dims(name: str) -> tuple[int, int]:
    """(n, number of first integrals) of a registered system, read off its term table."""
    if not isinstance(name, str) or name not in _BUILTIN_TERMS:
        raise ValueError(f"unknown system {name!r}; registered: {', '.join(_BUILTIN_TERMS)}")
    terms, integrals = _BUILTIN_TERMS[name]
    return len(terms[0][1]), len(integrals)


def builtin_system(name: str, epsilon: float = 0.0, y_center=None,
                   y_radius: float = 0.5, imag_width: float = 0.2) -> HamiltonianSystem:
    """Registered example systems, generated from their term table.

    "lagrangian_rotors":  n = d = 2 coupled rotors (no extra integrals).
    "symmetric_rotors":   n = 3, d = 2 rotors with translation symmetry,
                          p = y2 + y3; target quantity selectable as H or p.
    """
    n, _ = builtin_dims(name)
    terms, integrals = _BUILTIN_TERMS[name]
    domain = DomainBox(n=n, y_center=np.zeros(n) if y_center is None else y_center,
                       y_radius=y_radius, imag_width=imag_width)
    return _trig_potential_system(name, [(epsilon * coef, kv) for coef, kv in terms],
                                  np.array(integrals, dtype=float).reshape(-1, n), domain,
                                  {"epsilon": epsilon})
