"""Generalized iso-energetic quasi-Newton iteration.

Corrects the parameterization and the frequency simultaneously so the torus
lands on a prescribed level c_0 of a target conserved quantity c (the energy,
a component of p, or any verified first integral in involution with both).
The frequency moves only along a fixed ray Theta = {s omega_* : 1 < s <
sigma_omega}, which keeps the Diophantine scan certificate of omega_* valid
for every iterate: the correction is Delta omega = -omega xi^omega, i.e. a
pure rescaling.

The linearized system augments the triangular block system with the scalar
level condition <Tdown xi^N> = eta^omega, Tdown = Dc(K) N, solved through the
bordered matrix <T_c> = [[<T>, omega_hat], [<Tdown>, 0]].  The Newton loop and
step are the ones of ``kamtorus.solver``; an ``IsoTarget`` supplies the level
error and the bordered solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cohomology import DiophantineParams, solve_cohomological
from .fourier import FourierMap, matmul
from .frames import (
    FrameBundle,
    TorusCandidate,
    TwistDegeneracyError,
    grid_kitchen,
    invariance_error,
)
from .hamiltonian import ConservedQuantity
from .solver import (
    COMPAT_TOL,
    CompatibilityError,
    Iterate,
    NewtonSchedule,
    RayExitError,
    newton_correction,
)


@dataclass(frozen=True)
class FrequencyRay:
    """Ray Theta = {s omega_* : 1 < s < sigma_omega} with the current scale."""

    omega_star: np.ndarray
    sigma_omega: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "omega_star", np.asarray(self.omega_star, dtype=np.float64))
        if self.sigma_omega <= 1:
            raise ValueError("sigma_omega must be > 1")
        if not 1.0 < self.scale < self.sigma_omega:
            raise ValueError(f"scale {self.scale} outside (1, {self.sigma_omega})")

    @classmethod
    def at_midpoint(cls, omega_star, sigma_omega: float = 2.0) -> "FrequencyRay":
        """Start at scale sqrt(sigma_omega), maximizing the initial boundary margin."""
        return cls(omega_star, sigma_omega, float(np.sqrt(sigma_omega)))

    @property
    def omega(self) -> np.ndarray:
        return self.scale * self.omega_star

    def boundary_margin(self) -> float:
        """Sup-norm distance from omega to the ray endpoints."""
        return float(
            min(self.scale - 1.0, self.sigma_omega - self.scale) * np.max(np.abs(self.omega_star))
        )

    def rescaled(self, factor: float) -> "FrequencyRay":
        new_scale = self.scale * factor
        if not 1.0 < new_scale < self.sigma_omega:
            raise RayExitError(
                f"scale {new_scale:.6f} leaves (1, {self.sigma_omega}) after factor {factor:.6f}"
            )
        return FrequencyRay(self.omega_star, self.sigma_omega, new_scale)


def total_error(cand: TorusCandidate, conserved: ConservedQuantity, c0: float) -> Iterate:
    """The invariance error E paired with the level error E^omega = <c o K> - c0."""
    kitchen = grid_kitchen(cand, conserved)
    return Iterate(cand, kitchen, invariance_error(cand, kitchen),
                   float(kitchen.c_map.average().real[0, 0]) - c0)


# ---------------------------------------------------------------------------
# bordered triangular solve
# ---------------------------------------------------------------------------


def solve_triangular_iso(eta_L: FourierMap, eta_N: FourierMap, eta_omega: float,
                         T: FourierMap, Tdown: FourierMap, dio: DiophantineParams,
                         xi_L0: np.ndarray | None = None):
    """Solve the frequency-augmented triangular system.

        xi^N = xi^N_0 + R_omega(eta^N),
        (xi^N_0, xi^omega) = <T_c>^{-1} ( <eta^L - T R(eta^N)> ,
                                          eta^omega - <Tdown R(eta^N)> ),
        xi^L = xi^L_0 + R_omega(eta^L - T xi^N),

    with the constant row forced by the scalar condition <Tdown xi^N> =
    eta^omega and the zero-average condition of the xi^L equation.  Returns
    (xi_L, xi_N, xi_N0, xi_omega, diagnostics).
    """
    bands = eta_L.bands
    n = eta_L.shape[0]
    d = eta_L.d
    scale = max(1.0, eta_L.norm(0.0).value, eta_N.norm(0.0).value, abs(eta_omega))
    compat = float(np.max(np.abs(eta_N.average())))
    if compat > COMPAT_TOL * scale:
        raise CompatibilityError(
            f"<eta^N> = {compat:.3e} exceeds {COMPAT_TOL:.1e} x scale {scale:.3e}"
        )
    avgT = T.average().real
    avgTdown = Tdown.average().real.reshape(n)
    omega_hat = np.concatenate([dio.omega, np.zeros(n - d)])
    Tc = np.zeros((n + 1, n + 1))
    Tc[:n, :n] = avgT
    Tc[:n, n] = omega_hat
    Tc[n, :n] = avgTdown

    R_etaN = solve_cohomological(eta_N, dio)
    T_RetaN = matmul(T, R_etaN, out_bands=bands)
    Tdown_RetaN = matmul(Tdown, R_etaN, out_bands=bands)
    rhs = np.zeros(n + 1)
    rhs[:n] = (eta_L - T_RetaN).average().real[:, 0]
    rhs[n] = eta_omega - float(Tdown_RetaN.average().real[0, 0])
    try:
        sol = np.linalg.solve(Tc, rhs)
    except np.linalg.LinAlgError as exc:
        raise TwistDegeneracyError("averaged extended torsion singular") from exc
    xi_N0 = sol[:n].reshape(n, 1)
    xi_omega = float(sol[n])

    xi_N = R_etaN.add_constant(xi_N0)
    T_xiN = T_RetaN + T.matmul_constant(xi_N0)
    omega_hat_map = FourierMap.constant(omega_hat[:, None] * xi_omega, bands)
    xi_L = solve_cohomological(eta_L - T_xiN - omega_hat_map, dio)
    if xi_L0 is not None:
        xi_L = xi_L.add_constant(np.asarray(xi_L0, dtype=float).reshape(n, 1))

    res_L = xi_L.lie(dio.omega) + T_xiN + omega_hat_map - eta_L
    res_N = xi_N.lie(dio.omega) - eta_N
    res_N = res_N.add_constant(eta_N.average())
    res_omega = abs(
        float((Tdown_RetaN + Tdown.matmul_constant(xi_N0)).average().real[0, 0]) - eta_omega
    )
    residual = max(res_L.norm(0.0).value, res_N.norm(0.0).value, res_omega)
    diag = {"residual": residual, "compat": compat, "xi_N0": xi_N0, "xi_omega": xi_omega}
    return xi_L, xi_N, xi_N0, xi_omega, diag


# ---------------------------------------------------------------------------
# the iso target and the iso step of the shared iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoTarget:
    """The level <c o K> = c0 that iso mode steers the torus onto."""

    conserved: ConservedQuantity
    c0: float

    def evaluate(self, cand: TorusCandidate, ray: FrequencyRay) -> Iterate:
        """The iterate at ``cand`` on ``ray``, with its invariance and level errors."""
        return replace(total_error(cand, self.conserved, self.c0), ray=ray)

    def solve(self, eta_L: FourierMap, eta_N: FourierMap, eta_omega: float,
              frames: FrameBundle, dio: DiophantineParams):
        """The bordered triangular solve; needs the frames' extended torsion."""
        if frames.Tdown is None:
            raise ValueError("frames were built without the extended torsion")
        return solve_triangular_iso(eta_L, eta_N, eta_omega, frames.T, frames.Tdown, dio)


def newton_step_iso(cand: TorusCandidate, ray: FrequencyRay, conserved: ConservedQuantity,
                    c0: float, schedule: NewtonSchedule, delta: float, step_index: int = 0,
                    frames: FrameBundle | None = None):
    """One simultaneous (K, omega) correction; returns
    (new candidate, new ray, StepDiagnostics)."""
    if not np.allclose(ray.omega, cand.omega, rtol=0, atol=1e-300):
        raise ValueError("candidate frequency must equal ray.omega exactly")
    target = IsoTarget(conserved, c0)
    nxt, diag = newton_correction(target.evaluate(cand, ray), schedule, delta, step_index,
                                  target, frames)
    return nxt.cand, nxt.ray, diag
