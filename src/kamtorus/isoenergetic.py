"""Generalized iso-energetic quasi-Newton iteration.

Corrects the parameterization and the frequency simultaneously so the torus
lands on a prescribed level c_0 of a target conserved quantity c (the energy,
a component of p, or any verified first integral in involution with both).
The frequency moves only along a fixed ray Theta = {s omega_* : 1 < s <
sigma_omega}, which keeps the Diophantine scan certificate of omega_* valid
for every iterate: the correction is Delta omega = -omega xi^omega, i.e. a
pure rescaling.

The linearized system borders the triangular block system with the scalar
level condition <Tdown xi^N> = eta^omega, Tdown = Dc(K) N, and is solved
through the bordered matrix <T_c> = [[<T>, omega_hat], [<Tdown>, 0]] that
``frames.extended_torsion`` assembles.  The Newton loop, the step and the
block-triangular solve are the ones of ``kamtorus.solver``; an ``IsoTarget``
supplies the level error and the border.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cohomology import DiophantineParams
from .fourier import FourierMap
# not called here; the benchmark tracer counts the modules that hold matmul
from .fourier import matmul  # noqa: F401
from .frames import (FrameBundle, HypothesisError, TorusCandidate, grid_kitchen,
                     invariance_error)
from .solver import (
    Correction,
    Iterate,
    NewtonSchedule,
    newton_correction,
    solve_block_triangular,
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
    def at_midpoint(cls, omega_star, sigma_omega: float) -> "FrequencyRay":
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
            raise HypothesisError("ray", f"scale {new_scale:.6f} leaves (1, {self.sigma_omega}) "
                                         f"after factor {factor:.6f}")
        return FrequencyRay(self.omega_star, self.sigma_omega, new_scale)


def total_error(cand: TorusCandidate, conserved, c0: float) -> Iterate:
    """The invariance error E paired with the level error E^omega = <c o K> - c0
    of the conserved quantity with the selector ``conserved`` ("H" or ("p", j))."""
    kitchen = grid_kitchen(cand, conserved)
    return Iterate(cand, kitchen, invariance_error(cand, kitchen),
                   float(kitchen.c_map.average().real[0, 0]) - c0)


def solve_triangular_iso(eta_L: FourierMap, eta_N: FourierMap, eta_omega: float,
                         frames: FrameBundle, dio: DiophantineParams):
    """The iso solve: the block-triangular system of ``kamtorus.solver``
    bordered by the level row <Tdown xi^N> = eta^omega and the frequency
    column, through the frames' <T_c>.  Needs the frames' extended torsion.
    Returns (xi_L, xi_N, xi_N0, xi_omega, diagnostics)."""
    if frames.Tdown is None:
        raise ValueError("frames were built without the extended torsion")
    return solve_block_triangular(eta_L, eta_N, frames.T, frames.avgTc, dio,
                                  border=(frames.Tdown, eta_omega))


# ---------------------------------------------------------------------------
# the iso target and the iso step of the shared iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoTarget:
    """The level <c o K> = c0 that iso mode steers the torus onto; ``conserved``
    is the selector of c: "H", or ("p", j) for p_j."""

    conserved: str | tuple
    c0: float

    def evaluate(self, cand: TorusCandidate, ray: FrequencyRay) -> Iterate:
        """The iterate at ``cand`` on ``ray``, with its invariance and level errors."""
        return replace(total_error(cand, self.conserved, self.c0), ray=ray)

    def solve(self, eta_L: FourierMap, eta_N: FourierMap, eta_omega: float,
              frames: FrameBundle, dio: DiophantineParams):
        """The bordered triangular solve of the shared Newton step."""
        return solve_triangular_iso(eta_L, eta_N, eta_omega, frames, dio)

    def step(self, it: Iterate, schedule: NewtonSchedule, delta: float,
             contraction_ledger=None) -> Correction:
        """One iso Newton step of the shared loop, through :func:`newton_step_iso`."""
        return newton_step_iso(it, self, schedule, delta, contraction_ledger)


def newton_step_iso(it: Iterate, target: IsoTarget, schedule: NewtonSchedule, delta: float,
                    contraction_ledger=None) -> Correction:
    """One simultaneous (K, omega) correction of ``it`` towards the level of
    ``target`` (``kamtorus.solver.newton_correction``); its ``evaluate()`` gives
    the next Iterate and the step's log record."""
    return newton_correction(it, schedule, delta, target, contraction_ledger)
