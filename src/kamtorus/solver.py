"""Quasi-Newton iteration for invariant tori, in ordinary and iso mode.

One step solves the block-triangular cohomological system in the adapted
frame,

    [[O, T], [O, O]] xi + L_omega xi = eta,
    eta^L = -N^T (Omega o K) E,   eta^N = L^T (Omega o K) E,

with the phase fix <xi^L> = 0, and corrects K <- K + P xi.  The iteration
shrinks analyticity strips on the schedule

    delta_s = delta_0 / a1^s,   rho_{s+1} = rho_s - 3 delta_s,
    delta_0 = rho_0 / a3,       a3 = 3 a1 a2 / ((a1-1)(a2-1)),

so the final strip never drops below rho_inf = rho_0 / a2.  In ordinary mode
the frequency is never modified.  Iso mode (an ``IsoTarget`` from
``kamtorus.isoenergetic``) runs the same loop and step, and also moves the
frequency along a ray so the torus lands on a prescribed conserved level; it
differs only in the level error and the border of the linear solve.  Error norms
are Fourier majorants of the truncated model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .cohomology import DiophantineParams, solve_cohomological
from .fourier import FourierMap, matmul
from .frames import (
    FrameBundle,
    FrameRankError,
    GridKitchen,
    SingularGramError,
    TorusCandidate,
    TwistDegeneracyError,
    build_frames,
    grid_kitchen,
    invariance_error,
)

if TYPE_CHECKING:
    from .isoenergetic import FrequencyRay, IsoTarget

COMPAT_TOL = 1e-10  # largest <eta^N> accepted, relative to the size of eta
SLOPE_FLOOR_FACTOR = 30.0  # contraction pairs stay above this multiple of the final error
SLOPE_CAP = 1e-1  # contraction pairs start below this error (the asymptotic regime)


class CompatibilityError(ArithmeticError):
    """The solvability condition <eta^N> = 0 fails beyond tolerance."""


class HypothesisError(RuntimeError):
    """A named smallness/non-degeneracy hypothesis fails at this step."""

    def __init__(self, name: str, detail: str):
        self.hypothesis = name
        super().__init__(f"hypothesis {name} failed: {detail}")


class RayExitError(RuntimeError):
    """The corrected frequency leaves the admissible ray (iso mode)."""


@dataclass(frozen=True)
class NewtonSchedule:
    """Strip-shrinking schedule and stopping policy of the iteration.

    ``band_refinement`` enables the optional tail policy: when the outer-half
    modes carry more than ``tail_threshold`` of ||E||, the bands double before
    the next step (the event is reported in the log).
    """

    a1: float = 2.0
    a2: float = 2.0
    c_n: float | None = None  # smallness scale; None = max(1, ||X_H o K||_rho) at start
    max_iters: int = 20
    stop_tol: float = 1e-12
    rho0: float = 0.1
    band_refinement: bool = False
    tail_threshold: float = 0.1

    def __post_init__(self):
        if self.a1 <= 1 or self.a2 <= 1:
            raise ValueError("a1 and a2 must be > 1")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")

    @property
    def a3(self) -> float:
        return 3.0 * self.a1 * self.a2 / ((self.a1 - 1.0) * (self.a2 - 1.0))

    @property
    def delta0(self) -> float:
        return self.rho0 / self.a3

    def delta(self, s: int) -> float:
        return self.delta0 / self.a1**s


def resolve_smallness_scale(schedule: NewtonSchedule, kitchen: GridKitchen) -> float:
    """The auxiliary smallness scale: user override or max(1, ||X_H o K||_rho)."""
    if schedule.c_n is not None:
        return float(schedule.c_n)
    return max(1.0, kitchen.XH.norm(kitchen.cand.rho).value)


def tail_fraction(f, rho: float) -> float:
    """Share of the majorant norm carried by the outer half of the index box."""
    total = f.norm(rho).value
    if total == 0.0:
        return 0.0
    inner = f.truncate(tuple(n // 2 for n in f.bands))
    return max(0.0, 1.0 - inner.norm(rho).value / total)


# ---------------------------------------------------------------------------
# block-triangular solve
# ---------------------------------------------------------------------------


def solve_block_triangular(eta_L: FourierMap, eta_N: FourierMap, T: FourierMap,
                           avg: np.ndarray, dio: DiophantineParams, border=None):
    """Solve [[O,T],[O,O]] xi + L_omega xi = eta for xi = (xi^L, xi^N), <xi^L> = 0:

        xi^N = xi^N_0 + R_omega(eta^N),
        xi^N_0 = <T>^{-1} <eta^L - T R_omega(eta^N)>,
        xi^L = R_omega(eta^L - T xi^N),

    with ``avg`` = <T>.  Iso mode borders the system: ``border = (Tdown,
    eta_omega)`` adds the level condition <Tdown xi^N> = eta^omega and the
    unknown xi^omega, whose column omega_hat = (omega, 0_{n-d}) enters the
    xi^L equation as omega_hat xi^omega.  Then ``avg`` is the bordered
    <T_c> = [[<T>, omega_hat], [<Tdown>, 0]] and

        (xi^N_0, xi^omega) = <T_c>^{-1} (<eta^L - T R(eta^N)>, eta^omega - <Tdown R(eta^N)>).

    Returns (xi_L, xi_N, xi_N0, xi_omega, diagnostics), with xi_omega None
    without a border.  Requires <eta^N> ~ 0 and a nonsingular ``avg``.
    """
    bands = eta_L.bands
    n = eta_L.shape[0]
    sizes = [1.0, eta_L.norm(0.0).value, eta_N.norm(0.0).value]
    if border is not None:
        Tdown, eta_omega = border
        sizes.append(abs(eta_omega))
    scale = max(sizes)
    compat = float(np.max(np.abs(eta_N.average())))
    if compat > COMPAT_TOL * scale:
        raise CompatibilityError(
            f"<eta^N> = {compat:.3e} exceeds {COMPAT_TOL:.1e} x scale {scale:.3e}"
        )
    R_etaN = solve_cohomological(eta_N, dio)
    T_RetaN = matmul(T, R_etaN, out_bands=bands)
    rhs = (eta_L - T_RetaN).average().real
    if border is not None:
        Tdown_RetaN = matmul(Tdown, R_etaN, out_bands=bands)
        rhs = np.vstack([rhs, eta_omega - Tdown_RetaN.average().real])
    try:
        sol = np.linalg.solve(avg, rhs)
    except np.linalg.LinAlgError as exc:
        raise TwistDegeneracyError("averaged torsion singular in triangular solve"
                                   if border is None else
                                   "averaged extended torsion singular") from exc
    xi_N0 = sol[:n]
    xi_N = R_etaN.add_constant(xi_N0)
    T_xiN = T_RetaN + T.matmul_constant(xi_N0)  # T.(const) is exact in coefficients
    # xi^L, and the plug-back residuals of the truncated system
    if border is None:
        xi_omega = None
        xi_L = solve_cohomological(eta_L - T_xiN, dio)
        res_L = xi_L.lie(dio.omega) + T_xiN - eta_L
    else:
        xi_omega = float(sol[n, 0])
        omega_hat = np.concatenate([dio.omega, np.zeros(n - eta_L.d)])
        freq = FourierMap.constant(omega_hat[:, None] * xi_omega, bands)
        xi_L = solve_cohomological(eta_L - T_xiN - freq, dio)
        res_L = xi_L.lie(dio.omega) + T_xiN + freq - eta_L
    res_N = xi_N.lie(dio.omega) - eta_N
    res_N = res_N.add_constant(eta_N.average())  # the solvable part excludes <eta^N>
    residuals = [res_L.norm(0.0).value, res_N.norm(0.0).value]
    diag = {"compat": compat, "xi_N0": xi_N0}
    if border is not None:
        level = (Tdown_RetaN + Tdown.matmul_constant(xi_N0)).average().real[0, 0]
        residuals.append(abs(float(level) - eta_omega))
        diag["xi_omega"] = xi_omega
    diag["residual"] = max(residuals)
    return xi_L, xi_N, xi_N0, xi_omega, diag


def solve_triangular(eta_L: FourierMap, eta_N: FourierMap, frames: FrameBundle,
                     dio: DiophantineParams):
    """The ordinary solve: the block-triangular system with the frames' T and
    <T>, without a border.  Returns (xi_L, xi_N, xi_N0, diagnostics)."""
    xi_L, xi_N, xi_N0, _, diag = solve_block_triangular(eta_L, eta_N, frames.T, frames.avgT, dio)
    return xi_L, xi_N, xi_N0, diag


# ---------------------------------------------------------------------------
# the iterate and one Newton step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Iterate:
    """A candidate with its grid kitchen and invariance error E.

    In iso mode it also carries the level error E^omega = <c o K> - c0 and
    the frequency ray that the candidate's omega lies on.
    """

    cand: TorusCandidate
    kitchen: GridKitchen
    E: FourierMap
    E_omega: float | None = None
    ray: FrequencyRay | None = None

    def combined_norm(self, rho: float) -> float:
        """The stopping norm: ||E||_rho, or max(||E||_rho, |E^omega|) in iso mode."""
        err = self.E.norm(rho).value
        return err if self.E_omega is None else max(err, abs(self.E_omega))


def evaluate(cand: TorusCandidate, target: IsoTarget | None = None,
             ray: FrequencyRay | None = None) -> Iterate:
    """The iterate at ``cand``: its grid kitchen and error (and level error in iso mode).

    This and ``IsoTarget.evaluate`` are where a candidate's kitchen is built;
    everything downstream of the iterate reads ``it.kitchen``.
    """
    if target is not None:
        return target.evaluate(cand, ray)
    kitchen = grid_kitchen(cand)
    return Iterate(cand, kitchen, invariance_error(cand, kitchen))


@dataclass
class StepDiagnostics:
    step: int
    rho: float
    delta: float
    err_before: float
    err_after: float
    delta_k_norm: float
    solve_residual: float
    compat: float
    avg_xi_L: float
    frame_norms: dict = field(default_factory=dict)
    hypothesis_margins: dict = field(default_factory=dict)
    contraction_bound: float | None = None
    contraction_ok: bool | None = None
    # iso mode only
    err_omega_before: float | None = None
    err_omega_after: float | None = None
    xi_omega: float | None = None
    omega_after: np.ndarray | None = None
    ray_margin: float | None = None


def newton_correction(it: Iterate, schedule: NewtonSchedule, delta: float,
                      step_index: int = 0, target: IsoTarget | None = None,
                      frames: FrameBundle | None = None, contraction_ledger=None):
    """One quasi-Newton correction of ``it``; returns (next Iterate, StepDiagnostics).

    With an iso ``target`` the frequency moves too, along ``it.ray``, through
    the bordered solve.  The next candidate lives on the strip rho - 3*delta.
    ``contraction_ledger`` is as in iterate_newton.  Raises HypothesisError
    (named), CompatibilityError, TwistDegeneracyError, FrameRankError,
    SingularGramError, RayExitError or DomainEscapeError on failure.
    """
    cand, kk = it.cand, it.kitchen
    rho = cand.rho
    if not 0 < 3 * delta < rho:
        raise ValueError(f"need 0 < 3*delta < rho, got delta={delta}, rho={rho}")
    err = it.combined_norm(rho)
    c_small = resolve_smallness_scale(schedule, kk)
    if err / delta >= c_small:
        e = "E" if target is None else "E_c"
        raise HypothesisError(
            f"smallness ||{e}||/delta < c",
            f"||{e}||_rho/delta = {err / delta:.3e} >= {c_small:.3e}",
        )
    fr = frames if frames is not None else build_frames(cand, kk)

    Om_E = matmul(kk.Omega, it.E, out_bands=cand.bands)
    eta_L = -matmul(fr.N.T, Om_E, out_bands=cand.bands)
    eta_N = matmul(fr.L.T, Om_E, out_bands=cand.bands)
    if target is None:
        xi_L, xi_N, _, sdiag = solve_triangular(eta_L, eta_N, fr, cand.dio)
        ray, moved = None, {}
    else:
        xi_L, xi_N, _, xi_omega, sdiag = target.solve(eta_L, eta_N, -it.E_omega, fr, cand.dio)
        ray = it.ray.rescaled(1.0 - xi_omega)  # raises RayExitError at the boundary
        # every ray point s*omega_* with s > 1 inherits the base scan certificate
        moved = {"omega": ray.omega, "dio": DiophantineParams(
            ray.omega, cand.dio.gamma, cand.dio.tau, cand.dio.scan_limit, check=False)}

    delta_K = matmul(fr.L, xi_L, out_bands=cand.bands) + matmul(fr.N, xi_N, out_bands=cand.bands)
    new_cand = cand.with_updates(k_per=cand.k_per + delta_K, rho=rho - 3 * delta, **moved)
    margin = new_cand.domain_margin()
    if margin <= 0:
        raise HypothesisError("domain", f"corrected torus leaves the domain (margin {margin:.3e})")

    nxt = evaluate(new_cand, target, ray)
    mid_rho = max(rho - 2 * delta, new_cand.rho)
    margins = {"domain_margin": margin, "smallness": c_small - err / delta}
    iso = {}
    if ray is not None:
        iso = {"err_omega_before": it.E_omega, "err_omega_after": nxt.E_omega,
               "xi_omega": xi_omega, "omega_after": ray.omega,
               "ray_margin": ray.boundary_margin()}
        margins["ray_margin"] = iso["ray_margin"]
    diag = StepDiagnostics(
        step=step_index,
        rho=rho,
        delta=delta,
        err_before=it.E.norm(rho).value,
        err_after=nxt.E.norm(mid_rho).value,
        delta_k_norm=delta_K.norm(mid_rho).value,
        solve_residual=sdiag["residual"],
        compat=sdiag["compat"],
        avg_xi_L=float(np.max(np.abs(xi_L.average()))),
        frame_norms=fr.norm_table(rho, delta),
        hypothesis_margins=margins,
        **iso,
    )
    if contraction_ledger is not None:
        c_e = contraction_ledger(it, fr, delta)
        gamma, tau = cand.dio.gamma, cand.dio.tau
        diag.contraction_bound = c_e / (gamma**4 * delta ** (4 * tau)) * err**2
        measured = diag.err_after if target is None else max(
            diag.err_after, abs(diag.err_omega_after))
        diag.contraction_ok = bool(measured <= diag.contraction_bound)
    return nxt, diag


def newton_step(cand: TorusCandidate, schedule: NewtonSchedule, delta: float,
                step_index: int = 0, frames: FrameBundle | None = None):
    """One ordinary quasi-Newton correction; returns (new candidate, StepDiagnostics)."""
    nxt, diag = newton_correction(evaluate(cand), schedule, delta, step_index,
                                  frames=frames)
    return nxt.cand, diag


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    converged: bool
    reason: str
    candidate: TorusCandidate
    final_error: float
    steps: list
    log: list
    # iso mode only
    ray: FrequencyRay | None = None
    omega_initial: np.ndarray | None = None
    omega_final: np.ndarray | None = None
    c0: float | None = None
    c_final: float | None = None


def iterate_newton(cand: TorusCandidate, schedule: NewtonSchedule,
                   target: IsoTarget | None = None, ray: FrequencyRay | None = None,
                   contraction_ledger=None) -> SolveResult:
    """Iterate newton_correction on the shrinking-strip schedule until the
    error is <= stop_tol: ||E|| in ordinary mode, max(||E||, |E^omega|) in iso
    mode (``target`` given), where the frequency moves along ``ray``.  The ray
    direction is immutable: every iterate's omega is scale * the same omega_star.

    ``contraction_ledger`` is an optional callable (it, frames, delta) ->
    C_E evaluating the per-step quadratic-contraction constant of the iterate
    ``it``; when given, the literal inequality ||E_{s+1}|| <= C_E/(gamma^4
    delta_s^{4 tau}) ||E_s||^2 is recorded in the step diagnostics.

    Failure modes: two consecutive error increases (divergence), any named
    hypothesis failure, a frame that loses rank or a singular Gram matrix,
    or the iteration cap.
    """
    if abs(cand.rho - schedule.rho0) > 1e-12 * max(1.0, schedule.rho0):
        cand = cand.with_updates(rho=schedule.rho0)
    log: list = []
    steps: list = []
    it = evaluate(cand, target, ray)
    increases = 0
    prev_err = None

    def finish(converged: bool, reason: str, err: float) -> SolveResult:
        iso = {} if target is None else {
            "ray": it.ray, "omega_initial": ray.omega, "omega_final": it.cand.omega.copy(),
            "c0": target.c0, "c_final": target.c0 + it.E_omega}
        return SolveResult(converged, reason, it.cand, err, steps, log, **iso)

    for s in itertools.count():
        rho = it.cand.rho
        err = it.combined_norm(rho)
        rec = {"step": s, "rho": rho, "delta": schedule.delta(s), "err": err,
               "tail_fraction": tail_fraction(it.E, rho), "bands": list(it.cand.bands)}
        if target is not None:
            rec.update(err_inv=it.E.norm(rho).value, err_omega=it.E_omega,
                       omega=it.cand.omega.tolist(), ray_scale=it.ray.scale)
        log.append(rec)
        if err <= schedule.stop_tol:
            return finish(True, f"converged in {s} steps", err)
        if schedule.band_refinement and rec["tail_fraction"] > schedule.tail_threshold:
            new_bands = tuple(2 * n for n in it.cand.bands)
            padded = it.cand.k_per.pad_bands(new_bands)
            it = evaluate(it.cand.with_updates(k_per=padded), target, it.ray)
            rec["band_refined_to"] = list(new_bands)
        if prev_err is not None:
            increases = increases + 1 if err > prev_err else 0
            if increases >= 2:
                return finish(False, "divergence: error grew twice consecutively", err)
        if s >= schedule.max_iters:
            return finish(False, f"iteration cap {schedule.max_iters} reached", err)
        try:
            nxt, diag = newton_correction(it, schedule, schedule.delta(s), s, target,
                                          contraction_ledger=contraction_ledger)
        except (HypothesisError, CompatibilityError, TwistDegeneracyError, FrameRankError,
                SingularGramError, RayExitError) as exc:
            return finish(False, f"step {s}: {exc}", err)
        rec.update({
            "err_after": diag.err_after,
            "delta_k": diag.delta_k_norm,
            "solve_residual": diag.solve_residual,
            "compat": diag.compat,
            "contraction_bound": diag.contraction_bound,
            "contraction_ok": diag.contraction_ok,
            "frame_norms": diag.frame_norms,
            "hypothesis_margins": diag.hypothesis_margins,
        })
        if target is not None:
            rec.update(err_omega_after=diag.err_omega_after, xi_omega=diag.xi_omega,
                       ray_margin=diag.ray_margin)
        steps.append(diag)
        prev_err = err
        it = nxt


def contraction_slope(log: list) -> float | None:
    """Contraction exponent log||E_{s+1}|| / log||E_s|| averaged over the
    pre-roundoff regime.

    Pairs qualify when the incoming error is below SLOPE_CAP (asymptotic regime)
    and the outgoing error stays above SLOPE_FLOOR_FACTOR x the final error (not yet
    contaminated by the truncation/roundoff floor).  Returns None when no pair
    qualifies.
    """
    errs = [rec["err"] for rec in log]
    if len(errs) < 3:
        return None
    floor = max(errs[-1], 1e-300) * SLOPE_FLOOR_FACTOR
    ratios = []
    for a, b in zip(errs, errs[1:]):
        if floor < a < SLOPE_CAP and b > floor and b < a:
            ratios.append(np.log(b) / np.log(a))
    if not ratios:
        return None
    return float(np.mean(ratios))
