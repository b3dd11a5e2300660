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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .cohomology import DiophantineParams, solve_cohomological
from .fourier import FourierMap, matmul
from .frames import (
    FrameBundle,
    GridKitchen,
    HypothesisError,
    TorusCandidate,
    build_frames,
    grid_kitchen,
    invariance_error,
)

if TYPE_CHECKING:
    from .isoenergetic import FrequencyRay, IsoTarget

COMPAT_TOL = 1e-10  # largest <eta^N> accepted, relative to the size of eta
SLOPE_FLOOR_FACTOR = 30.0  # contraction pairs stay above this multiple of the final error
SLOPE_CAP = 1e-1  # contraction pairs start below this error (the asymptotic regime)


@dataclass(frozen=True)
class NewtonSchedule:
    """Strip-shrinking schedule and stopping policy of the iteration.  Every
    field is given; their defaults are ``cli.RunConfig``'s alone."""

    a1: float
    a2: float
    c_n: float | None  # smallness scale; None = max(1, ||X_H o K||_rho) at start
    max_iters: int
    stop_tol: float
    rho0: float

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
        try:
            return self.delta0 / self.a1**s
        except OverflowError:  # a1**s is past the double range, so delta_s is below it
            return 0.0


def resolve_smallness_scale(schedule: NewtonSchedule, it: Iterate) -> float:
    """The auxiliary smallness scale: user override or max(1, ||X_H o K||_rho)
    of the iterate ``it``."""
    if schedule.c_n is not None:
        return float(schedule.c_n)
    return max(1.0, it.kitchen.XH.norm(it.cand.rho))


def tail_fraction(f, rho: float) -> float:
    """Share of the majorant norm carried by the outer half of the index box."""
    total = f.norm(rho)
    if total == 0.0:
        return 0.0
    inner = f.truncate(tuple(n // 2 for n in f.bands))
    return max(0.0, 1.0 - inner.norm(rho) / total)


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
    n = eta_L.shape[0]
    sizes = [1.0, eta_L.norm(0.0), eta_N.norm(0.0)]
    if border is not None:
        Tdown, eta_omega = border
        sizes.append(abs(eta_omega))
    scale = max(sizes)
    compat = float(np.max(np.abs(eta_N.average())))
    if compat > COMPAT_TOL * scale:
        raise HypothesisError(
            "compatibility", f"<eta^N> = {compat:.3e} exceeds {COMPAT_TOL:.1e} x scale {scale:.3e}"
        )
    R_etaN = solve_cohomological(eta_N, dio)
    T_RetaN = matmul(T, R_etaN)
    rhs = (eta_L - T_RetaN).average().real
    if border is not None:
        Tdown_RetaN = matmul(Tdown, R_etaN)
        rhs = np.vstack([rhs, eta_omega - Tdown_RetaN.average().real])
    try:
        sol = np.linalg.solve(avg, rhs)
    except np.linalg.LinAlgError as exc:
        raise HypothesisError("twist", "averaged torsion singular in triangular solve"
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
        freq = FourierMap.constant(omega_hat[:, None] * xi_omega, eta_L.bands)
        xi_L = solve_cohomological(eta_L - T_xiN - freq, dio)
        res_L = xi_L.lie(dio.omega) + T_xiN + freq - eta_L
    res_N = xi_N.lie(dio.omega) - eta_N
    res_N = res_N.add_constant(eta_N.average())  # the solvable part excludes <eta^N>
    residuals = [res_L.norm(0.0), res_N.norm(0.0)]
    if border is not None:
        level = (Tdown_RetaN + Tdown.matmul_constant(xi_N0)).average().real[0, 0]
        residuals.append(abs(float(level) - eta_omega))
    return xi_L, xi_N, xi_N0, xi_omega, {"compat": compat, "residual": max(residuals)}


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
        """The stopping norm: ||E||_rho, or max(||E||_rho, |E^omega|) in iso mode
        (NaN when either is NaN)."""
        err = self.E.norm(rho)
        return err if self.E_omega is None else float(np.maximum(err, abs(self.E_omega)))


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


@dataclass(frozen=True)
class Correction:
    """A Newton step's corrected candidate before its kitchen is built: its ray
    (None in ordinary mode), the middle strip its error is measured on, the
    step's log fields that read the old iterate's frames, and the iso target
    (None in ordinary mode)."""

    cand: TorusCandidate
    ray: FrequencyRay | None
    mid_rho: float
    record: dict
    target: IsoTarget | None = None

    def evaluate(self) -> tuple[Iterate, dict]:
        """The corrected candidate's iterate (:func:`evaluate`) and the step's
        whole log record: the fields of ``record``, the error after the step on
        the middle strip, the contraction check and, in iso mode, the level
        error after the step.

        It raises no HypothesisError: the one hypothesis that evaluating a
        candidate checks is its domain margin, which :func:`newton_correction`
        has already checked for this candidate.
        """
        nxt = evaluate(self.cand, self.target, self.ray)
        err_after = nxt.E.norm(self.mid_rho)
        rec = {"err_after": err_after, **self.record}
        if self.ray is not None:
            rec["err_omega_after"] = nxt.E_omega
        if rec["contraction_bound"] is not None:
            measured = err_after if self.ray is None else np.maximum(err_after, abs(nxt.E_omega))
            rec["contraction_ok"] = bool(measured <= rec["contraction_bound"])
        return nxt, rec


def newton_correction(it: Iterate, schedule: NewtonSchedule, delta: float,
                      target: IsoTarget | None = None, contraction_ledger=None) -> Correction:
    """One quasi-Newton correction of ``it``, not yet evaluated.

    The correction's record holds the step's keys of the iteration log that
    read the frames: the correction's norm on the middle strip, the solve's
    residual and <eta^N>, the frame norms, the hypothesis margins and the
    contraction bound; in iso mode also xi^omega and the ray margin.
    :meth:`Correction.evaluate` adds the error after the step.  With an iso
    ``target`` the frequency moves too, along ``it.ray``, through the bordered
    solve.  The next candidate lives on the strip rho - 3*delta.
    ``contraction_ledger`` is as in iterate_newton.  The frames and the step's
    products are released when this returns, and the correction holds nothing
    of ``it``, so a caller that drops ``it`` before it evaluates the correction
    keeps one kitchen alive at a time.  A failure raises HypothesisError, named
    after the hypothesis that fails.
    """
    cand = it.cand
    rho = cand.rho
    if not 0 < 3 * delta < rho:
        raise HypothesisError("strip", f"need 0 < 3*delta < rho, got delta={delta}, rho={rho}")
    err = it.combined_norm(rho)
    c_small = resolve_smallness_scale(schedule, it)
    if err / delta >= c_small:
        e = "E" if target is None else "E_c"
        raise HypothesisError(
            f"smallness ||{e}||/delta < c",
            f"||{e}||_rho/delta = {err / delta:.3e} >= {c_small:.3e}",
        )
    fr = build_frames(cand, it.kitchen)

    Om_E = it.E.rmatmul_constant(cand.system.geometry.Omega)
    eta_L = -matmul(fr.N.T, Om_E)
    eta_N = matmul(fr.L.T, Om_E)
    if target is None:
        xi_L, xi_N, _, sdiag = solve_triangular(eta_L, eta_N, fr, cand.dio)
        ray, dio = None, cand.dio
    else:
        xi_L, xi_N, _, xi_omega, sdiag = target.solve(eta_L, eta_N, -it.E_omega, fr, cand.dio)
        ray = it.ray.rescaled(1.0 - xi_omega)  # fails the ray hypothesis at its ends
        # every ray point s*omega_* with s > 1 inherits the base scan certificate
        dio = DiophantineParams(ray.omega, cand.dio.gamma, cand.dio.tau, cand.dio.scan_limit,
                                check=False)

    delta_K = matmul(fr.L, xi_L) + matmul(fr.N, xi_N)
    new_cand = replace(cand, k_per=cand.k_per + delta_K, rho=rho - 3 * delta, dio=dio)
    margin = new_cand.domain_margin()
    if margin <= 0:
        raise HypothesisError("domain", f"corrected torus leaves the domain (margin {margin:.3e})")

    mid_rho = max(rho - 2 * delta, new_cand.rho)
    margins = {"domain_margin": margin, "smallness": c_small - err / delta}
    rec = {"delta_k": delta_K.norm(mid_rho),
           "solve_residual": sdiag["residual"], "compat": sdiag["compat"],
           "contraction_bound": None, "contraction_ok": None,
           "frame_norms": fr.norm_table(rho, delta), "hypothesis_margins": margins}
    if ray is not None:
        margins["ray_margin"] = ray.boundary_margin()
        rec.update(xi_omega=xi_omega, ray_margin=margins["ray_margin"])
    if contraction_ledger is not None:
        c_e = contraction_ledger(it, fr, delta)
        gamma, tau = cand.dio.gamma, cand.dio.tau
        rec["contraction_bound"] = c_e / (gamma**4 * delta ** (4 * tau)) * err**2
    return Correction(new_cand, ray, mid_rho, rec, target)


def newton_step(it: Iterate, schedule: NewtonSchedule, delta: float,
                contraction_ledger=None) -> Correction:
    """One ordinary quasi-Newton correction of ``it`` (:func:`newton_correction`);
    its ``evaluate()`` gives the next Iterate and the step's log record.  Iso
    mode steps through ``IsoTarget.step``."""
    return newton_correction(it, schedule, delta, contraction_ledger=contraction_ledger)


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    """The outcome of a run: its last iterate and its log, one record per
    iterate.  Every record but the last carries the step taken from it, so a
    run took ``len(log) - 1`` steps."""

    converged: bool
    reason: str
    iterate: Iterate
    log: list


def iterate_newton(it: Iterate, schedule: NewtonSchedule, target: IsoTarget | None = None,
                   contraction_ledger=None) -> SolveResult:
    """Iterate the Newton step from the evaluated seed ``it`` on the
    shrinking-strip schedule until the error is <= stop_tol: ||E|| in ordinary
    mode, max(||E||, |E^omega|) in iso mode (``target`` given), where the
    frequency moves along ``it.ray``.  The ray direction is immutable: every
    iterate's omega is scale * the same omega_star.  The seed lives on the
    strip ``schedule.rho0``; a seed on another strip raises ValueError.

    ``contraction_ledger`` is an optional callable (it, frames, delta) ->
    C_E evaluating the per-step quadratic-contraction constant of the iterate
    ``it``; when given, the literal inequality ||E_{s+1}|| <= C_E/(gamma^4
    delta_s^{4 tau}) ||E_s||^2 is recorded in the step's log record.

    At most one kitchen is alive at a time: each step's correction is taken
    from the iterate, the iterate is dropped, and only then is the corrected
    candidate evaluated (:meth:`Correction.evaluate`).  The caller keeps the
    seed's kitchen alive through the first step if it holds the seed.

    Failure modes: two consecutive error increases (divergence), any named
    hypothesis failure (a ``HypothesisError`` of the step's correction; its
    evaluation raises none), or the iteration cap.  A failed step returns the
    last evaluated iterate.
    """
    if it.cand.rho != schedule.rho0:
        raise ValueError(f"the seed lives on the strip rho = {it.cand.rho}, "
                         f"the schedule starts at rho0 = {schedule.rho0}")
    log: list = []
    increases = 0
    prev_err = None

    for s in itertools.count():
        rho = it.cand.rho
        err = it.combined_norm(rho)
        rec = {"step": s, "rho": rho, "delta": schedule.delta(s), "err": err,
               "tail_fraction": tail_fraction(it.E, rho), "bands": list(it.cand.bands)}
        if target is not None:
            rec.update(err_inv=it.E.norm(rho), err_omega=it.E_omega,
                       omega=it.cand.dio.omega.tolist(), ray_scale=it.ray.scale)
        log.append(rec)
        if err <= schedule.stop_tol:
            return SolveResult(True, f"converged in {s} steps", it, log)
        if prev_err is not None:
            increases = increases + 1 if err > prev_err else 0
            if increases >= 2:
                return SolveResult(False, "divergence: error grew twice consecutively", it, log)
        if s >= schedule.max_iters:
            return SolveResult(False, f"iteration cap {schedule.max_iters} reached", it, log)
        try:
            step = (newton_step if target is None else target.step)(
                it, schedule, schedule.delta(s), contraction_ledger)
        except HypothesisError as exc:
            return SolveResult(False, f"step {s}: {exc}", it, log)
        del it  # the old kitchen dies before the corrected candidate's is built
        it, step_rec = step.evaluate()
        rec.update(step_rec)
        prev_err = err


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
