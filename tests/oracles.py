"""Oracles that only the tests run: the paper's lemma bounds and small checks.

- ``error_maps`` builds the four geometric error maps of a candidate
  (Omega_K, E_lag, E_sym, E_red), and ``soundness_report`` pairs their
  measured norms, and those of the frames and torsion, with the ledger's
  bounds.
- ``matrix_inverse_control`` is the auxiliary Neumann lemma on perturbed
  inverses.
- ``cauchy_bound`` carries a strip norm to a thinner strip; ``russmann_raw_ratio``
  is the band-capped small-divisor maximum that ``russmann_constant``
  envelopes.
- ``ledger_diff``, ``contains_margin`` and ``empty_integrals`` compare two
  ledgers, measure a point set against a domain box, and build the integral
  callbacks of a system without first integrals.
"""

from dataclasses import dataclass

import numpy as np

from kamtorus.certificate import ConstantLedger, GlobalNormConstants, _ledger
from kamtorus.fourier import TWO_PI, FourierMap, StripNorm, assemble_blocks, matmul
from kamtorus import frames as fr
from kamtorus.frames import FrameBundle, GridKitchen, TorusCandidate
from kamtorus.hamiltonian import DomainBox, _linear_integrals
from kamtorus.solver import Iterate, NewtonSchedule

# ---------------------------------------------------------------------------
# the error maps and the lemma-soundness report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorMaps:
    """The geometric error maps of a candidate, which the proof's lemmas bound."""

    OmegaK: FourierMap
    Elag: FourierMap
    Esym: FourierMap
    Ered: FourierMap


def error_maps(cand: TorusCandidate, frames: FrameBundle, kitchen: GridKitchen) -> ErrorMaps:
    """Omega_K, E_lag, E_sym and E_red of a candidate whose frames are ``frames``."""
    LT_Om = matmul(frames.L.T, kitchen.Omega, out_bands=cand.bands)
    # the call torsion makes, so the (1,2) block of E_red is exactly zero
    NT_Om = matmul(frames.N.T, kitchen.Omega, out_bands=cand.bands)
    OmegaK, Elag = fr.isotropy_errors(cand, frames.L, LT_Om, kitchen)
    Esym = fr.symplecticity_error(cand, assemble_blocks([[frames.L, frames.N]]), kitchen)
    Ered = fr.reducibility_error(cand, frames.L, frames.T, frames.LoperN, LT_Om, NT_Om, kitchen)
    return ErrorMaps(OmegaK=OmegaK, Elag=Elag, Esym=Esym, Ered=Ered)


def soundness_report(it: Iterate, frames: FrameBundle, globs: GlobalNormConstants,
                     delta: float, schedule: NewtonSchedule,
                     c_level_norm: float | None = None,
                     p_level_norm: float | None = None,
                     sigma_factor: float = 1.1) -> list:
    """Measured-vs-ledger pairs for every statically bounded quantity.

    Returns [(name, measured, bound), ...] where each bound is the literal
    ledger inequality at the stated strips, with ||E||_rho the iterate's
    error (||E_c||_rho in iso mode):

        ||c o K - <c o K>||_{rho-delta} <= c_R c_c1/(gamma delta^tau) ||E||_rho
        ||Omega_K||_{rho-2delta}        <= C_OmegaK/(gamma delta^(tau+1)) ||E||_rho
        ||E_lag||_{rho-2delta}          <= C_OmegaL/(gamma delta^(tau+1)) ||E||_rho
        ||L||_rho <= C_L,  ||L^T||_rho <= C_LT,  ||N||_rho <= C_N,  ||N^T||_rho <= C_NT
        ||E_sym||_{rho-2delta}          <= C_sym/(gamma delta^(tau+1)) ||E||_rho
        ||T||_{rho-delta}               <= C_T
        ||E_red||_{rho-2delta}          <= C_red/(gamma delta^(tau+1)) ||E||_rho

    The c and p rows are reported when their measured norms are given.
    """
    cand = it.cand
    rho = cand.rho
    error_norm = it.combined_norm(rho)
    led = _ledger(it, frames, schedule, globs, delta, sigma_factor)
    if error_norm / delta >= led["c_small"]:
        raise ValueError(
            f"smallness ||E||/delta = {error_norm / delta:.3e} >= c = {led['c_small']:.3e}: "
            "the torsion bound hypothesis fails for this candidate"
        )
    gamma, tau = cand.dio.gamma, cand.dio.tau
    loss1 = 1.0 / (gamma * delta**tau)
    loss2 = 1.0 / (gamma * delta ** (tau + 1))
    r1 = max(rho - delta, 0.0)
    r2 = max(rho - 2 * delta, 0.0)
    maps = error_maps(cand, frames, it.kitchen)
    pairs = [
        ("L@rho", frames.L.norm(rho).value, led["C_L"]),
        ("LT@rho", frames.L.norm(rho, transpose=True).value, led["C_LT"]),
        ("N@rho", frames.N.norm(rho).value, led["C_N"]),
        ("NT@rho", frames.N.norm(rho, transpose=True).value, led["C_NT"]),
        ("OmegaK", maps.OmegaK.norm(r2).value, led["C_OmegaK"] * loss2 * error_norm),
        ("Elag", maps.Elag.norm(r2).value, led["C_OmegaL"] * loss2 * error_norm),
        ("Esym", maps.Esym.norm(r2).value, led["C_sym"] * loss2 * error_norm),
        ("T", frames.T.norm(r1).value, led["C_T"]),
        ("Ered", maps.Ered.norm(r2).value, led["C_red"] * loss2 * error_norm),
    ]
    if c_level_norm is not None:
        pairs.append(
            ("c_shadow", c_level_norm,
             led["c_R"] * globs.values["c_c_1"] * loss1 * error_norm)
        )
    if p_level_norm is not None and cand.system.n_integrals:
        pairs.append(
            ("p_shadow", p_level_norm,
             led["c_R"] * globs.values["c_p_1"] * loss1 * error_norm)
        )
    return pairs


# ---------------------------------------------------------------------------
# matrix-inverse control (auxiliary Neumann lemma)
# ---------------------------------------------------------------------------


@dataclass
class InverseControlReport:
    precondition_ok: bool
    condition_value: float | None
    condition_ok: bool
    invertible: bool
    bound: float | None
    actual_difference: float | None
    new_inverse_norm: float | None
    sigma: float


def _rowsum_norm(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=-1).max())


def matrix_inverse_control(M: np.ndarray, Mbar: np.ndarray, sigma: float) -> InverseControlReport:
    """Perturbation control of a matrix inverse in the max-row-sum norm.

    If |M^{-1}| < sigma and 2 sigma^2 |Mbar - M| / (sigma - |M^{-1}|) <= 1,
    then Mbar is invertible with |Mbar^{-1} - M^{-1}| < 2 sigma^2 |Mbar - M|
    and |Mbar^{-1}| < sigma.  Precondition violations are reported, not thrown.
    """
    M = np.asarray(M, dtype=float)
    Mbar = np.asarray(Mbar, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return InverseControlReport(False, None, False, False, None, None, None, sigma)
    inv_norm = _rowsum_norm(Minv)
    if inv_norm >= sigma:
        return InverseControlReport(False, None, False, False, None, None, None, sigma)
    diff = _rowsum_norm(Mbar - M)
    condition = 2.0 * sigma**2 * diff / (sigma - inv_norm)
    if condition > 1.0:
        return InverseControlReport(True, condition, False, False, None, None, None, sigma)
    Mbar_inv = np.linalg.inv(Mbar)
    actual = _rowsum_norm(Mbar_inv - Minv)
    return InverseControlReport(
        precondition_ok=True,
        condition_value=condition,
        condition_ok=True,
        invertible=True,
        bound=2.0 * sigma**2 * diff,
        actual_difference=actual,
        new_inverse_norm=_rowsum_norm(Mbar_inv),
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# strip norms and small divisors
# ---------------------------------------------------------------------------


def cauchy_bound(norm: StripNorm, delta: float, kind: str, dim: int | None = None) -> StripNorm:
    """Cauchy estimate carrying a strip norm from rho to rho - delta.

    kind "D":           ||D M||_{rho-delta}     <= (d/delta) ||M||_rho   (dim = d)
    kind "D-transpose": ||(D u)^T||_{rho-delta} <= (1/delta) ||u||_rho   (scalar u)
    kind "vector":      ||(D w)^T||_{rho-delta} <= (n/delta) ||w||_rho   (dim = n)
    """
    if not 0 < delta < norm.rho:
        raise ValueError(f"delta must lie in (0, rho={norm.rho}), got {delta}")
    if kind == "D":
        if dim is None:
            raise ValueError("kind 'D' needs dim = torus dimension d")
        factor = dim / delta
    elif kind == "D-transpose":
        factor = 1.0 / delta
    elif kind == "vector":
        if dim is None:
            raise ValueError("kind 'vector' needs dim = vector length n")
        factor = dim / delta
    else:
        raise ValueError(f"unknown Cauchy kind {kind!r}")
    return StripNorm(rho=norm.rho - delta, value=norm.value * factor)


def russmann_raw_ratio(tau: float, delta: float, band_limit) -> float:
    """Exact finite maximization delta^tau max_m m^tau e^{-2 pi m delta} / (2 pi).

    The band-capped value that ``russmann_constant`` envelopes (m ranges over
    1 .. sum of band limits).
    """
    m_max = int(sum(band_limit))
    m = np.arange(1, m_max + 1, dtype=np.float64)
    vals = m**tau * np.exp(-TWO_PI * m * delta)
    return float(delta**tau * np.max(vals) / TWO_PI)


# ---------------------------------------------------------------------------
# ledgers and systems
# ---------------------------------------------------------------------------


def ledger_diff(a: ConstantLedger, b: ConstantLedger) -> dict:
    """Rows whose values differ (name -> (a, b)); missing rows count."""
    out = {}
    for k in sorted(set(a.rows) | set(b.rows)):
        va = a.rows[k].value if k in a.rows else None
        vb = b.rows[k].value if k in b.rows else None
        if va != vb:
            out[k] = (va, vb)
    return out


def contains_margin(box: DomainBox, z: np.ndarray) -> float:
    """min over points/coords of the distance to the boundary of ``box`` (<=0: outside)."""
    z = np.asarray(z)
    a = box.angle_count
    x, y = z[..., :a], z[..., a:]
    m_ang = box.imag_width - np.abs(x.imag).max() if x.size else np.inf
    m_mom = box.y_radius - np.abs(y - box.y_center).max() if y.size else np.inf
    return float(min(m_ang, m_mom))


def empty_integrals(n: int):
    """Integral callbacks for the d = n case: zero-width arrays, same code path."""
    return _linear_integrals(np.zeros((0, n)))
