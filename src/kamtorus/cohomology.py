"""Diophantine frequencies and the small-divisor (cohomological) solver.

The central object is the equation

    L_omega u = v - <v>,      L_omega = -sum_i omega_i d/dtheta_i,

whose unique zero-average solution R_omega(v) has coefficients
u_k = -v_k / (2*pi*i k.omega), k != 0.  Quantitative control uses the
Diophantine lower bound |k.omega| >= gamma / |k|_1^tau, certified here by a
finite scan up to a stated cutoff (a lower-bound certificate, not a proof
for all k), and the loss-of-domain constant c_R such that

    ||R_omega(v)||_{rho-delta} <= c_R / (gamma * delta^tau) * ||v||_rho

holds for every band-limited v in the Fourier-majorant norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import TWO_PI, FourierMap, _k_dot_omega

RESONANCE_EPS = 1e-14


class DivisorCollisionError(ArithmeticError):
    """Some scanned divisor |k.omega| falls below double-precision resolution."""


@dataclass(frozen=True)
class DiophantineParams:
    """Frequency vector with scanned Diophantine data (gamma, tau).

    gamma is a lower bound for |k.omega|*|k|_1^tau over 0 < |k|_1 <= scan_limit
    only; every report quoting gamma states the scan limit.  The bound is
    checked at construction (not assumed); pass check=False only when the
    certificate transfers exactly, e.g. under a pure frequency rescaling.
    """

    omega: np.ndarray
    gamma: float
    tau: float
    scan_limit: int
    check: bool = True

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.float64)
        object.__setattr__(self, "omega", omega)
        if omega.ndim != 1 or omega.size < 2:
            raise ValueError("omega must be a vector of dimension d >= 2")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tau < omega.size - 1:
            raise ValueError(f"tau must be >= d-1 = {omega.size - 1}")
        if self.check:
            measured = estimate_gamma(omega, self.tau, self.scan_limit)
            if measured < self.gamma * (1.0 - 1e-12):
                raise ValueError(
                    f"gamma={self.gamma} fails the divisor scan up to "
                    f"{self.scan_limit}: measured minimum {measured}"
                )

    @property
    def d(self) -> int:
        return self.omega.size

    def verify_scan(self, scan_limit: int | None = None) -> float:
        """Re-scan the divisor bound; returns the measured min of |k.w|*|k|^tau."""
        limit = self.scan_limit if scan_limit is None else scan_limit
        measured = estimate_gamma(self.omega, self.tau, limit)
        if measured < self.gamma * (1.0 - 1e-12):
            raise ValueError(
                f"gamma={self.gamma} not supported by scan up to {limit}: measured {measured}"
            )
        return measured

    def scaled(self, factor: float) -> "DiophantineParams":
        """Diophantine data of factor*omega; the scan certificate scales linearly."""
        return DiophantineParams(self.omega * factor, self.gamma * factor, self.tau,
                                 self.scan_limit, check=False)


def _scan_d2(omega: np.ndarray, tau: float, limit: int, chunk_rows: int = 512):
    """Vectorized half-lattice scan for d = 2: k2 >= 1 rows plus the k2 = 0 axis."""
    best = np.inf
    k1_axis = np.arange(1, limit + 1, dtype=np.float64)
    axis_dots = np.abs(k1_axis * omega[0])
    worst = float(axis_dots.min())
    if worst < RESONANCE_EPS:
        raise DivisorCollisionError(
            f"resonance within precision at k=({int(np.argmin(axis_dots)) + 1}, 0)"
        )
    best = min(best, float(np.min(axis_dots * k1_axis**tau)))
    # |k|_1^tau looked up by integer |k|_1 (avoids ~limit^2 libm pow calls)
    pow_table = None if tau == 1.0 else np.arange(limit + 1, dtype=np.float64) ** tau
    for start in range(1, limit + 1, chunk_rows):
        stop = min(start + chunk_rows, limit + 1)
        width = limit - start  # widest valid |k1| within this chunk
        k1 = np.arange(-width, width + 1, dtype=np.float64)[None, :]
        k2 = np.arange(start, stop, dtype=np.float64)[:, None]
        norm1 = np.abs(k1) + k2
        valid = norm1 <= limit
        dots = np.abs(k1 * omega[0] + k2 * omega[1])
        bad = valid & (dots < RESONANCE_EPS)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise DivisorCollisionError(
                f"resonance within precision at k=({int(k1[0, j])}, {int(k2[i, 0])}): "
                f"|k.omega|={dots[i, j]:.3e}"
            )
        if pow_table is None:
            weights = norm1
        else:
            weights = pow_table[np.minimum(norm1, limit).astype(np.intp)]
        dots *= weights
        dots[~valid] = np.inf
        best = min(best, float(dots.min()))
    return best


def _scan_generic(omega: np.ndarray, tau: float, limit: int):
    """Half-lattice meshgrid scan for small d > 2."""
    d = omega.size
    rngs = [np.arange(-limit, limit + 1, dtype=np.int64)] * (d - 1) + [
        np.arange(0, limit + 1, dtype=np.int64)
    ]
    mesh = np.stack(np.meshgrid(*rngs, indexing="ij"), axis=-1).reshape(-1, d)
    k1 = np.abs(mesh).sum(axis=1)
    keep = (k1 > 0) & (k1 <= limit)
    lead = mesh[:, :-1]
    zero_last = mesh[:, -1] == 0
    first_sign = np.zeros(mesh.shape[0], dtype=np.int64)
    for i in range(d - 1):
        col = lead[:, i]
        unset = first_sign == 0
        first_sign = np.where(unset & (col != 0), np.sign(col), first_sign)
    keep &= ~(zero_last & (first_sign < 0))
    block = mesh[keep]
    dots = np.abs(block.astype(np.float64) @ omega)
    worst = float(dots.min())
    if worst < RESONANCE_EPS:
        idx = int(np.argmin(dots))
        raise DivisorCollisionError(
            f"resonance within precision at k={tuple(int(v) for v in block[idx])}: "
            f"|k.omega|={worst:.3e}"
        )
    norm1 = np.abs(block).sum(axis=1).astype(np.float64)
    return float(np.min(dots * norm1**tau))


def estimate_gamma(omega, tau: float, scan_limit: int) -> float:
    """min over 0 < |k|_1 <= scan_limit of |k.omega| * |k|_1^tau.

    Raises DivisorCollisionError when some scanned |k.omega| < 1e-14
    (resonance within double precision).  Scans one representative of each
    {k, -k} pair.
    """
    omega = np.asarray(omega, dtype=np.float64)
    d = omega.size
    if d < 2:
        raise ValueError("d >= 2 required")
    if scan_limit < 1:
        raise ValueError("scan_limit must be >= 1")
    if d == 2:
        return _scan_d2(omega, tau, int(scan_limit))
    if d > 4:
        raise ValueError("divisor scans are supported for 2 <= d <= 4")
    return _scan_generic(omega, tau, int(scan_limit))


def solve_cohomological(v: FourierMap, dio: DiophantineParams) -> FourierMap:
    """Unique zero-average u with L_omega u = v - <v>  (u_k = -v_k/(2 pi i k.w))."""
    if dio.d != v.d:
        raise ValueError(f"frequency dimension {dio.d} != torus dimension {v.d}")
    kdot = _k_dot_omega(v.bands, tuple(dio.omega))
    center = tuple(n for n in v.bands)
    small = np.abs(kdot) < RESONANCE_EPS
    small[center] = False
    if np.any(small):
        where = np.argwhere(small)[0]
        k = tuple(int(where[i]) - v.bands[i] for i in range(v.d))
        raise DivisorCollisionError(f"divisor collision at k={k} inside the band")
    denom = TWO_PI * 1j * kdot
    denom[center] = 1.0  # placeholder, the k=0 mode is zeroed below
    coeffs = -v.coeffs / denom.reshape(denom.shape + (1, 1))
    coeffs[center] = 0.0
    return FourierMap(coeffs, v.bands)


def russmann_constant(tau: float, delta: float) -> float:
    """Numeric small-divisor constant c_R(delta) for the majorant norm.

    The realized gain of R_omega on any band-limited v is bounded mode-wise by
    |k|_1^tau e^{-2 pi |k|_1 delta} / (2 pi gamma); maximizing the compensated
    weight g(x) = x^tau e^{-2 pi x} over the lattice {m delta} and then over
    all delta' >= delta yields the non-increasing envelope

        c_R(delta) = (tau/(2 pi e))^tau / (2 pi)          for delta <= tau/(2 pi),
        c_R(delta) = delta^tau e^{-2 pi delta} / (2 pi)   otherwise.

    Every peak of g on the lattice has the same height, so the envelope does
    not depend on the band cap; it meets the exact finite maximum at the
    delta values used by the certificate.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    peak = tau / TWO_PI
    if tau == 0:
        return float(np.exp(-TWO_PI * delta) / TWO_PI)
    if delta <= peak:
        return float((tau / (TWO_PI * np.e)) ** tau / TWO_PI)
    return float(delta**tau * np.exp(-TWO_PI * delta) / TWO_PI)


def russmann_raw_ratio(tau: float, delta: float, band_limit) -> float:
    """Exact finite maximization delta^tau max_m m^tau e^{-2 pi m delta} / (2 pi).

    The band-capped value that ``russmann_constant`` envelopes; exposed for
    diagnostics and tests (m ranges over 1 .. sum of band limits).
    """
    m_max = int(sum(band_limit))
    m = np.arange(1, m_max + 1, dtype=np.float64)
    vals = m**tau * np.exp(-TWO_PI * m * delta)
    return float(delta**tau * np.max(vals) / TWO_PI)
