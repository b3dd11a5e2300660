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


def _k_dot(k1: np.ndarray, kp: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """k.omega for k = (k1[i, j], kp[i]), summed left to right as k1 w1 + k2 w2 + ..."""
    dots = k1 * omega[0]
    for i in range(1, omega.size):
        dots += kp[:, i - 1, None] * omega[i]
    return dots


def _divisors(k1: np.ndarray, kp: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|k.omega| for k = (k1[i, j], kp[i]), summed by :func:`_k_dot`.

    Raises DivisorCollisionError naming the first k (in row-major order) whose
    |k.omega| falls below RESONANCE_EPS.
    """
    dots = _k_dot(k1, kp, omega)
    np.abs(dots, out=dots)
    bad = np.argwhere(dots < RESONANCE_EPS)
    if bad.size:
        i, j = bad[0]
        k = (int(k1[i, j]),) + tuple(int(v) for v in kp[i])
        raise DivisorCollisionError(
            f"resonance within precision at k={k}: |k.omega|={dots[i, j]:.3e}"
        )
    return dots


def estimate_gamma(omega, tau: float, scan_limit: int) -> float:
    """min over 0 < |k|_1 <= scan_limit of |k.omega| * |k|_1^tau, exactly.

    Raises DivisorCollisionError when some scanned |k.omega| < 1e-14
    (resonance within double precision).  Scans one representative of each
    {k, -k} pair in O(L^(d-1)) work, L = scan_limit, by pruning k_1:

    Write k = (k_1, k') and take k' != 0 from the half-lattice of Z^(d-1)
    whose last nonzero entry is positive, with m = |k'|_1 <= L.  With
    r = -(k'.omega')/omega_1, |k.omega| = |omega_1| |k_1 - r| and
    |k|_1 = |k_1| + m.  On the side of 0 away from r, and past r, both
    factors grow with |k_1|; between 0 and r the product is log-concave in
    k_1 (tau >= 0), so its minimum over that integer interval sits at an end.
    The minimum over |k_1| <= L - m is therefore at k_1 = 0, clip(floor r) or
    clip(floor r + 1), clip limiting to [-(L - m), L - m].  On the axis
    k' = 0 the product |k_1 omega_1| k_1^tau grows with k_1, so k = (1, 0, ...)
    is its minimum; it is checked first, which reports omega_1 = 0 as a
    resonance there before r is formed.

    The end k_1 = 0 is not scanned: where |k'.omega'| >= |omega_1| its value
    |k'.omega'| m^tau is at least |omega_1|, the axis value; elsewhere
    |r| < 1, so 0 is floor r or floor r + 1.  Both hold in floats because
    r is formed from :func:`_k_dot` at k_1 = 0, the very sum the divisors
    take there, and a quotient of doubles |a| < |b| rounds below 1.
    """
    omega = np.asarray(omega, dtype=np.float64)
    d = omega.size
    if d < 2:
        raise ValueError("d >= 2 required")
    if scan_limit < 1:
        raise ValueError("scan_limit must be >= 1")
    if d > 4:
        raise ValueError("divisor scans are supported for 2 <= d <= 4")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    limit = int(scan_limit)
    best = float(_divisors(np.ones((1, 1)), np.zeros((1, d - 1)), omega)[0, 0])  # k = (1, 0, ...)
    kp = np.indices((2 * limit + 1,) * (d - 2) + (limit + 1,)).reshape(d - 1, -1).T
    kp[:, :-1] -= limit
    last_sign = np.zeros(kp.shape[0], dtype=kp.dtype)
    for col in kp.T:
        last_sign = np.where(col != 0, np.sign(col), last_sign)
    m = np.abs(kp).sum(axis=1)
    keep = (last_sign > 0) & (m <= limit)
    kp, m = kp[keep].astype(np.float64), m[keep]
    floor_r = np.floor(-_k_dot(np.zeros((kp.shape[0], 1)), kp, omega) / omega[0])
    room = (limit - m)[:, None]
    k1 = np.clip(np.concatenate([floor_r, floor_r + 1], axis=1), -room, room)
    dots = _divisors(k1, kp, omega)
    norm1 = np.abs(k1) + m[:, None]
    if tau != 1.0:
        # |k|_1^tau looked up by integer |k|_1: limit + 1 pow calls, not one per k
        norm1 = (np.arange(limit + 1, dtype=np.float64) ** tau)[norm1.astype(np.intp)]
    dots *= norm1
    return min(best, float(dots.min()))


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
