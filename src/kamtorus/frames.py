"""Adapted symplectic frames attached to an approximate invariant torus.

Given a candidate parameterization K: T^d -> M with frequency omega, the
tangent-family frame is L = (DK  X_p o K) and the normal complement is

    N = L A + N0 B,   N0 = (J o K) L,   B = (L^T (G o K) L)^{-1},
    A = -1/2 B^T L^T (tilde-Omega o K) L B   (Case II),   A = 0 (Case III),

so that P = (L N) is approximately symplectic: P^T (Omega o K) P ~ Omega_0.
This module evaluates the frame, the invariance error E = X_H o K - DK omega,
the torsion matrices T and T_c, and the pieces of the geometric error maps
(Omega_K pulled back, Lagrangianity E_lag, symplecticity E_sym, reducibility
E_red) that the proof's lemmas bound.

Every map is represented on the candidate's common Fourier band; nonlinear
ingredients (compositions with the system callbacks, pointwise inverses) are
sampled as real arrays on the work grid of ``work_grid`` (the smallest size
>= 4N+1 per axis with no prime factor above 3), one axis-0 slab at a time
(:func:`~kamtorus.fourier.slab_analysis`), analysed with real FFTs and
truncated back.  The structure matrices Omega, G, J and tilde-Omega are
constant, so they multiply the coefficients of the maps directly.  The
products and the rank check of L on the exact grid walk their grids in slabs
too (:func:`~kamtorus.fourier.slab_samples`), so no frame stage holds more
than one slab of samples.  ``build_frames`` builds only what the Newton step
and the certificate read; no solve or certificate builds the error maps.  The
(1,2) block of E_red repeats the torsion's products call for call, so its
vanishing is exact by construction rather than a numerical accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import DiophantineParams
from .fourier import (TWO_PI, FourierMap, _k1_box, _next_smooth, _origin, assemble_blocks,
                      matmul, slab_analysis, slab_samples)
from .hamiltonian import HamiltonianSystem, _omega0

RANK_TOL = 1e-8  # L is rank-deficient if a singular value on the grid is at most this
COND_LIMIT = 1e12  # largest condition accepted for a pointwise inverse or an averaged twist


class HypothesisError(RuntimeError):
    """A named hypothesis of the step or the certificate fails: the smallness,
    domain, strip, frame rank, Gram, twist, compatibility, ray, sigma margins
    or ledger one.  ``hypothesis`` is the name."""

    def __init__(self, name: str, detail: str):
        self.hypothesis = name
        super().__init__(f"hypothesis {name} failed: {detail}")


# ---------------------------------------------------------------------------
# candidate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusCandidate:
    """Parameterization K (periodic part), Diophantine data (whose omega is the
    frequency), strip.

    The torus is homotopic to the zero section: the stored map is the
    1-periodic part of K and, when ``angle_block`` is set, evaluation adds
    theta to the first d components and DK gains the constant identity block.
    """

    k_per: FourierMap
    dio: DiophantineParams
    rho: float
    system: HamiltonianSystem
    angle_block: bool = True

    def __post_init__(self):
        n2 = 2 * self.system.n
        if self.k_per.shape != (n2, 1):
            raise ValueError(f"K must be a ({n2} x 1) map, got {self.k_per.shape}")
        if self.k_per.d != self.system.d or self.dio.d != self.system.d:
            raise ValueError("torus dimension, frequency and system must agree on d")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @property
    def d(self) -> int:
        return self.k_per.d

    @property
    def bands(self) -> tuple:
        return self.k_per.bands

    @property
    def grid(self) -> tuple:
        """The exact sample grid 2*bands + 1 of the rank check, plotdata and torus.json."""
        return tuple(2 * n + 1 for n in self.bands)

    def tangent_family(self, xp: FourierMap) -> FourierMap:
        """(DK  xp), built in one buffer: the d columns of DK, then those of ``xp``."""
        d = self.d
        half = np.empty(self.k_per.half.shape[:-1] + (d + xp.shape[1],), dtype=np.complex128)
        for i in range(d):
            half[..., i:i + 1] = self.k_per.deriv(i).half
        half[..., d:] = xp.half
        if self.angle_block:  # DK gains the identity block at k = 0
            block = np.zeros((2 * self.system.n, d))
            block[:d, :d] = np.eye(d)
            half[_origin(self.bands) + (slice(None), slice(0, d))] += block
        return FourierMap(half)

    def k_values(self, grid) -> np.ndarray:
        """Real samples of K on a uniform grid (theta added to angle components)."""
        return np.concatenate([self._add_angles(vals[..., 0], grid, rows)
                               for rows, (vals,) in slab_samples(grid, self.k_per)])

    def _add_angles(self, vals: np.ndarray, grid, rows: slice) -> np.ndarray:
        """``vals``, the periodic part of K on the axis-0 ``rows`` of ``grid``, with
        theta added to its angle components in place."""
        if self.angle_block:
            axes = [np.arange(m) / m for m in grid]
            axes[0] = axes[0][rows]
            mesh = np.meshgrid(*axes, indexing="ij")
            for i in range(self.d):
                vals[..., i] += mesh[i]
        return vals

    def domain_margin(self) -> float:
        """Distance bound from K(T^d_rho) to the domain boundary via majorants.

        Angle components are constrained in imaginary part only: the bound is
        rho (identity part) plus the majorant of the oscillating periodic part
        plus |Im| of the constant term (a real phase shift costs nothing).
        Momentum components must stay in the complex disc around the center.
        Overestimating the excursions underestimates the margin, which is the
        safe direction for the certificate.
        """
        sys = self.system
        n = sys.n
        f0 = self.k_per.average()
        weights = np.exp(TWO_PI * self.rho * _k1_box(self.bands))
        mags = self.k_per.magnitudes()  # |f_k|, then f_0 shifted as add_constant shifts it:
        mags[self.bands] = np.abs(f0 + -f0)  # the oscillating part K - <K>
        osc_norms = _rowwise_majorant(mags, weights)
        margin = np.inf
        for i in range(n):  # periodic rows: imaginary excursion only
            excur = osc_norms[i] + abs(f0[i, 0].imag)
            if self.angle_block and i < self.d:
                excur += self.rho
            margin = min(margin, sys.domain.imag_width - excur)
        shift = np.concatenate([np.zeros(n), -sys.domain.y_center])[:, None]
        mags[self.bands] = np.abs(f0 + shift.astype(np.complex128))  # K - (0, y_center)
        mom_norms = _rowwise_majorant(mags, weights)
        for j in range(n, 2 * n):
            margin = min(margin, sys.domain.y_radius - mom_norms[j])
        return float(margin)


def seed_torus(system: HamiltonianSystem, dio: DiophantineParams, bands,
               rho: float) -> TorusCandidate:
    """Integrable-limit seed K(theta) = (theta, y_center) at frequency dio.omega.

    The periodic part is the constant momentum row y_center of the system's
    domain, on the band ``bands``.
    """
    bands = tuple(int(b) for b in bands)
    k_per = FourierMap.zeros(bands, (2 * system.n, 1))
    k_per.half[_origin(bands) + (slice(system.n, None), 0)] = system.domain.y_center
    return TorusCandidate(k_per, dio, rho=rho, system=system)


def _rowwise_majorant(mags: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row sums of the entry-wise majorants of coefficients with moduli ``mags``."""
    return np.tensordot(weights, mags, axes=(tuple(range(weights.ndim)),) * 2).sum(axis=1)


# ---------------------------------------------------------------------------
# grid kitchen: compositions with the system callbacks
# ---------------------------------------------------------------------------


def work_grid(bands: tuple) -> tuple:
    """Sampling grid of the kitchen and the pointwise inverse: per axis the
    smallest size >= 4N+1 with no prime factor above 3 (72, 144, 288 at bands
    16, 32, 64).

    It is never smaller than the full-band product grid of
    :func:`~kamtorus.fourier.dealias_grid`, so products of two maps on the
    common band are alias-free on it.  Among the fast sizes >= 4N+1 it gives
    the invariance error a low round-off floor: at bands 32 the error after
    four steps is about 15 % lower on 144 points than on the 5-smooth 135.
    """
    return tuple(_next_smooth(4 * n + 1, (2, 3)) for n in bands)


@dataclass
class GridKitchen:
    """Band-truncated Fourier data of every composition the frames need.

    One kitchen is built per candidate, where its Iterate is made; ``Dc`` and
    ``c_map`` (the target conserved quantity) are set in iso mode only.  ``L``
    is the tangent family (DK  X_p o K).
    """

    XH: FourierMap
    DXH: FourierMap
    L: FourierMap
    Dc: FourierMap | None = None
    c_map: FourierMap | None = None


def grid_kitchen(cand: TorusCandidate, conserved=None) -> GridKitchen:
    """Every composition of K with the system callbacks, sampled and analysed one
    axis-0 slab of the work grid at a time (:func:`~kamtorus.fourier.slab_analysis`);
    with the selector ``conserved`` ("H" or ("p", j)) also c o K and Dc o K."""
    sys = cand.system
    bands = cand.bands
    grid = work_grid(bands)

    def sample(rows, vals):
        kv = cand._add_angles(vals[0][..., 0], grid, rows)
        out = [sys.XH(kv)[..., :, None], sys.DXH(kv)]
        if sys.n_integrals:
            out.append(sys.Xp(kv))
        if conserved is not None:
            c, dc = sys.conserved(conserved, kv)
            out += [np.asarray(dc)[..., None, :], np.asarray(c)[..., None, None]]
        return out

    n2 = 2 * sys.n  # the values of X_H, DX_H and X_p per point, then of Dc and c
    outputs = n2 * (1 + n2 + sys.n_integrals) + (n2 + 1 if conserved is not None else 0)
    maps = [FourierMap(c) for c in slab_analysis(sample, grid, bands, cand.k_per,
                                                 outputs=outputs)]
    xh, dxh = maps.pop(0), maps.pop(0)
    xp = maps.pop(0) if sys.n_integrals else FourierMap.zeros(bands, (2 * sys.n, 0))
    dc, c_map = maps if conserved is not None else (None, None)
    return GridKitchen(XH=xh, DXH=dxh, L=cand.tangent_family(xp), Dc=dc, c_map=c_map)


# ---------------------------------------------------------------------------
# frame bundle
# ---------------------------------------------------------------------------


@dataclass
class FrameBundle:
    """The frames, the torsion and (iso mode) the bordered torsion of a candidate."""

    L: FourierMap
    A: FourierMap
    B: FourierMap
    N: FourierMap
    T: FourierMap
    avgT: np.ndarray
    Tc: FourierMap | None = None
    avgTc: np.ndarray | None = None
    Tdown: FourierMap | None = None

    def norm_table(self, rho: float, delta: float) -> dict:
        """Measured majorant norms on the strips where each object is controlled."""
        out = {
            "L@rho": self.L.norm(rho),
            "LT@rho": self.L.norm(rho, transpose=True),
            "N@rho": self.N.norm(rho),
            "NT@rho": self.N.norm(rho, transpose=True),
            "B@rho": self.B.norm(rho),
            "A@rho": self.A.norm(rho),
            "T@rho-delta": self.T.norm(max(rho - delta, 0.0)),
        }
        if self.Tc is not None:
            out["Tc@rho-delta"] = self.Tc.norm(max(rho - delta, 0.0))
        return out


def invariance_error(cand: TorusCandidate, kitchen: GridKitchen) -> FourierMap:
    """E(theta) = X_H(K(theta)) - DK(theta) omega, band-truncated.

    Raises HypothesisError("domain") if the strip image of K is not inside the domain.
    """
    margin = cand.domain_margin()
    if margin <= 0:
        raise HypothesisError("domain",
                              f"K(T^d_rho) leaves the system domain (margin {margin:.3e})")
    dk = kitchen.L.block(slice(None), slice(0, cand.d))
    return kitchen.XH - dk.matmul_constant(cand.dio.omega)


def tangent_frame(cand: TorusCandidate, kitchen: GridKitchen) -> FourierMap:
    """L = (DK  X_p o K); raises HypothesisError("frame rank") if rank < n anywhere
    on the grid.
    Slab by slab, the SVD decides only where :func:`_clears_rank_tol` cannot;
    ``np.min`` of the slabs' minima keeps NaN, as the whole grid's does."""
    smins = [np.linalg.svd(vals, compute_uv=False)[..., -1].min()
             for _, (vals,) in slab_samples(cand.grid, kitchen.L) if not _clears_rank_tol(vals)]
    smin = float(np.min(smins, initial=np.inf))
    if smin <= RANK_TOL:
        raise HypothesisError("frame rank",
                              f"tangent frame rank-deficient: min singular value {smin:.3e}")
    return kitchen.L


def _clears_rank_tol(vals: np.ndarray) -> bool:
    """True only if the SVD of every m x r sample of ``vals`` (m >= r) would
    give a smallest singular value above RANK_TOL.

    At each point it forms G = L^T L and runs LDL^T elimination without
    pivoting on G - tau I, tau = max(kappa g, 4 RANK_TOL^2), g = max diag G,
    kappa = 4 r (m + r + 2) u, u = 2^-53, and asks for positive pivots.  The
    rounding bound: fl(L^T L) is within gamma_m r g of G in the 2-norm; the
    diagonal subtraction adds u max(g, tau); if every computed pivot is
    positive, L D L^T = A + dA is positive definite with ||dA|| <= gamma_{r+1}
    trace(A) <= gamma_{r+1} r g (Higham, Accuracy and Stability, Thm 10.5, in
    its LDL^T form).  These sum to at most 2 r (m + r + 1) u g + u tau, which
    kappa puts below tau / 2, so lambda_min(G) > tau / 2 and sigma_min(L)
    exceeds both sqrt(2) RANK_TOL and s = sqrt(2 r (m + r + 2) u g).  The
    SVD's singular values lie within p u ||L||_2 <= p u sqrt(r g) of the exact
    ones, p = p(m, r) a low-degree polynomial, and sigma_min - RANK_TOL >
    (1 - 1/sqrt(2)) s exceeds that for any p below 1e7: the test never
    accepts a frame that the SVD rejects.  NaN, overflow, tiny and
    ill-conditioned frames fail it and go to the SVD.
    """
    m, r = vals.shape[-2:]
    a = np.moveaxis(vals, (-2, -1), (0, 1))
    w = _front_matmul(a.swapaxes(0, 1), a)
    diag = (np.arange(r),) * 2
    w[diag] -= np.maximum(4 * r * (m + r + 2) * 2.0**-53 * w[diag].max(axis=0),
                          4 * RANK_TOL**2)
    for p in range(r):  # upper triangle only: the LDL^T of the symmetric w
        if not np.all(w[p, p] > 0):
            return False
        for i in range(p + 1, r):
            w[i, i:] -= w[p, i] / w[p, p] * w[p, i:]
    return True


def _pointwise_inverse(f: FourierMap):
    """Pointwise inverse of a symmetric positive definite map on its work grid.

    The Gram matrix L^T (G o K) L is SPD wherever G is positive definite
    (a ``GeometricStructure`` checks it when built) and L has full rank
    (``tangent_frame`` checks it), so Gauss-Jordan elimination needs no
    pivoting.  It runs one axis-0 slab of the grid at a time
    (:func:`~kamtorus.fourier.slab_analysis`), with the matrix axes in front and
    each operation over the whole slab, followed by one refinement step
    X <- X + X (I - A X).  A pivot that is not finite and positive raises
    HypothesisError("Gram"), naming the first such pivot, its first value in C order
    and its point count over the whole grid; so does a condition estimate above
    COND_LIMIT or NaN.  Returns (inverse, cond).
    """
    conds, bad_pivots = [], []  # per slab: its condition estimate; (pivot, value, count)

    def invert(rows, vals):
        a = np.moveaxis(vals.pop(), (-2, -1), (0, 1))  # the slab's samples, not a copy
        n = a.shape[0]
        diag = (np.arange(n),) * 2
        w = a.copy()
        x = np.zeros(a.shape)
        x[diag] = 1.0
        for p in range(n):
            piv = w[p, p].copy()
            bad = ~(np.isfinite(piv) & (piv > 0))
            if bad.any():
                bad_pivots.append((p, piv[bad][0], int(bad.sum())))
                # the slab is not inverted; the whole inverse is refused
                return [np.moveaxis(a, (0, 1), (-2, -1))]
            w[p] /= piv
            x[p] /= piv
            for r in range(n):
                if r != p:
                    fac = w[r, p].copy()
                    w[r] -= fac * w[p]
                    x[r] -= fac * x[p]
        del w
        resid = _front_matmul(a, x)
        np.negative(resid, out=resid)
        resid[diag] += 1.0
        x += _front_matmul(x, resid)
        del resid
        conds.append(np.max(_abs_row_sums(a).max(axis=0) * _abs_row_sums(x).max(axis=0)))
        return [np.moveaxis(x, (0, 1), (-2, -1))]

    coeffs = slab_analysis(invert, work_grid(f.bands), f.bands, f, outputs=f.shape[0] ** 2)[0]
    if bad_pivots:  # the whole-grid elimination stops at the least bad pivot
        p = min(bad[0] for bad in bad_pivots)
        first = next(value for q, value, _ in bad_pivots if q == p)
        count = sum(c for q, _, c in bad_pivots if q == p)
        raise HypothesisError("Gram", f"Gram matrix pivot {p} is {first:.3e} at {count} grid "
                                      "point(s): not finite and positive")
    cond = float(np.max(conds))
    if not cond <= COND_LIMIT:
        raise HypothesisError("Gram", f"pointwise condition estimate {cond:.3e} exceeds "
                                      f"{COND_LIMIT:.1e}")
    return FourierMap(coeffs), cond


def _front_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of arrays whose first two axes are the matrix axes, each
    entry summed from 0 in column order, as ``sum`` does, into one array."""
    out = np.zeros(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    term = np.empty(b.shape[1:], dtype=out.dtype)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i] += np.multiply(a[i, j], b[j], out=term)
    return out


def _abs_row_sums(m: np.ndarray) -> np.ndarray:
    """sum_j |m_ij| of an array whose first two axes are the matrix axes, added in
    column order as ``np.abs(m).sum(axis=1)`` adds them on a C-ordered ``m``."""
    total = np.abs(m[:, 0])
    term = np.empty_like(total)
    for j in range(1, m.shape[1]):
        total += np.abs(m[:, j], out=term)
    return total


def normal_frame(cand: TorusCandidate, L: FourierMap):
    """(B, A, N) per the metric construction; A = 0 in Case III.  B and A are
    made symmetric and antisymmetric after they are formed."""
    geo = cand.system.geometry
    B_raw, _ = _pointwise_inverse(matmul(L.T.matmul_constant(geo.G), L))
    B = 0.5 * (B_raw + B_raw.T)
    if geo.case_tag == "III":
        A = FourierMap.zeros(cand.bands, (cand.system.n, cand.system.n))
    else:
        tOmL = matmul(L.T.matmul_constant(geo.tOmega), L)
        A_raw = -0.5 * matmul(matmul(B.T, tOmL), B)
        A = 0.5 * (A_raw - A_raw.T)
    N = matmul(L, A) + matmul(L.rmatmul_constant(geo.J), B)
    return B, A, N


def isotropy_errors(cand: TorusCandidate, L: FourierMap, LT_Om: FourierMap):
    """(Omega_K, E_lag): pulled-back form on the torus and Lagrangianity defect.

    ``L`` is the tangent frame, whose first d columns are DK; ``LT_Om`` is the
    product L^T (Omega o K), shared with the reducibility error.
    """
    dk = L.block(slice(None), slice(0, cand.d))
    OmegaK = matmul(dk.T.matmul_constant(cand.system.geometry.Omega), dk)
    Elag = matmul(LT_Om, L)
    return OmegaK, Elag


def symplecticity_error(cand: TorusCandidate, P: FourierMap) -> FourierMap:
    """E_sym = P^T (Omega o K) P - Omega_0."""
    prod = matmul(P.T.matmul_constant(cand.system.geometry.Omega), P)
    return prod.add_constant(-_omega0(cand.system.n))


def torsion(cand: TorusCandidate, N: FourierMap, kitchen: GridKitchen, scale: float):
    """(T, <T>) with T = N^T (Omega o K) Loper(N), Loper N = DX_H o K . N + L_omega N.

    The Lie derivative of N is spectral (exact on the truncation); a singular
    averaged torsion, judged against ``scale = _twist_scale(cand, N, kitchen)``,
    raises HypothesisError("twist").
    """
    loper_n = matmul(kitchen.DXH, N) + N.lie(cand.dio.omega)
    NT_Om = N.T.matmul_constant(cand.system.geometry.Omega)  # E_red's factor repeats this
    T = matmul(NT_Om, loper_n)
    avgT = T.average().real
    _check_twist(avgT, "averaged torsion <T>", scale)
    return T, avgT


def _twist_scale(cand: TorusCandidate, N: FourierMap, kitchen: GridKitchen) -> float:
    """Majorant bound at rho = 0 of the factors of T = N^T (Omega o K)(DX_H N + L_omega N).

    The two terms of L_op N are bounded apart: for an isochronous torus their
    sum cancels to round-off, so ||L_op N|| alone would not measure the size
    the average was computed at.
    """
    norm_n = N.norm(0.0)
    norm_om = np.abs(cand.system.geometry.Omega).sum(axis=1).max()
    return (N.norm(0.0, transpose=True) * norm_om
            * (kitchen.DXH.norm(0.0) * norm_n + N.lie(cand.dio.omega).norm(0.0)))


def _check_twist(avg: np.ndarray, what: str, scale: float):
    """Reject a singular or ill-conditioned average, and one that is round-off.

    ``scale`` bounds the majorant of the factors the average was taken from; an
    average whose smallest singular value is at most scale / COND_LIMIT is a
    cancellation to round-off (a zero twist), whatever its own conditioning.
    """
    try:
        smin = float(np.linalg.svd(avg, compute_uv=False)[-1])
        inv = np.linalg.inv(avg)
    except np.linalg.LinAlgError as exc:
        raise HypothesisError("twist", f"{what} is singular") from exc
    if not smin > scale / COND_LIMIT:
        raise HypothesisError(
            "twist", f"{what} smallest singular value {smin:.3e} is at most {1 / COND_LIMIT:.1e} "
            f"times its factors' scale {scale:.3e}"
        )
    cond = float(np.abs(avg).sum(axis=1).max() * np.abs(inv).sum(axis=1).max())
    if cond > COND_LIMIT:
        raise HypothesisError("twist", f"{what} condition {cond:.3e} exceeds {COND_LIMIT:.1e}")


def extended_torsion(cand: TorusCandidate, T: FourierMap, N: FourierMap,
                     kitchen: GridKitchen, scale: float):
    """(T_c, <T_c>, Tdown): the (n+1) x (n+1) bordered torsion for the target c
    whose differential the kitchen carries.

    T_c = [[T, omega_hat], [Dc(K) N, 0]] with omega_hat = (omega, 0_{n-d});
    ``scale`` is as in :func:`torsion`.
    """
    n = cand.system.n
    Tdown = matmul(kitchen.Dc, N)
    omega_hat = np.concatenate([cand.dio.omega, np.zeros(n - cand.d)])
    half = np.zeros(T.half.shape[:T.d] + (n + 1, n + 1), dtype=np.complex128)
    half[..., :n, :n] = T.half
    half[..., n, :n] = Tdown.half[..., 0, :]
    half[_origin(cand.bands) + (slice(None, n), n)] += omega_hat
    Tc = FourierMap(half)
    avgTc = Tc.average().real
    # row sums of the factor bounds: the rows of T plus omega_hat, and Dc N
    _check_twist(avgTc, "averaged extended torsion <T_c>",
                 max(scale + float(np.max(np.abs(omega_hat))),
                     kitchen.Dc.norm(0.0) * N.norm(0.0)))
    return Tc, avgTc, Tdown


def reducibility_error(cand: TorusCandidate, L: FourierMap, T: FourierMap,
                       LoperN: FourierMap, LT_Om: FourierMap, NT_Om: FourierMap,
                       kitchen: GridKitchen) -> FourierMap:
    """E_red = -Omega_0 P^T (Omega o K)(DX_H o K . P + L_omega P) - Lambda.

    Assembled block-wise from the products LT_Om = L^T (Omega o K) and
    NT_Om = N^T (Omega o K); when NT_Om and LoperN are formed by the torsion's
    own calls, the (1,2) block repeats its arithmetic, so it vanishes identically
    (Lambda = [[0, T], [0, 0]] by construction).
    """
    loper_l = matmul(kitchen.DXH, L) + L.lie(cand.dio.omega)
    m11 = matmul(LT_Om, loper_l)
    m12 = matmul(LT_Om, LoperN)
    m21 = matmul(NT_Om, loper_l)
    m22 = matmul(NT_Om, LoperN)  # identical arithmetic to T
    return assemble_blocks([[m21, m22 - T], [-m11, -m12]])


def build_frames(cand: TorusCandidate, kitchen: GridKitchen) -> FrameBundle:
    """The frames and torsion that the Newton step and the certificate read;
    the bordered torsion too when the kitchen carries a conserved quantity
    (iso mode).  The error maps are not built."""
    L = tangent_frame(cand, kitchen)
    B, A, N = normal_frame(cand, L)
    scale = _twist_scale(cand, N, kitchen)  # shared by both twist gates
    T, avgT = torsion(cand, N, kitchen, scale)
    bundle = FrameBundle(L=L, A=A, B=B, N=N, T=T, avgT=avgT)
    if kitchen.Dc is not None:
        bundle.Tc, bundle.avgTc, bundle.Tdown = extended_torsion(cand, T, N, kitchen, scale)
    return bundle


# ---------------------------------------------------------------------------
# measured hypothesis data for the certificate
# ---------------------------------------------------------------------------


def measure_hypothesis_data(cand: TorusCandidate, frames: FrameBundle,
                            sigma_factor: float) -> dict:
    """Measured frame/twist norms plus sigma bounds (factor x measured).

    The strict inequalities of the hypotheses need headroom: each sigma is
    sigma_factor * its measured value.
    """
    dk = frames.L.block(slice(None), slice(0, cand.d))
    norm_dk = dk.norm(cand.rho)
    norm_dkt = dk.norm(cand.rho, transpose=True)
    norm_b = frames.B.norm(cand.rho)
    tinv = np.linalg.inv(frames.avgT)
    norm_tinv = float(np.abs(tinv).sum(axis=1).max())
    data = {
        "norm_DK": norm_dk,
        "norm_DKT": norm_dkt,
        "norm_B": norm_b,
        "norm_avgT_inv": norm_tinv,
        "dist_domain": cand.domain_margin(),
        "sigma_K": sigma_factor * norm_dk,
        "sigma_KT": sigma_factor * norm_dkt,
        "sigma_B": sigma_factor * norm_b,
        "sigma_T": sigma_factor * norm_tinv,
    }
    if frames.avgTc is not None:
        tcinv = np.linalg.inv(frames.avgTc)
        data["norm_avgTc_inv"] = float(np.abs(tcinv).sum(axis=1).max())
        data["sigma_Tc"] = sigma_factor * data["norm_avgTc_inv"]
    return data
