"""Adapted symplectic frames attached to an approximate invariant torus.

Given a candidate parameterization K: T^d -> M with frequency omega, the
tangent-family frame is L = (DK  X_p o K) and the normal complement is

    N = L A + N0 B,   N0 = (J o K) L,   B = (L^T (G o K) L)^{-1},
    A = -1/2 B^T L^T (tilde-Omega o K) L B   (Case II),   A = 0 (Case III),

so that P = (L N) is approximately symplectic: P^T (Omega o K) P ~ Omega_0.
This module evaluates the frame, the invariance error E = X_H o K - DK omega,
the geometric error maps (pulled-back form Omega_K, Lagrangianity E_lag,
symplecticity E_sym, reducibility E_red), and the torsion matrices T and T_c.

Every map is represented on the candidate's common Fourier band; nonlinear
ingredients (compositions with the system callbacks, pointwise inverses) are
sampled as real arrays on the work grid 4N+1, analysed with real FFTs and
truncated back, except that the maps of a canonical structure are built as
exact constants.  The rank check of L and the samples of K are real
syntheses too.  ``build_frames`` forms N^T (Omega o K) and L^T (Omega o K)
once and shares them between the torsion and the error maps; and the (1,2)
block of E_red reuses the torsion product verbatim, so its vanishing is exact
by construction rather than a numerical accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import DiophantineParams
from .fourier import FourierMap, _real_samples, concat_cols, matmul
from .hamiltonian import ConservedQuantity, HamiltonianSystem


class FrameRankError(ArithmeticError):
    """The tangent-family frame loses rank on the grid."""


class SingularGramError(ArithmeticError):
    """The metric Gram matrix L^T (G o K) L is numerically singular."""


class TwistDegeneracyError(ArithmeticError):
    """The averaged torsion matrix is singular: the twist hypothesis fails."""


class DomainEscapeError(ValueError):
    """K(T^d_rho) is not safely inside the system domain."""


# ---------------------------------------------------------------------------
# candidate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusCandidate:
    """Parameterization K (periodic part), frequency, Diophantine data, strip.

    The torus is homotopic to the zero section: the stored map is the
    1-periodic part of K and, when ``angle_block`` is set, evaluation adds
    theta to the first d components and DK gains the constant identity block.
    """

    k_per: FourierMap
    omega: np.ndarray
    dio: DiophantineParams
    rho: float
    system: HamiltonianSystem
    angle_block: bool = True

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=np.float64))
        n2 = 2 * self.system.n
        if self.k_per.shape != (n2, 1):
            raise ValueError(f"K must be a ({n2} x 1) map, got {self.k_per.shape}")
        if self.k_per.d != self.system.d or self.omega.shape != (self.system.d,):
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
        return self.k_per.grid

    def dk(self) -> FourierMap:
        """DK as a (2n x d) map; exact spectral derivative plus identity block."""
        cols = [self.k_per.deriv(i) for i in range(self.d)]
        dk = concat_cols(*cols)
        if self.angle_block:
            block = np.zeros((2 * self.system.n, self.d))
            block[: self.d, : self.d] = np.eye(self.d)
            dk = dk.add_constant(block)
        return dk

    def k_values(self, grid) -> np.ndarray:
        """Real samples of K on a uniform grid (theta added to angle components)."""
        vals = _real_samples(self.k_per, tuple(grid))[..., 0]
        if self.angle_block:
            axes = [np.arange(m) / m for m in grid]
            mesh = np.meshgrid(*axes, indexing="ij")
            for i in range(self.d):
                vals[..., i] += mesh[i]
        return vals

    def with_updates(self, **kw) -> "TorusCandidate":
        data = {
            "k_per": self.k_per,
            "omega": self.omega,
            "dio": self.dio,
            "rho": self.rho,
            "system": self.system,
            "angle_block": self.angle_block,
        }
        data.update(kw)
        return TorusCandidate(**data)

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
        a = sys.domain.angle_count
        center_coeff = self.k_per.average()[:, 0]
        osc = self.k_per.add_constant(-self.k_per.average())
        osc_norms = _rowwise_majorant(osc, self.rho)
        margin = np.inf
        for i in range(a):  # periodic rows: imaginary excursion only
            excur = osc_norms[i] + abs(center_coeff[i].imag)
            if self.angle_block and i < self.d:
                excur += self.rho
            margin = min(margin, sys.domain.imag_width - excur)
        center = sys.domain.y_center
        shifted = self.k_per.add_constant(
            np.concatenate([np.zeros(a), -center])[:, None]
        )
        mom_norms = _rowwise_majorant(shifted, self.rho)
        for j in range(a, 2 * sys.n):
            margin = min(margin, sys.domain.y_radius - mom_norms[j])
        return float(margin)


def seed_torus(system: HamiltonianSystem, dio: DiophantineParams, bands,
               rho: float) -> TorusCandidate:
    """Integrable-limit seed K(theta) = (theta, y_center) at frequency dio.omega.

    The periodic part is the constant momentum row y_center of the system's
    domain, on the band ``bands`` and the grid 2*bands + 1.
    """
    bands = tuple(int(b) for b in bands)
    k_per = FourierMap.zeros(bands, tuple(2 * b + 1 for b in bands), (2 * system.n, 1))
    k_per.coeffs[bands + (slice(system.domain.angle_count, None), 0)] = system.domain.y_center
    return TorusCandidate(k_per, dio.omega, dio, rho=rho, system=system)


def _rowwise_majorant(f: FourierMap, rho: float) -> np.ndarray:
    from .fourier import TWO_PI, _k1_box

    weights = np.exp(TWO_PI * rho * _k1_box(f.bands))
    entry = np.tensordot(weights, np.abs(f.coeffs), axes=(tuple(range(f.d)),) * 2)
    return entry.sum(axis=1)


# ---------------------------------------------------------------------------
# grid kitchen: compositions with the system callbacks
# ---------------------------------------------------------------------------


def work_grid(bands: tuple) -> tuple:
    """Dealiased grid for products of two maps on the common band."""
    return tuple(4 * n + 1 for n in bands)


@dataclass
class GridKitchen:
    """Band-truncated Fourier data of every composition the frames need."""

    cand: TorusCandidate
    wgrid: tuple
    k_vals: np.ndarray
    XH: FourierMap
    DXH: FourierMap
    Omega: FourierMap
    G: FourierMap
    J: FourierMap
    tOmega: FourierMap
    Xp: FourierMap
    Dc: FourierMap | None = None
    c_map: FourierMap | None = None


def grid_kitchen(cand: TorusCandidate, conserved: ConservedQuantity | None = None) -> GridKitchen:
    sys = cand.system
    bands, grid = cand.bands, cand.grid
    wg = work_grid(bands)
    kv = cand.k_values(wg)

    def analyze(samples):
        return FourierMap.from_samples(samples, bands, wg).with_grid(grid)

    if sys.geometry.is_canonical:  # constant structure: one point, no transform
        def structure(callback):
            return FourierMap.constant(callback(kv[(0,) * cand.d][None])[0], bands, grid)
    else:
        def structure(callback):
            return analyze(callback(kv))

    n2 = 2 * sys.n
    xh = analyze(sys.XH(kv)[..., :, None])
    dxh = analyze(sys.DXH(kv))
    om = structure(sys.geometry.omega_mat)
    g = structure(sys.geometry.metric_G)
    jj = structure(sys.geometry.iso_J)
    tom = structure(sys.geometry.tilde_omega)
    if sys.n_integrals:
        xp = analyze(sys.Xp(kv))
    else:
        xp = FourierMap.zeros(bands, grid, (n2, 0))
    kk = GridKitchen(cand=cand, wgrid=wg, k_vals=kv, XH=xh, DXH=dxh, Omega=om, G=g, J=jj,
                     tOmega=tom, Xp=xp)
    if conserved is not None:
        kk.Dc = analyze(np.asarray(conserved.Dc(kv))[..., None, :])
        kk.c_map = analyze(np.asarray(conserved.c(kv))[..., None, None])
    return kk


# ---------------------------------------------------------------------------
# frame bundle
# ---------------------------------------------------------------------------


@dataclass
class FrameBundle:
    L: FourierMap
    N0: FourierMap
    A: FourierMap
    B: FourierMap
    N: FourierMap
    P: FourierMap
    OmegaK: FourierMap
    Elag: FourierMap
    Esym: FourierMap
    Ered: FourierMap
    T: FourierMap
    avgT: np.ndarray
    LoperN: FourierMap
    Tc: FourierMap | None = None
    avgTc: np.ndarray | None = None
    Tdown: FourierMap | None = None
    residuals: dict = field(default_factory=dict)

    def norm_table(self, rho: float, delta: float) -> dict:
        """Measured majorant norms on the strips where each object is controlled."""
        out = {
            "L@rho": self.L.norm(rho).value,
            "LT@rho": self.L.norm(rho, transpose=True).value,
            "N@rho": self.N.norm(rho).value,
            "NT@rho": self.N.norm(rho, transpose=True).value,
            "B@rho": self.B.norm(rho).value,
            "A@rho": self.A.norm(rho).value,
            "OmegaK@rho-2delta": self.OmegaK.norm(max(rho - 2 * delta, 0.0)).value,
            "Elag@rho-2delta": self.Elag.norm(max(rho - 2 * delta, 0.0)).value,
            "Esym@rho-2delta": self.Esym.norm(max(rho - 2 * delta, 0.0)).value,
            "Ered@rho-2delta": self.Ered.norm(max(rho - 2 * delta, 0.0)).value,
            "T@rho-delta": self.T.norm(max(rho - delta, 0.0)).value,
        }
        if self.Tc is not None:
            out["Tc@rho-delta"] = self.Tc.norm(max(rho - delta, 0.0)).value
        return out


def invariance_error(cand: TorusCandidate, kitchen: GridKitchen | None = None) -> FourierMap:
    """E(theta) = X_H(K(theta)) - DK(theta) omega, band-truncated.

    Raises DomainEscapeError if the strip image of K is not inside the domain.
    """
    margin = cand.domain_margin()
    if margin <= 0:
        raise DomainEscapeError(f"K(T^d_rho) leaves the system domain (margin {margin:.3e})")
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    dk_omega = cand.dk().matmul_constant(cand.omega)
    return kk.XH - dk_omega


def tangent_frame(cand: TorusCandidate, kitchen: GridKitchen | None = None,
                  rank_tol: float = 1e-8) -> FourierMap:
    """L = (DK  X_p o K); raises FrameRankError if rank < n anywhere on the grid."""
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    L = concat_cols(cand.dk(), kk.Xp)
    vals = _real_samples(L, cand.grid)
    svals = np.linalg.svd(vals, compute_uv=False)
    smin = float(svals[..., -1].min())
    if smin <= rank_tol:
        raise FrameRankError(f"tangent frame rank-deficient: min singular value {smin:.3e}")
    return L


def _pointwise_inverse(f: FourierMap, wgrid: tuple, out_grid: tuple,
                       cond_limit: float = 1e12):
    """Grid-pointwise inverse of a real-analytic map (real LU, partial pivoting,
    one refinement step)."""
    vals = _real_samples(f, wgrid)
    eye = np.eye(vals.shape[-1])
    try:
        inv = np.linalg.solve(vals, np.broadcast_to(eye, vals.shape).copy())
        inv = inv + np.linalg.solve(vals, eye - vals @ inv)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"pointwise inversion failed: {exc}") from exc
    cond = float(
        np.max(np.abs(vals).sum(axis=-1).max(axis=-1) * np.abs(inv).sum(axis=-1).max(axis=-1))
    )
    if cond > cond_limit:
        raise SingularGramError(f"pointwise condition estimate {cond:.3e} exceeds {cond_limit:.1e}")
    out = FourierMap.from_samples(inv, f.bands, wgrid).with_grid(out_grid)
    return out, cond


def normal_frame(cand: TorusCandidate, L: FourierMap,
                 kitchen: GridKitchen | None = None):
    """(N0, B, A, N) per the metric construction; A = 0 under the Case III tag.

    B is symmetrized after inversion and the asymmetry residual is returned in
    the accompanying diagnostics dict.
    """
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    bands, grid = cand.bands, cand.grid
    diag = {}

    N0 = matmul(kk.J, L, out_bands=bands)
    GL = matmul(matmul(L.T, kk.G, out_bands=bands), L, out_bands=bands)
    B_raw, cond = _pointwise_inverse(GL, work_grid(bands), grid)
    diag["gram_condition"] = cond
    B = 0.5 * (B_raw + B_raw.T)
    diag["B_asymmetry"] = (B_raw - B_raw.T).norm(0.0).value * 0.5

    if cand.system.geometry.case_tag == "III":
        A = FourierMap.zeros(bands, grid, (cand.system.n, cand.system.n))
    else:
        tOmL = matmul(matmul(L.T, kk.tOmega, out_bands=bands), L, out_bands=bands)
        A_raw = -0.5 * matmul(matmul(B.T, tOmL, out_bands=bands), B, out_bands=bands)
        A = 0.5 * (A_raw - A_raw.T)
        diag["A_symmetric_part"] = (A_raw + A_raw.T).norm(0.0).value * 0.5
    N = matmul(L, A, out_bands=bands) + matmul(N0, B, out_bands=bands)
    return N0, B, A, N, diag


def isotropy_errors(cand: TorusCandidate, L: FourierMap, LT_Om: FourierMap,
                    kitchen: GridKitchen | None = None):
    """(Omega_K, E_lag): pulled-back form on the torus and Lagrangianity defect.

    ``LT_Om`` is the product L^T (Omega o K), shared with the reducibility error.
    """
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    bands = cand.bands
    dk = cand.dk()
    OmegaK = matmul(matmul(dk.T, kk.Omega, out_bands=bands), dk, out_bands=bands)
    Elag = matmul(LT_Om, L, out_bands=bands)
    return OmegaK, Elag


def symplecticity_error(cand: TorusCandidate, P: FourierMap,
                        kitchen: GridKitchen | None = None) -> FourierMap:
    """E_sym = P^T (Omega o K) P - Omega_0."""
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    n = cand.system.n
    omega0 = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    prod = matmul(matmul(P.T, kk.Omega, out_bands=cand.bands), P, out_bands=cand.bands)
    return prod.add_constant(-omega0)


def torsion(cand: TorusCandidate, N: FourierMap, kitchen: GridKitchen | None = None,
            NT_Om: FourierMap | None = None):
    """(T, <T>) with T = N^T (Omega o K) Loper(N), Loper N = DX_H o K . N + L_omega N.

    The Lie derivative of N is spectral (exact on the truncation); a singular
    averaged torsion raises TwistDegeneracyError.  ``NT_Om`` is the product
    N^T (Omega o K) when the caller already has it.
    """
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    bands = cand.bands
    loper_n = matmul(kk.DXH, N, out_bands=bands) + N.lie(cand.omega)
    if NT_Om is None:
        NT_Om = matmul(N.T, kk.Omega, out_bands=bands)
    T = matmul(NT_Om, loper_n, out_bands=bands)
    avgT = T.average().real
    _check_twist(avgT, "averaged torsion <T>", _twist_scale(cand, N, kk))
    return T, avgT, loper_n


def _twist_scale(cand: TorusCandidate, N: FourierMap, kitchen: GridKitchen) -> float:
    """Majorant bound at rho = 0 of the factors of T = N^T (Omega o K)(DX_H N + L_omega N).

    The two terms of L_op N are bounded apart: for an isochronous torus their
    sum cancels to round-off, so ||L_op N|| alone would not measure the size
    the average was computed at.
    """
    norm_n = N.norm(0.0).value
    return (N.norm(0.0, transpose=True).value * kitchen.Omega.norm(0.0).value
            * (kitchen.DXH.norm(0.0).value * norm_n + N.lie(cand.omega).norm(0.0).value))


def _check_twist(avg: np.ndarray, what: str, scale: float, cond_limit: float = 1e12):
    """Reject a singular or ill-conditioned average, and one that is round-off.

    ``scale`` bounds the majorant of the factors the average was taken from; an
    average whose smallest singular value is at most scale / cond_limit is a
    cancellation to round-off (a zero twist), whatever its own conditioning.
    """
    try:
        smin = float(np.linalg.svd(avg, compute_uv=False)[-1])
        inv = np.linalg.inv(avg)
    except np.linalg.LinAlgError as exc:
        raise TwistDegeneracyError(f"{what} is singular") from exc
    if not smin > scale / cond_limit:
        raise TwistDegeneracyError(
            f"{what} smallest singular value {smin:.3e} is at most {1 / cond_limit:.1e} "
            f"times its factors' scale {scale:.3e}"
        )
    cond = float(np.abs(avg).sum(axis=1).max() * np.abs(inv).sum(axis=1).max())
    if cond > cond_limit:
        raise TwistDegeneracyError(f"{what} condition {cond:.3e} exceeds {cond_limit:.1e}")


def extended_torsion(cand: TorusCandidate, T: FourierMap, N: FourierMap,
                     conserved: ConservedQuantity,
                     kitchen: GridKitchen | None = None):
    """(T_c, <T_c>, Tdown): the (n+1) x (n+1) bordered torsion for the target c.

    T_c = [[T, omega_hat], [Dc(K) N, 0]] with omega_hat = (omega, 0_{n-d}).
    """
    kk = kitchen if kitchen is not None else grid_kitchen(cand, conserved)
    if kk.Dc is None:
        kk = grid_kitchen(cand, conserved)
    bands, grid = cand.bands, cand.grid
    n = cand.system.n
    Tdown = matmul(kk.Dc, N, out_bands=bands)
    omega_hat = np.concatenate([cand.omega, np.zeros(n - cand.d)])
    box = T.coeffs.shape[: T.d]
    coeffs = np.zeros(box + (n + 1, n + 1), dtype=np.complex128)
    coeffs[..., :n, :n] = T.coeffs
    coeffs[..., n, :n] = Tdown.coeffs[..., 0, :]
    center = tuple(b for b in bands)
    coeffs[center + (slice(None, n), n)] += omega_hat
    Tc = FourierMap(coeffs, bands, grid)
    avgTc = Tc.average().real
    # row sums of the factor bounds: the rows of T plus omega_hat, and Dc N
    scale = max(_twist_scale(cand, N, kk) + float(np.max(np.abs(omega_hat))),
                kk.Dc.norm(0.0).value * N.norm(0.0).value)
    _check_twist(avgTc, "averaged extended torsion <T_c>", scale)
    return Tc, avgTc, Tdown


def reducibility_error(cand: TorusCandidate, L: FourierMap, T: FourierMap,
                       LoperN: FourierMap, LT_Om: FourierMap, NT_Om: FourierMap,
                       kitchen: GridKitchen | None = None) -> FourierMap:
    """E_red = -Omega_0 P^T (Omega o K)(DX_H o K . P + L_omega P) - Lambda.

    Assembled block-wise from the products LT_Om = L^T (Omega o K) and
    NT_Om = N^T (Omega o K) that the torsion and E_lag also use; the (1,2)
    block reuses the exact torsion product, so it vanishes identically
    (Lambda = [[0, T], [0, 0]] by construction).
    """
    kk = kitchen if kitchen is not None else grid_kitchen(cand)
    bands = cand.bands
    loper_l = matmul(kk.DXH, L, out_bands=bands) + L.lie(cand.omega)
    m11 = matmul(LT_Om, loper_l, out_bands=bands)
    m12 = matmul(LT_Om, LoperN, out_bands=bands)
    m21 = matmul(NT_Om, loper_l, out_bands=bands)
    m22 = matmul(NT_Om, LoperN, out_bands=bands)  # identical arithmetic to T
    from .fourier import assemble_blocks

    ered = assemble_blocks([[m21, m22 - T], [-m11, -m12]])
    return ered


def build_frames(cand: TorusCandidate, conserved: ConservedQuantity | None = None,
                 kitchen: GridKitchen | None = None) -> FrameBundle:
    """Construct the complete frame bundle for a candidate (ordinary or extended)."""
    kk = kitchen if kitchen is not None else grid_kitchen(cand, conserved)
    L = tangent_frame(cand, kk)
    N0, B, A, N, diag = normal_frame(cand, L, kk)
    P = concat_cols(L, N)
    LT_Om = matmul(L.T, kk.Omega, out_bands=cand.bands)
    NT_Om = matmul(N.T, kk.Omega, out_bands=cand.bands)
    OmegaK, Elag = isotropy_errors(cand, L, LT_Om, kk)
    Esym = symplecticity_error(cand, P, kk)
    T, avgT, loper_n = torsion(cand, N, kk, NT_Om)
    Ered = reducibility_error(cand, L, T, loper_n, LT_Om, NT_Om, kk)
    residuals = dict(diag)
    residuals["avg_OmegaK"] = float(np.max(np.abs(OmegaK.average())))
    residuals["Ered_block12"] = float(
        np.max(np.abs(Ered.coeffs[..., : cand.system.n, cand.system.n :]))
    )
    bundle = FrameBundle(L=L, N0=N0, A=A, B=B, N=N, P=P, OmegaK=OmegaK, Elag=Elag,
                         Esym=Esym, Ered=Ered, T=T, avgT=avgT, LoperN=loper_n,
                         residuals=residuals)
    if conserved is not None:
        Tc, avgTc, Tdown = extended_torsion(cand, T, N, conserved, kk)
        bundle.Tc, bundle.avgTc, bundle.Tdown = Tc, avgTc, Tdown
    return bundle


# ---------------------------------------------------------------------------
# measured hypothesis data for the certificate
# ---------------------------------------------------------------------------


def measure_hypothesis_data(cand: TorusCandidate, frames: FrameBundle,
                            sigma_factor: float = 1.1) -> dict:
    """Measured frame/twist norms plus default sigma bounds (factor x measured).

    The strict inequalities of the hypotheses need headroom; the default
    supplies sigma = sigma_factor * measured value.
    """
    dk = cand.dk()
    norm_dk = dk.norm(cand.rho).value
    norm_dkt = dk.norm(cand.rho, transpose=True).value
    norm_b = frames.B.norm(cand.rho).value
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
