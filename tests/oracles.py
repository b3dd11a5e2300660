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
- ``BoxMap`` holds a map as its whole index box and does the coefficient
  arithmetic on it, and ``box_matmul`` and ``box_solve_cohomological`` the
  product and the cohomological solve: the full-box forms that the half box of
  ``FourierMap`` must equal bit for bit on its k_d >= 0 half.  ``symmetrize``
  projects a full box onto f_-k = conj(f_k).
- ``irfftn_samples`` and ``rfftn_coefficients`` synthesize and analyse on the
  whole grid at once with numpy's n-dimensional real transforms, which the
  pruned, slab-wise transforms of ``kamtorus.fourier`` equal bit for bit, as
  ``assert_same_bits`` checks; ``svd_rank_check`` is the rank check of a frame
  by LAPACK's SVD at every point of the whole grid.
- ``ledger_diff``, ``contains_margin`` and ``empty_integrals`` compare two
  ledgers, measure a point set against a domain box, and build the integral
  callbacks of a system without first integrals.
- ``poisson_bracket``, ``verify_involution`` and ``verify_commutation``
  sample the involution and commutation defects of a system at random domain
  points: a lower bound of what ``TermTable.involution_bounds`` bounds.
- ``lattice_rows`` samples every callback behind the global constants on a
  deterministic complexified point set (``domain_points``) and reduces its
  entry-wise maxima as each row does, with no margin: a lower bound of every
  row, which the exact global constants must dominate.
"""

from dataclasses import dataclass

import numpy as np

from kamtorus.certificate import _INTEGRAL_FIELDS, ConstantLedger, GlobalNormConstants, _ledger
from kamtorus.fourier import TWO_PI, FourierMap, assemble_blocks, dealias_grid, matmul
from kamtorus import frames as fr
from kamtorus.frames import FrameBundle, GridKitchen, TorusCandidate
from kamtorus.hamiltonian import DomainBox, HamiltonianSystem, _linear_integrals, _sample_points
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
    omega = cand.system.geometry.Omega
    LT_Om = frames.L.T.matmul_constant(omega)
    # the products torsion forms, by its own calls, so the (1,2) block of E_red
    # is exactly zero
    NT_Om = frames.N.T.matmul_constant(omega)
    loper_n = matmul(kitchen.DXH, frames.N) + frames.N.lie(cand.dio.omega)
    OmegaK, Elag = fr.isotropy_errors(cand, frames.L, LT_Om)
    Esym = fr.symplecticity_error(cand, assemble_blocks([[frames.L, frames.N]]))
    Ered = fr.reducibility_error(cand, frames.L, frames.T, loper_n, LT_Om, NT_Om, kitchen)
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
        ("L@rho", frames.L.norm(rho), led["C_L"]),
        ("LT@rho", frames.L.norm(rho, transpose=True), led["C_LT"]),
        ("N@rho", frames.N.norm(rho), led["C_N"]),
        ("NT@rho", frames.N.norm(rho, transpose=True), led["C_NT"]),
        ("OmegaK", maps.OmegaK.norm(r2), led["C_OmegaK"] * loss2 * error_norm),
        ("Elag", maps.Elag.norm(r2), led["C_OmegaL"] * loss2 * error_norm),
        ("Esym", maps.Esym.norm(r2), led["C_sym"] * loss2 * error_norm),
        ("T", frames.T.norm(r1), led["C_T"]),
        ("Ered", maps.Ered.norm(r2), led["C_red"] * loss2 * error_norm),
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


def cauchy_bound(rho: float, value: float, delta: float, kind: str,
                 dim: int | None = None) -> float:
    """Cauchy estimate carrying a strip norm ``value`` from rho to rho - delta.

    kind "D":           ||D M||_{rho-delta}     <= (d/delta) ||M||_rho   (dim = d)
    kind "D-transpose": ||(D u)^T||_{rho-delta} <= (1/delta) ||u||_rho   (scalar u)
    kind "vector":      ||(D w)^T||_{rho-delta} <= (n/delta) ||w||_rho   (dim = n)
    """
    if not 0 < delta < rho:
        raise ValueError(f"delta must lie in (0, rho={rho}), got {delta}")
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
    return value * factor


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
# full-box arithmetic
# ---------------------------------------------------------------------------


def symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project a full box onto real-analytic symmetry f_{-k} = conj(f_k)."""
    d = coeffs.ndim - 2
    out = np.conj(coeffs[tuple(slice(None, None, -1) for _ in range(d))])
    out += coeffs
    out *= 0.5
    return out


def _box_axes(bands) -> list:
    """Broadcastable mode vectors -N_i .. N_i of the full box, one per axis."""
    out = []
    for i, n in enumerate(bands):
        shape = [1] * len(bands)
        shape[i] = 2 * n + 1
        out.append(np.arange(-n, n + 1).reshape(shape))
    return out


@dataclass(frozen=True)
class BoxMap:
    """A map held as its whole index box (2N_1+1, ..., 2N_d+1, n1, n2), k = 0 at
    ``tuple(bands)``, with the coefficient arithmetic done on the whole box."""

    coeffs: np.ndarray
    bands: tuple

    @property
    def d(self) -> int:
        return len(self.bands)

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[-2:]

    @property
    def half(self) -> np.ndarray:
        """The k_d >= 0 half of the box."""
        return half_of(self.coeffs, self.bands)

    @property
    def T(self) -> "BoxMap":
        return BoxMap(np.swapaxes(self.coeffs, -1, -2), self.bands)

    def block(self, rows, cols) -> "BoxMap":
        return BoxMap(self.coeffs[..., rows, cols], self.bands)

    def deriv(self, axis: int) -> "BoxMap":
        k = np.arange(-self.bands[axis], self.bands[axis] + 1)
        shape = [1] * self.coeffs.ndim
        shape[axis] = k.size
        return BoxMap(self.coeffs * (TWO_PI * 1j * k.reshape(shape)), self.bands)

    def lie(self, omega) -> "BoxMap":
        out = self.deriv(0) * (-omega[0])
        for i in range(1, self.d):
            out = out + self.deriv(i) * (-omega[i])
        return out

    def average(self) -> np.ndarray:
        return np.array(self.coeffs[tuple(self.bands)])

    def norm(self, rho: float, transpose: bool = False) -> float:
        k1 = np.zeros(tuple(2 * n + 1 for n in self.bands))
        for ax in _box_axes(self.bands):
            k1 = k1 + np.abs(ax)
        weights = np.exp(TWO_PI * rho * k1)
        entry = np.tensordot(weights, np.abs(self.coeffs), axes=(tuple(range(self.d)),) * 2)
        return float(np.max(entry.sum(axis=0 if transpose else 1), initial=0.0))

    def truncate(self, bands) -> "BoxMap":
        sl = tuple(slice(n - nb, n + nb + 1) for n, nb in zip(self.bands, bands))
        return BoxMap(self.coeffs[sl].copy(), tuple(bands))

    def __add__(self, other: "BoxMap") -> "BoxMap":
        return BoxMap(self.coeffs + other.coeffs, self.bands)

    def __sub__(self, other: "BoxMap") -> "BoxMap":
        return BoxMap(self.coeffs - other.coeffs, self.bands)

    def __neg__(self) -> "BoxMap":
        return BoxMap(-self.coeffs, self.bands)

    def __mul__(self, scalar) -> "BoxMap":
        return BoxMap(self.coeffs * scalar, self.bands)

    def add_constant(self, matrix) -> "BoxMap":
        out = self.coeffs.copy()
        out[tuple(self.bands)] += np.asarray(matrix, dtype=np.complex128)
        return BoxMap(out, self.bands)

    def matmul_constant(self, matrix) -> "BoxMap":
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        c = self.coeffs
        if c.shape[-2] < 2 or (matrix.shape[-1] < 2 and c.strides[-1] != c.itemsize):
            return BoxMap(c @ matrix, self.bands)
        flat = c.reshape(-1, c.shape[-1]) @ matrix
        return BoxMap(flat.reshape(c.shape[:-1] + matrix.shape[1:]), self.bands)

    def rmatmul_constant(self, matrix) -> "BoxMap":
        matrix = np.asarray(matrix, dtype=np.complex128)
        if np.any(matrix.imag):
            return BoxMap(np.einsum("ij,...jk->...ik", matrix, self.coeffs), self.bands)
        x = np.ascontiguousarray(self.coeffs).view(np.float64)
        out = np.zeros(x.shape[:-2] + (matrix.shape[0], x.shape[-1]))
        term = np.empty(x.shape[:-2] + x.shape[-1:])
        for i, row in enumerate(matrix.real):
            for j in np.flatnonzero(row):
                out[..., i, :] += np.multiply(x[..., j, :], row[j], out=term)
        return BoxMap(out.view(np.complex128), self.bands)

    def is_constant(self) -> bool:
        flat = self.coeffs.reshape(-1, *self.shape)
        center = flat.shape[0] // 2
        return not (np.any(flat[:center]) or np.any(flat[center + 1:]))

    def to_json_dict(self) -> dict:
        flat = self.coeffs.reshape(-1)
        pairs = np.empty(2 * flat.size, dtype=np.float64)
        pairs[0::2] = flat.real
        pairs[1::2] = flat.imag
        return {"dims": [self.d, self.shape[0], self.shape[1]], "bands": list(self.bands),
                "coeffs": pairs.tolist()}


def box_matmul(a: BoxMap, b: BoxMap) -> BoxMap:
    """The product of two maps on one band: zero and constant operands by the
    shortcuts, others by rfftn of the whole grid's irfftn samples' product
    (each of which the slab-wise transforms equal bit for bit)."""
    if not (np.any(a.coeffs) and np.any(b.coeffs)):
        return BoxMap(np.zeros(a.coeffs.shape[:-1] + b.shape[1:], dtype=np.complex128), a.bands)
    if a.is_constant():
        return b.rmatmul_constant(a.average())
    if b.is_constant():
        return a.matmul_constant(b.average())
    work = dealias_grid(a.bands, b.bands, a.bands)
    samples = irfftn_samples(a, work) @ irfftn_samples(b, work)
    return BoxMap(rfftn_coefficients(samples, a.bands), a.bands)


def box_solve_cohomological(v: BoxMap, omega) -> BoxMap:
    """u_k = -v_k / (2 pi i k.omega) off k = 0, u_0 = 0, over the whole box."""
    kdot = np.zeros(tuple(2 * n + 1 for n in v.bands))
    for w, ax in zip(omega, _box_axes(v.bands)):
        kdot = kdot + w * ax
    center = tuple(v.bands)
    denom = TWO_PI * 1j * kdot
    denom[center] = 1.0
    coeffs = -v.coeffs / denom.reshape(denom.shape + (1, 1))
    coeffs[center] = 0.0
    return BoxMap(coeffs, v.bands)


# ---------------------------------------------------------------------------
# whole-grid transforms
# ---------------------------------------------------------------------------


def irfftn_samples(f, grid):
    """Reference synthesis: irfftn of the whole k_d >= 0 half spectrum on ``grid``."""
    half = np.zeros(grid[:-1] + (grid[-1] // 2 + 1,) + f.shape, dtype=np.complex128)
    rows = [np.arange(-n, n + 1) % m for n, m in zip(f.bands[:-1], grid[:-1])]
    half[np.ix_(*rows, np.arange(f.bands[-1] + 1))] = f.coeffs[..., f.bands[-1]:, :, :]
    return np.fft.irfftn(half, s=grid, axes=tuple(range(f.d)), norm="forward")


def rfftn_coefficients(samples, bands):
    """Reference analysis: the box ``bands`` cut from the whole rfftn spectrum,
    its k_d < 0 half filled by conjugate symmetry, then symmetrized."""
    d = len(bands)
    hat = np.fft.rfftn(samples, axes=tuple(range(d)), norm="forward")
    rows = [np.arange(-n, n + 1) % m for n, m in zip(bands[:-1], samples.shape[:d - 1])]
    upper = hat[np.ix_(*rows, np.arange(bands[-1] + 1))]
    lower = np.conj(upper[tuple(slice(None, None, -1) for _ in range(d - 1))])
    box = np.concatenate([lower[..., :0:-1, :, :], upper], axis=d - 1)
    return 0.5 * (box + np.conj(box[tuple(slice(None, None, -1) for _ in range(d))]))


def half_of(box: np.ndarray, bands) -> np.ndarray:
    """The k_d >= 0 half of a full box (2N_1+1, ..., 2N_d+1, n1, n2): what a
    ``FourierMap`` stores."""
    return np.ascontiguousarray(box[..., bands[-1]:, :, :])


def assert_same_bits(got, ref):
    assert np.array_equal(got, ref)
    assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


def svd_rank_check(L, grid):
    """The rank check as it was: LAPACK's SVD at every grid point decides."""
    smin = float(np.linalg.svd(irfftn_samples(L, grid), compute_uv=False)[..., -1].min())
    if smin <= fr.RANK_TOL:
        raise fr.HypothesisError("frame rank",
                                 f"tangent frame rank-deficient: min singular value {smin:.3e}")



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
    n = box.y_center.size
    x, y = z[..., :n], z[..., n:]
    return float(min(box.imag_width - np.abs(x.imag).max(),
                     box.y_radius - np.abs(y - box.y_center).max()))


def empty_integrals(n: int):
    """Integral callbacks for the d = n case: zero-width arrays, same code path."""
    return _linear_integrals(np.zeros((0, n)))


# ---------------------------------------------------------------------------
# sampled involution and commutation
# ---------------------------------------------------------------------------


def poisson_bracket(Df, Dg, omega: np.ndarray, z) -> np.ndarray:
    """{f, g}(z) = Df(z) Omega^{-1} (Dg(z))^T for the constant matrix Omega."""
    z = np.asarray(z)
    sol = np.linalg.solve(omega, np.asarray(Dg(z))[..., :, None])[..., 0]
    return np.einsum("...i,...i->...", np.asarray(Df(z)), sol)


@dataclass
class InvolutionReport:
    max_bracket: float
    passed: bool
    details: dict


def verify_involution(sys: HamiltonianSystem, sample_count: int = 200, seed: int = 0,
                      tol: float = 1e-10) -> InvolutionReport:
    """The largest |{H, p_j}| and |{p_i, p_j}| at ``sample_count`` random domain
    points; a vacuous pass when the system has no first integrals."""
    m = sys.n_integrals
    if m == 0:
        return InvolutionReport(0.0, True, {"note": "no first integrals: vacuous pass"})
    z = _sample_points(sys, sample_count, seed)
    om = sys.geometry.Omega

    def dp(j):
        return lambda w: sys.Dp(w)[..., j, :]

    pairs = {f"{{H,p{j}}}": (sys.DH, dp(j)) for j in range(m)}
    pairs.update({f"{{p{i},p{j}}}": (dp(i), dp(j)) for i in range(m) for j in range(i + 1, m)})
    details = {name: float(np.max(np.abs(poisson_bracket(f, g, om, z))))
               for name, (f, g) in pairs.items()}
    worst = max(details.values())
    return InvolutionReport(worst, worst <= tol, details)


def verify_commutation(sys: HamiltonianSystem, sample_count: int = 200, seed: int = 0,
                       tol: float = 1e-10) -> InvolutionReport:
    """The largest |DX_H X_p - DX_p X_H| and pairwise X_p commutation defect at
    ``sample_count`` random domain points; a vacuous pass without first integrals."""
    if sys.n_integrals == 0:
        return InvolutionReport(0.0, True, {"note": "no first integrals: vacuous pass"})
    z = _sample_points(sys, sample_count, seed)
    dXp, Xp = sys.DXp(z), sys.Xp(z)
    lhs = np.einsum("...ij,...ja->...ia", sys.DXH(z), Xp)
    rhs = np.einsum("...iaj,...j->...ia", dXp, sys.XH(z))
    # (D X_{p_a}) X_{p_b} is symmetric in (a, b) when the fields commute
    pair = np.einsum("...iaj,...jb->...iab", dXp, Xp)
    details = {"DXH.Xp - DXp[XH]": float(np.max(np.abs(lhs - rhs))),
               "pairwise Xp commutation": float(np.max(np.abs(pair - np.swapaxes(pair, -1, -2))))}
    worst = max(details.values())
    return InvolutionReport(worst, worst <= tol, details)


# ---------------------------------------------------------------------------
# the sample lattice of the global constants
# ---------------------------------------------------------------------------

LATTICE_DENSITY = 2048  # points in each of the three sample sets of domain_points
LATTICE_SLICE = 1024  # points per callback evaluation in lattice_rows


def rank1_lattice(npts: int, dim: int) -> np.ndarray:
    """Deterministic rank-1 lattice in [0,1)^dim (Korobov-style generator)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    gen = np.array([np.modf(phi ** (i + 1))[0] for i in range(dim)])
    j = np.arange(npts)[:, None]
    return np.modf(j * gen[None, :] + 0.5 / npts)[0]


def domain_points(sys: HamiltonianSystem) -> np.ndarray:
    """Complexified sample set: a rank-1 lattice through the domain box, plus a
    sweep with the imaginary parts pinned at the extreme width, cycling through
    all 2^n sign patterns of Im x, plus real points."""
    box = sys.domain
    a = m = sys.n  # the angles and the disc-constrained momenta
    u = rank1_lattice(LATTICE_DENSITY, 2 * a + 2 * m)
    x = u[:, :a] + 1j * box.imag_width * (2.0 * u[:, a : 2 * a] - 1.0)
    ang = 2.0 * np.pi * u[:, 2 * a : 2 * a + m]
    rad = box.y_radius * u[:, 2 * a + m :]
    y = box.y_center + rad * np.exp(1j * ang)
    interior = np.concatenate([x, y], axis=1)

    u2 = rank1_lattice(LATTICE_DENSITY, a + m)
    signs = 1.0 - 2.0 * ((np.arange(LATTICE_DENSITY)[:, None] >> np.arange(a)) & 1)
    x2 = u2[:, :a] + 1j * box.imag_width * signs
    y2 = box.y_center + box.y_radius * np.exp(2j * np.pi * u2[:, a:])
    boundary = np.concatenate([x2, y2], axis=1)
    real_pts = np.concatenate(
        [u2[:, :a], box.y_center + 0.9 * box.y_radius * (2 * u2[:, a:] - 1)], axis=1
    ).astype(np.complex128)
    return np.concatenate([interior, boundary, real_pts], axis=0)


def lattice_sup(f, z: np.ndarray, slice_len: int = LATTICE_SLICE) -> np.ndarray:
    """Entry-wise max of |f| over the points z, evaluated ``slice_len`` points at
    a time (a max is exact in any order, so the slicing cannot change a bit).
    A tuple of callbacks (the partial derivatives of one, see :func:`_partials`)
    gives the stack of their maxima along a last axis."""
    if isinstance(f, tuple):
        return np.stack([lattice_sup(g, z, slice_len) for g in f], axis=-1)
    out = np.abs(f(z[:slice_len])).max(axis=0)
    for start in range(slice_len, len(z), slice_len):
        np.maximum(out, np.abs(f(z[start:start + slice_len])).max(axis=0), out=out)
    return out


def _partials(f, dim: int, h: float = 1e-5) -> tuple:
    """The central differences of a callback (or of a tuple of them) along each
    of the ``dim`` coordinates: d M_ij / dz_l is entry [i, j] of item l (exactly
    0 for a constant callback).  They are kept apart so that no sample holds a
    derivative tensor whole."""
    if isinstance(f, tuple):
        return tuple(_partials(g, dim, h) for g in f)
    return tuple((lambda z, e=e: (f(z + e) - f(z - e)) / (2 * h)) for e in h * np.eye(dim))


def _constant_callback(mat: np.ndarray):
    """The callback that returns the constant matrix ``mat`` at every point."""
    return lambda z: np.broadcast_to(mat, z.shape[:-1] + mat.shape)


def _max_sum(axes):
    """The reduction of an entry-wise sup to a row: the largest sum over ``axes``."""
    return lambda s: s.sum(axis=axes).max()


def lattice_rows(sys: HamiltonianSystem, selector="H", z: np.ndarray | None = None,
                 slice_len: int = LATTICE_SLICE) -> dict:
    """Every global row as the margin-free maximum over the points ``z``
    (default :func:`domain_points`) of its callback's entry-wise |.|, reduced
    as the row reduces it; c is H or ("p", j), whose Hessian is Omega DX_H or
    Omega DX_{p_j}.  The structure matrices are swept as callbacks that return
    them at every point.  Each callback is swept once, however many rows
    reduce its sup.  The p / X_p rows of a system without first integrals are
    0.  A row that is not finite raises a ValueError naming it."""
    z = domain_points(sys) if z is None else z
    geo = sys.geometry
    om, tom, g, jj = (_constant_callback(mat) for mat in (geo.Omega, geo.tOmega, geo.G, geo.J))
    if selector == "H":
        dc, d2c = sys.DH, lambda w: om(w) @ sys.DXH(w)
    else:
        j = selector[1]
        dc, d2c = (lambda w: sys.Dp(w)[..., j, :]), (lambda w: om(w) @ sys.DXp(w)[..., :, j, :])
    n2 = 2 * sys.n

    def d(f):
        return _partials(f, n2)

    d_tom, d_g, d_j = (d(f) for f in (tom, g, jj))

    def total(s):
        return s.sum()

    rows = {  # Dp is (m, 2n) and Xp (2n, m)
        "c_Omega_0": (om, _max_sum(1)), "c_Omega_1": (d(om), _max_sum((1, 2))),
        "c_tOmega_0": (tom, _max_sum(1)), "c_tOmega_1": (d_tom, _max_sum((1, 2))),
        "c_tOmega_2": (d(d_tom), _max_sum((1, 2, 3))),
        "c_G_0": (g, _max_sum(1)), "c_G_1": (d_g, _max_sum((1, 2))),
        "c_G_2": (d(d_g), _max_sum((1, 2, 3))),
        "c_J_0": (jj, _max_sum(1)), "c_J_1": (d_j, _max_sum((1, 2))),
        "c_J_2": (d(d_j), _max_sum((1, 2, 3))),
        "c_JT_0": (jj, _max_sum(0)), "c_JT_1": (d_j, _max_sum((0, 2))),
        "c_H_1": (sys.DH, total), "c_XH_0": (sys.XH, lambda s: s.max()),
        "c_XH_1": (sys.DXH, _max_sum(1)), "c_XHT_1": (sys.DXH, total),
        "c_XH_2": (sys.D2XH, _max_sum((1, 2))),
        "c_p_1": (sys.Dp, _max_sum(1)), "c_pT_1": (sys.Dp, total),
        "c_Xp_0": (sys.Xp, _max_sum(1)), "c_XpT_0": (sys.Xp, _max_sum(0)),
        "c_Xp_1": (sys.DXp, _max_sum((1, 2))), "c_XpT_1": (sys.DXp, _max_sum((0, 2))),
        "c_Xp_2": (sys.D2Xp, _max_sum((1, 2, 3))), "c_XpT_2": (sys.D2Xp, _max_sum((0, 2, 3))),
        "c_c_1": (dc, total), "c_c_2": (d2c, total),
    }
    sups: dict = {}  # callback -> its entry-wise sup over z
    out = {}
    for name, (f, reduce) in rows.items():
        if sys.n_integrals == 0 and name in _INTEGRAL_FIELDS:
            out[name] = 0.0
            continue
        if f not in sups:
            sups[f] = lattice_sup(f, z, slice_len)
        out[name] = float(reduce(sups[f]))
        if not np.isfinite(out[name]):
            raise ValueError(f"lattice row {name} is not finite")
    return out
