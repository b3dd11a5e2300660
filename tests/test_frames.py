"""Frame construction, geometric error maps, torsion, reducibility."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from kamtorus import fourier
from kamtorus.cohomology import russmann_constant
from kamtorus.fourier import FourierMap, assemble_blocks, dealias_grid, matmul
from kamtorus.frames import (
    RANK_TOL,
    HypothesisError,
    TorusCandidate,
    _clears_rank_tol,
    _pointwise_inverse,
    _twist_scale,
    build_frames,
    extended_torsion,
    grid_kitchen,
    invariance_error,
    normal_frame,
    tangent_frame,
    torsion,
    work_grid,
)
from kamtorus.hamiltonian import builtin_system
from kamtorus.solver import iterate_newton

from conftest import GOLDEN, dk_map, on_band, random_map, scaled_structure, seed_run
from oracles import empty_integrals, error_maps, irfftn_samples, svd_rank_check


def perturb_candidate(cand, scale=1e-3, seed=0, decay=1.2):
    """Add a small analytic periodic perturbation to K."""
    rng = np.random.default_rng(seed)
    noise = random_map(cand.bands, cand.k_per.shape, rng, decay=decay,
                       scale=scale)
    return replace(cand, k_per=cand.k_per + noise)


# ------------------------------------------------------------- exact zeroing


def test_exact_torus_all_errors_vanish(exact_torus_b):
    cand = exact_torus_b
    kk = grid_kitchen(cand)
    E = invariance_error(cand, kk)
    assert E.norm(cand.rho) <= 1e-13
    fr = build_frames(cand, kk)
    maps = error_maps(cand, fr, kk)
    mid = cand.rho * 0.6
    assert maps.OmegaK.norm(mid) <= 1e-11
    assert maps.Elag.norm(mid) <= 1e-11
    assert maps.Esym.norm(mid) <= 1e-11
    assert maps.Ered.norm(mid) <= 1e-10
    # the averaged torsion is comfortably invertible at zero coupling
    assert abs(np.linalg.det(fr.avgT)) > 0.5


def test_invariance_error_order_epsilon_and_pointwise_oracle(perturbed_candidate_a):
    cand = perturbed_candidate_a
    eps = np.abs(cand.system.table.v).max()  # V = eps (cos 2 pi x1 + cos 2 pi (x1 - x2))
    E = invariance_error(cand, grid_kitchen(cand))
    norm = E.norm(cand.rho)
    assert 0.1 * eps < norm < 100 * eps
    # direct grid evaluation of X_H o K - DK omega
    wg = work_grid(cand.bands)
    kv = cand.k_values(wg)
    direct = cand.system.XH(kv) - dk_map(cand).eval_grid(wg).real @ cand.dio.omega
    sampled = E.eval_grid(wg)[..., 0].real
    assert np.max(np.abs(direct - sampled)) < 1e-12


def test_invariance_error_phase_shift_invariant(perturbed_candidate_a):
    cand = perturbed_candidate_a
    alpha = np.array([0.37, 0.11])
    ks = [np.arange(-n, n + 1) for n in cand.bands]
    phase = np.exp(2j * np.pi * (np.add.outer(ks[0] * alpha[0], ks[1] * alpha[1])))
    shifted = cand.k_per.coeffs * phase[..., None, None]
    k_shift = FourierMap.from_coeffs(shifted)
    # the identity part contributes K(theta + alpha) = theta + alpha + per(theta+alpha)
    const = np.zeros((2 * cand.system.n, 1))
    const[: cand.d, 0] = alpha
    k_shift = k_shift.add_constant(const)
    cand2 = replace(cand, k_per=k_shift)
    n1 = invariance_error(cand, grid_kitchen(cand)).norm(cand.rho)
    n2 = invariance_error(cand2, grid_kitchen(cand2)).norm(cand2.rho)
    assert abs(n1 - n2) < 1e-9 * max(1, n1)


def test_domain_escape_detected(perturbed_candidate_a):
    cand = perturbed_candidate_a
    bad = replace(cand, rho=cand.system.domain.imag_width + 0.05)
    with pytest.raises(HypothesisError) as info:
        invariance_error(bad, grid_kitchen(bad))
    assert info.value.hypothesis == "domain"


# ------------------------------------------------------------ tangent frame


def test_tangent_frame_lagrangian_case_is_dk(perturbed_candidate_a):
    cand = perturbed_candidate_a
    L = tangent_frame(cand, grid_kitchen(cand))
    assert L.shape == (4, 2)
    assert np.max(np.abs(L.coeffs - dk_map(cand).coeffs)) == 0.0


def frames_with_singular_values(rng, m, r, smax, smin):
    """One m x r frame per entry of ``smin``: random orthonormal factors around
    singular values spread from smax down to smin."""
    out = []
    for hi, lo in zip(smax, smin):
        u, _ = np.linalg.qr(rng.standard_normal((m, r)))
        v, _ = np.linalg.qr(rng.standard_normal((r, r)))
        out.append((u * np.geomspace(hi, lo, r)) @ v.T)
    return np.array(out)


@pytest.mark.parametrize("m, r", [(4, 2), (6, 3), (6, 2), (8, 4), (3, 3), (4, 1)])
def test_rank_pretest_never_accepts_what_the_svd_rejects(m, r):
    """Frame by frame, a pass of the pre-test implies an SVD above RANK_TOL;
    well-conditioned frames pass it, tiny or near-deficient ones go to the SVD."""
    rng = np.random.default_rng(10 * m + r)
    n = 400
    smax = 10.0 ** rng.uniform(-4, 4, n)
    smin = np.concatenate([smax[:n // 2] * 10.0 ** rng.uniform(-3, 0, n // 2),
                           RANK_TOL * rng.uniform(0.25, 4.0, n // 2)])
    if r == 1:  # one singular value: it is the smallest
        smax = smin
    frames = frames_with_singular_values(rng, m, r, smax, np.minimum(smin, smax))
    svd_min = np.linalg.svd(frames, compute_uv=False)[:, -1]
    passed = np.array([_clears_rank_tol(f[None]) for f in frames])
    assert not np.any(passed & (svd_min <= RANK_TOL))
    assert np.all(passed[svd_min > 1e-3 * smax + 3 * RANK_TOL])
    assert _clears_rank_tol(frames[passed]) and not _clears_rank_tol(frames)
    assert not _clears_rank_tol(frames[passed] * 1e-9)
    bad = frames[passed].copy()
    bad[7, 0, 0] = np.nan
    assert not _clears_rank_tol(bad)


def test_rank_check_takes_the_svd_only_when_the_pretest_fails(monkeypatch, perturbed_candidate_a):
    cand = perturbed_candidate_a
    kk = grid_kitchen(cand)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert tangent_frame(cand, kk) is kk.L and not calls
    tiny = replace(kk, L=kk.L * 1e-9)  # full rank, but every singular value below RANK_TOL
    with pytest.raises(HypothesisError) as ref:
        svd_rank_check(tiny.L, cand.grid)
    calls.clear()
    with pytest.raises(HypothesisError) as got:
        tangent_frame(cand, tiny)
    assert got.value.hypothesis == "frame rank"
    assert str(got.value) == str(ref.value) and calls == [1]


def test_frame_rank_deficient_at_one_grid_point_raises_svd_text():
    """DK loses rank only at theta = (0, 0): the first column is
    (1 - cos 2 pi t1, 0, cos 2 pi t1 sin 2 pi t2, 0)."""
    cand = seed_run(epsilon=1e-3, bands=[4, 4])[0].cand
    t1, t2 = np.meshgrid(*(np.arange(9) / 9,) * 2, indexing="ij")
    samples = np.zeros((9, 9, 4, 1))
    samples[..., 0, 0] = -np.sin(2 * np.pi * t1) / (2 * np.pi)
    samples[..., 2, 0] = np.sin(2 * np.pi * t1) * np.sin(2 * np.pi * t2) / (2 * np.pi)
    cand = replace(cand, k_per=cand.k_per + FourierMap.from_samples(samples, (4, 4)))
    kk = grid_kitchen(cand)
    vals = irfftn_samples(kk.L, cand.grid)
    svals = np.linalg.svd(vals, compute_uv=False)[..., -1]
    assert np.sum(svals <= RANK_TOL) == 1 and svals[0, 0] <= RANK_TOL
    assert _clears_rank_tol(vals[1:]) and not _clears_rank_tol(vals)
    with pytest.raises(HypothesisError) as ref:
        svd_rank_check(kk.L, cand.grid)
    with pytest.raises(HypothesisError) as got:
        tangent_frame(cand, kk)
    assert got.value.hypothesis == "frame rank" and str(got.value) == str(ref.value)


def test_tangent_frame_includes_symmetry_column(exact_torus_b):
    L = tangent_frame(exact_torus_b, grid_kitchen(exact_torus_b))
    assert L.shape == (6, 3)
    col = L.block(slice(None), slice(2, 3)).average().real
    assert np.allclose(col[:, 0], [0, 1, 1, 0, 0, 0], atol=1e-12)


def test_compatibility_average_identity(perturbed_candidate_a):
    """<L^T (Omega o K) E> = 0 on any candidate, not only near-invariant ones."""
    for seed in range(3):
        cand = perturb_candidate(perturbed_candidate_a, scale=5e-3, seed=seed)
        kk = grid_kitchen(cand)
        E = invariance_error(cand, kk)
        L = tangent_frame(cand, kk)
        eta_N = matmul(L.T, E.rmatmul_constant(cand.system.geometry.Omega))
        assert np.max(np.abs(eta_N.average())) <= 1e-12 * max(
            1.0, E.norm(cand.rho)
        )


# ------------------------------------------------------------- normal frame


def free_rotor_candidate(n=2, bands=(6, 6)):
    return seed_run(epsilon=0.0, bands=list(bands), rho0=0.05)[0].cand


def test_free_rotor_frame_hand_values():
    cand = free_rotor_candidate()
    kk = grid_kitchen(cand)
    L = tangent_frame(cand, kk)
    B, A, N = normal_frame(cand, L)
    N0 = L.rmatmul_constant(cand.system.geometry.J)
    eye2 = np.eye(2)
    assert np.allclose(L.average().real, np.vstack([eye2, 0 * eye2]), atol=1e-13)
    assert np.allclose(N0.average().real, np.vstack([0 * eye2, eye2]), atol=1e-13)
    assert np.allclose(B.average().real, eye2, atol=1e-12)
    assert np.max(np.abs(A.coeffs)) == 0.0  # Case III
    assert np.allclose(N.average().real, np.vstack([0 * eye2, eye2]), atol=1e-12)
    T, avgT = torsion(cand, N, kk, _twist_scale(cand, N, kk))
    assert np.allclose(avgT, eye2, atol=1e-11)
    assert T.norm(0.02) == pytest.approx(1.0, abs=1e-11)


def test_pointwise_inverse_matches_neumann_oracle(perturbed_candidate_a):
    cand = perturb_candidate(perturbed_candidate_a, scale=2e-2, seed=3)
    kk = grid_kitchen(cand)
    L = tangent_frame(cand, kk)
    GL = matmul(L.T.matmul_constant(cand.system.geometry.G), L)
    B_raw, _ = _pointwise_inverse(GL)
    B, A, N = normal_frame(cand, L)
    wg = work_grid(cand.bands)
    vals = GL.eval_grid(wg)
    # Neumann-series refinement oracle, independent of the elimination in _pointwise_inverse
    X = np.linalg.inv(vals)
    for _ in range(3):
        X = X @ (2 * np.eye(vals.shape[-1]) - vals @ X)
    oracle = FourierMap.from_samples(X, cand.bands)
    diff = (B - 0.5 * (oracle + oracle.T)).norm(0.0)
    assert diff < 1e-12 * max(1.0, B.norm(0.0))
    assert (B_raw - B_raw.T).norm(0.0) * 0.5 < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_pointwise_inverse_matches_per_point_inv(n):
    rng = np.random.default_rng(40 + n)
    m = on_band(random_map((3, 2), (n, n), rng, decay=1.0, scale=3.0), (6, 4))
    spd = matmul(m.T, m).add_constant(np.eye(n))  # exact product: eigenvalues >= 1 pointwise
    bands = spd.bands
    inv, cond = _pointwise_inverse(spd)
    samples = irfftn_samples(spd, work_grid(bands))
    ref = FourierMap.from_samples(np.linalg.inv(samples), bands)
    assert np.max(np.abs(inv.coeffs - ref.coeffs)) <= 1e-13 * np.max(np.abs(ref.coeffs))
    assert 10.0 < cond < 1e3  # conditioned well away from the identity


def _nan_sample_map():
    samples = np.broadcast_to(np.eye(2), work_grid((3, 3)) + (2, 2)).copy()
    samples[1, 2, 0, 1] = np.nan
    return FourierMap.from_samples(samples, (3, 3))


@pytest.mark.parametrize("make", [lambda: FourierMap.constant([[0.0, 1.0], [1.0, 0.0]], (3, 3)),
                                  lambda: FourierMap.constant([[1.0, 1.0], [1.0, 1.0]], (3, 3)),
                                  _nan_sample_map], ids=["swap", "rank-one", "nan-sample"])
def test_pointwise_inverse_rejects_non_spd(make):
    with pytest.raises(HypothesisError, match="pivot") as info:
        _pointwise_inverse(make())
    assert info.value.hypothesis == "Gram"


@pytest.mark.parametrize("band, size", [(16, 72), (32, 144), (64, 288)])
def test_work_grid_is_3_smooth_and_holds_the_product_grid(band, size):
    bands = (band, band)
    grid = work_grid(bands)
    assert grid == (size, size)
    for m, product in zip(grid, dealias_grid(bands, bands)):
        assert m >= product >= 4 * band + 1
        for p in (2, 3):
            while m % p == 0:
                m //= p
        assert m == 1


def test_case_iii_forces_zero_A(exact_torus_b):
    fr = build_frames(exact_torus_b, grid_kitchen(exact_torus_b))
    assert np.max(np.abs(fr.A.coeffs)) == 0.0


@functools.lru_cache(maxsize=1)
def converged_iterate():
    result = iterate_newton(*seed_run(epsilon=5e-3, bands=[8, 8], max_iters=6, stop_tol=1e-10))
    assert result.converged
    return result.iterate


@pytest.mark.parametrize("structure", ["canonical", "scaled"])
@pytest.mark.parametrize("torus", ["seed", "converged"])
def test_structure_products_equal_full_band_constant_products_bit_for_bit(torus, structure):
    """Each product of a map by a structure matrix that the frames, the error
    maps and the Newton step form directly has the bytes of ``matmul`` by the
    matrix held as a full-band constant map, on the constant seed frame and on
    a converged torus; the twist scale's row sum of |Omega| is that map's norm."""
    it = seed_run(epsilon=5e-3, bands=[8, 8])[0] if torus == "seed" else converged_iterate()
    cand = it.cand
    if structure == "scaled":
        cand = replace(cand, system=replace(cand.system, geometry=scaled_structure(2)))
    kk = grid_kitchen(cand)
    L = tangent_frame(cand, kk)
    assert fourier._is_constant(L) == (torus == "seed")
    N = normal_frame(cand, L)[2]
    E = invariance_error(cand, kk)
    dk = L.block(slice(None), slice(0, cand.d))
    P = assemble_blocks([[L, N]])
    geo = cand.system.geometry
    om, g, j, tom = (FourierMap.constant(m, cand.bands)
                     for m in (geo.Omega, geo.G, geo.J, geo.tOmega))
    pairs = [(L.rmatmul_constant(geo.J), matmul(j, L)),
             (L.T.matmul_constant(geo.G), matmul(L.T, g)),
             (L.T.matmul_constant(geo.tOmega), matmul(L.T, tom)),
             (N.T.matmul_constant(geo.Omega), matmul(N.T, om)),
             (E.rmatmul_constant(geo.Omega), matmul(om, E)),
             (dk.T.matmul_constant(geo.Omega), matmul(dk.T, om)),
             (P.T.matmul_constant(geo.Omega), matmul(P.T, om))]
    for got, want in pairs:
        assert got.bands == want.bands == cand.bands
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert np.abs(geo.Omega).sum(axis=1).max() == om.norm(0.0)


# ------------------------------------------------------- error-map structure


def test_reducibility_block12_vanishes_identically(perturbed_candidate_a):
    for seed in (0, 1):
        cand = perturb_candidate(perturbed_candidate_a, scale=1e-2, seed=seed)
        kk = grid_kitchen(cand)
        maps = error_maps(cand, build_frames(cand, kk), kk)
        n = cand.system.n
        block12 = maps.Ered.coeffs[..., :n, n:]
        assert np.max(np.abs(block12)) == 0.0


def test_avg_pullback_vanishes_on_any_candidate(perturbed_candidate_a, exact_torus_b):
    for cand in (perturbed_candidate_a, perturb_candidate(perturbed_candidate_a, 1e-2, 7),
                 exact_torus_b):
        kk = grid_kitchen(cand)
        maps = error_maps(cand, build_frames(cand, kk), kk)
        assert np.max(np.abs(maps.OmegaK.average())) <= 1e-12


def test_esym_block_structure_case_iii(perturbed_candidate_a):
    """E_sym = diag(E_lag, B^T E_lag B) in the anti-involutive case."""
    cand = perturb_candidate(perturbed_candidate_a, scale=5e-3, seed=11)
    kk = grid_kitchen(cand)
    fr = build_frames(cand, kk)
    maps = error_maps(cand, fr, kk)
    n = cand.system.n
    top_left = maps.Esym.block(slice(None, n), slice(None, n))
    diff1 = (top_left - maps.Elag).norm(0.0)
    bottom_right = maps.Esym.block(slice(n, None), slice(n, None))
    BT_Elag_B = matmul(matmul(fr.B.T, maps.Elag), fr.B)
    diff2 = (bottom_right - BT_Elag_B).norm(0.0)
    off = max(np.max(np.abs(maps.Esym.coeffs[..., :n, n:])),
              np.max(np.abs(maps.Esym.coeffs[..., n:, :n])))
    scale = max(1.0, maps.Elag.norm(0.0))
    assert diff1 <= 1e-10 * scale
    assert diff2 <= 1e-8 * scale  # two truncated products on each side
    assert off <= 1e-10 * scale


def test_frame_identity_tangent_normal_pairing(perturbed_candidate_a):
    """L^T (Omega o K) N = E_lag A - I (here A = 0: equals -I), modulo the
    band-truncation defect of the pointwise inverse B."""
    cand = perturb_candidate(perturbed_candidate_a, scale=5e-3, seed=13)
    kk = grid_kitchen(cand)
    fr = build_frames(cand, kk)
    maps = error_maps(cand, fr, kk)
    geo = cand.system.geometry
    lhs = matmul(fr.L.T.matmul_constant(geo.Omega), fr.N)
    lhs = lhs.add_constant(np.eye(cand.system.n))
    resid = lhs.norm(0.0)
    GL = matmul(fr.L.T.matmul_constant(geo.G), fr.L)
    trunc = matmul(GL, fr.B).add_constant(
        -np.eye(cand.system.n)
    ).norm(0.0)
    assert resid <= 1e-10 + 2 * trunc + 10 * maps.Elag.norm(0.0) * fr.A.norm(0.0)


def test_normal_isotropy_identity_case_iii(perturbed_candidate_a):
    """N^T (Omega o K) N = B^T E_lag B in Case III."""
    cand = perturb_candidate(perturbed_candidate_a, scale=5e-3, seed=17)
    kk = grid_kitchen(cand)
    fr = build_frames(cand, kk)
    maps = error_maps(cand, fr, kk)
    lhs = matmul(fr.N.T.matmul_constant(cand.system.geometry.Omega), fr.N)
    rhs = matmul(matmul(fr.B.T, maps.Elag), fr.B)
    assert (lhs - rhs).norm(0.0) <= 1e-8 * max(1.0, rhs.norm(0.0))


def test_geometric_identity_at_random_points(perturbed_candidate_a):
    """D Omega[X_H] + (D X_H)^T Omega + Omega D X_H = 0 via the callbacks; the
    structure is constant, so D Omega = 0."""
    sys_obj = perturbed_candidate_a.system
    rng = np.random.default_rng(23)
    z = rng.uniform(-1, 1, size=(100, 4))
    dxh = sys_obj.DXH(z)
    om = sys_obj.geometry.Omega
    total = np.swapaxes(dxh, -1, -2) @ om + om @ dxh
    assert np.max(np.abs(total)) <= 1e-8


# -------------------------------------------------------------- torsion maps


def test_extended_torsion_free_rotor_determinant():
    cand = free_rotor_candidate()
    kk = grid_kitchen(cand, "H")
    L = tangent_frame(cand, kk)
    N = normal_frame(cand, L)[2]
    scale = _twist_scale(cand, N, kk)
    T, avgT = torsion(cand, N, kk, scale)
    Tc, avgTc, Tdown = extended_torsion(cand, T, N, kk, scale)
    omega_hat = cand.dio.omega  # d = n: omega_hat = omega
    expected = -float(omega_hat @ omega_hat)
    assert np.linalg.det(avgTc) == pytest.approx(expected, rel=1e-10)


def test_extended_torsion_bottom_row_limits(exact_torus_b):
    cand = exact_torus_b
    for sel, expected in (("H", np.array([1.0, GOLDEN, 0.0])),
                          (("p", 0), np.array([0.0, 0.0, 1.0]))):
        kk = grid_kitchen(cand, sel)
        fr = build_frames(cand, kk)
        bottom = fr.avgTc[-1, :-1]
        assert np.allclose(bottom, expected, atol=1e-10)
    # a kitchen without a conserved quantity builds no bordered torsion
    fr = build_frames(cand, grid_kitchen(cand))
    assert fr.Tc is None and fr.avgTc is None and fr.Tdown is None


def test_torsion_symmetry_reported_not_asserted(perturbed_candidate_a):
    kk = grid_kitchen(perturbed_candidate_a)
    fr = build_frames(perturbed_candidate_a, kk)
    asym = (fr.T - fr.T.T).norm(0.0)
    errn = invariance_error(perturbed_candidate_a, kk).norm(perturbed_candidate_a.rho)
    # diagnostic only: asymmetry is O(||E||); track that it is not wildly larger
    assert asym <= 1e3 * max(errn, 1e-14)


# ----------------------------------------------- fully periodic ambient space


def harmonic_pair_system():
    """Two uncoupled oscillators on R^4, on the domain T^2 x B^2 whose angle rows
    bound only Im x (fully periodic parameterizations)."""
    from kamtorus.hamiltonian import DomainBox, HamiltonianSystem, canonical_structure

    tp = 2 * np.pi
    freq = np.array([1.0, GOLDEN])

    def H(z):
        x, y = z[..., :2], z[..., 2:]
        return np.pi * (freq[0] * (x[..., 0] ** 2 + y[..., 0] ** 2)
                        + freq[1] * (x[..., 1] ** 2 + y[..., 1] ** 2))

    def DH(z):
        out = np.empty_like(np.asarray(z))
        out[..., 0] = tp * freq[0] * z[..., 0]
        out[..., 1] = tp * freq[1] * z[..., 1]
        out[..., 2] = tp * freq[0] * z[..., 2]
        out[..., 3] = tp * freq[1] * z[..., 3]
        return out

    def XH(z):
        out = np.empty_like(np.asarray(z))
        out[..., 0] = tp * freq[0] * z[..., 2]
        out[..., 1] = tp * freq[1] * z[..., 3]
        out[..., 2] = -tp * freq[0] * z[..., 0]
        out[..., 3] = -tp * freq[1] * z[..., 1]
        return out

    mat = np.zeros((4, 4))
    mat[0, 2], mat[1, 3] = tp * freq[0], tp * freq[1]
    mat[2, 0], mat[3, 1] = -tp * freq[0], -tp * freq[1]

    def DXH(z):
        z = np.asarray(z)
        return np.broadcast_to(mat, z.shape[:-1] + (4, 4)).copy()

    def D2XH(z):
        z = np.asarray(z)
        return np.zeros(z.shape[:-1] + (4, 4, 4))

    p, Dp, Xp, DXp, D2Xp = empty_integrals(2)
    return HamiltonianSystem(
        n_integrals=0, geometry=canonical_structure(2),
        H=H, DH=DH, XH=XH, DXH=DXH, D2XH=D2XH,
        p=p, Dp=Dp, Xp=Xp, DXp=DXp, D2Xp=D2Xp,
        # the x rows r cos(2 pi theta) are read as angles: their imaginary
        # excursion on the strip rho = 0.05 is at most 0.6 e^(2 pi rho) = 0.82
        domain=DomainBox(y_center=np.zeros(2), y_radius=2.0, imag_width=1.0),
    )


def test_fully_periodic_parameterization_without_marker(golden_dio):
    """K purely periodic (no zero-section block): the circle pair is invariant."""
    sys_obj = harmonic_pair_system()
    bands = (3, 3)
    box = np.zeros((7, 7, 4, 1), dtype=complex)
    # x_j = r_j cos(2 pi theta_j), y_j = -r_j sin(2 pi theta_j)
    for j, r in ((0, 0.6), (1, 0.4)):
        plus, minus = [3, 3], [3, 3]
        plus[j], minus[j] = 3 + 1, 3 - 1
        box[tuple(plus) + (j, 0)] = r / 2
        box[tuple(minus) + (j, 0)] = r / 2
        box[tuple(plus) + (2 + j, 0)] = 0.5j * r
        box[tuple(minus) + (2 + j, 0)] = -0.5j * r
    k_per = FourierMap.from_coeffs(box)
    cand = TorusCandidate(k_per, golden_dio, rho=0.05, system=sys_obj, angle_block=False)
    # DK carries no identity block in this topology
    assert np.max(np.abs(dk_map(cand).average())) < 1e-14
    kk = grid_kitchen(cand)
    E = invariance_error(cand, kk)
    assert E.norm(cand.rho) <= 1e-12
    L = tangent_frame(cand, kk)
    N = normal_frame(cand, L)[2]
    # the oscillator pair is isochronous: zero twist, and the degeneracy gate
    # must fire rather than regularize
    with pytest.raises(HypothesisError) as info:
        torsion(cand, N, kk, _twist_scale(cand, N, kk))
    assert info.value.hypothesis == "twist"


# ------------------------------------------ ledger-style shadowing inequality


def test_conserved_shadowing_inequality(exact_torus_b):
    """||c o K - <c o K>||_{rho-delta} <= c_R c_c1 / (gamma delta^tau) ||E||_rho."""
    cand = perturb_candidate(exact_torus_b, scale=2e-3, seed=29)
    cand = replace(
        cand, system=builtin_system("symmetric_rotors", epsilon=0.01,
                              y_center=[1.0, GOLDEN, 0.0], y_radius=0.5, imag_width=0.2)
    )
    kk = grid_kitchen(cand, "H")
    E = invariance_error(cand, kk)
    rho = cand.rho
    delta = rho / 4
    c_map = kk.c_map.add_constant(-kk.c_map.average())
    measured = c_map.norm(rho - delta)
    from kamtorus.certificate import estimate_global_constants

    globs = estimate_global_constants(cand.system, "H")
    c_r = russmann_constant(cand.dio.tau, delta)
    bound = c_r * globs.values["c_c_1"] / (cand.dio.gamma * delta**cand.dio.tau) * E.norm(rho)
    assert measured <= bound + 1e-9


@pytest.mark.parametrize("avg", [np.diag([1.5e-16, 7.5e-32]), np.diag([5.9e-17, -3.5e-16])])
def test_twist_gate_rejects_round_off_average(avg):
    """A zero twist made of round-off fails however well conditioned it is."""
    from kamtorus.frames import _check_twist

    with pytest.raises(HypothesisError, match="smallest singular value") as info:
        _check_twist(avg, "averaged torsion <T>", scale=1.0)  # factors of unit size
    assert info.value.hypothesis == "twist"
    _check_twist(np.diag([1.5, -0.7]), "averaged torsion <T>", scale=1.0)
