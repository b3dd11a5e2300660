"""Slab-wise sampling: the grid kitchen and the pointwise inverse walk the work
grid one axis-0 slab at a time.  At every slab size they equal, bit for bit,
their whole-grid forms written out here with numpy's n-dimensional real
transforms; they fail as the whole-grid forms fail; and they peak lower."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kamtorus import fourier, frames
from kamtorus.cohomology import DiophantineParams
from kamtorus.fourier import FourierMap, matmul
from kamtorus.frames import (COND_LIMIT, HypothesisError, _front_matmul, _pointwise_inverse,
                             grid_kitchen, seed_torus, work_grid)
from kamtorus.hamiltonian import DomainBox, TermTable, _trig_potential_system

from conftest import on_band, random_map, scaled_structure, seed_run
from oracles import assert_same_bits, half_of, irfftn_samples, rfftn_coefficients, svd_rank_check

SLABS = ["one-row", "ragged", "whole"]
PASSES = SLABS + ["balanced", "value-cap"]  # for the kitchen, the product and the inverse


def slab_points(kind: str, grid: tuple) -> int:
    """SLAB_POINTS for one axis-0 row per slab, a row count that does not divide
    M_0, or the whole grid in one slab."""
    row = int(np.prod(grid[1:]))
    if kind == "one-row":
        return 1
    if kind == "ragged":
        return row * next(r for r in range(5, grid[0]) if grid[0] % r)
    return row * grid[0]


def use_slabs(monkeypatch, kind: str, grid: tuple):
    """The slabs of ``kind`` on ``grid``: those of SLABS; two of near-equal height
    where the most rows a slab may hold (M_0 // 2 + 1) would leave a shorter
    second one ("balanced"); or rows capped by the sample values a pass holds,
    at 100 values per row's point ("value-cap")."""
    row = int(np.prod(grid[1:]))
    if kind in SLABS:
        monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points(kind, grid))
    elif kind == "balanced":
        monkeypatch.setattr(fourier, "SLAB_POINTS", row * (grid[0] // 2 + 1))
    else:
        monkeypatch.setattr(fourier, "SLAB_POINTS", row * grid[0])
        monkeypatch.setattr(fourier, "SLAB_VALUES", row * 100)


def d3_candidate(bands, seed=0) -> frames.TorusCandidate:
    """A perturbed seed of the d = 3, n = 4 term table: cos 2 pi x1, cos 2 pi x2 and
    cos 2 pi x1 cos 2 pi (x3 - x4), times 1e-3, with the first integral y3 + y4."""
    k = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, -1], [1, 0, -1, 1]], dtype=float)
    table = TermTable(np.array([1e-3, 1e-3, 0.5e-3, 0.5e-3]), k, np.array([[0.0, 0.0, 1.0, 1.0]]))
    system = _trig_potential_system(
        table, DomainBox(y_center=np.zeros(4), y_radius=0.5, imag_width=0.2))
    dio = DiophantineParams(2.0 ** (np.arange(3) / 3), 1e-3, 2.0, 10, check=False)
    cand = seed_torus(system, dio, bands, 0.03)
    noise = random_map(bands, (8, 1), np.random.default_rng(seed), decay=0.5, scale=1e-2)
    return dataclasses.replace(cand, k_per=cand.k_per + noise)


def planar_candidate(bands=(8, 8), **fields):
    """A perturbed seed of a registered d = 2 system, and its conserved target."""
    seed, _, target = seed_run(bands=list(bands), **fields)
    noise = random_map(bands, seed.cand.k_per.shape, np.random.default_rng(5), decay=0.5,
                       scale=1e-2)
    cand = dataclasses.replace(seed.cand, k_per=seed.cand.k_per + noise)
    return cand, None if target is None else target.conserved


def whole_grid_kitchen(cand, conserved=None) -> dict:
    """Half boxes of every kitchen map, each callback sampled on the whole work
    grid at once: the kitchen before it was sampled in slabs."""
    bands, grid = cand.bands, work_grid(cand.bands)
    kv = irfftn_samples(cand.k_per, grid)[..., 0]
    if cand.angle_block:
        mesh = np.meshgrid(*(np.arange(m) / m for m in grid), indexing="ij")
        for i in range(cand.d):
            kv[..., i] += mesh[i]
    system = cand.system
    samples = {"XH": system.XH(kv)[..., :, None], "DXH": system.DXH(kv)}
    if conserved is not None:
        c, dc = system.conserved(conserved, kv)
        samples["Dc"] = np.asarray(dc)[..., None, :]
        samples["c_map"] = np.asarray(c)[..., None, None]
    out = {name: half_of(rfftn_coefficients(s, bands), bands) for name, s in samples.items()}
    xp = (FourierMap(half_of(rfftn_coefficients(system.Xp(kv), bands), bands))
          if system.n_integrals else FourierMap.zeros(bands, (2 * system.n, 0)))
    out["L"] = cand.tangent_family(xp).half
    return out


def whole_grid_inverse(f: FourierMap):
    """The pointwise inverse by Gauss-Jordan elimination over the whole work grid
    at once: the inverse before it was computed in slabs."""
    vals = irfftn_samples(f, work_grid(f.bands))
    a = np.ascontiguousarray(np.moveaxis(vals, (-2, -1), (0, 1)))
    n = a.shape[0]
    diag = (np.arange(n),) * 2
    w = a.copy()
    x = np.zeros_like(a)
    x[diag] = 1.0
    for p in range(n):
        piv = w[p, p].copy()
        bad = ~(np.isfinite(piv) & (piv > 0))
        if bad.any():
            raise HypothesisError(
                "Gram", f"Gram matrix pivot {p} is {piv[bad][0]:.3e} at {int(bad.sum())} grid "
                "point(s): not finite and positive")
        w[p] /= piv
        x[p] /= piv
        for r in range(n):
            if r != p:
                fac = w[r, p].copy()
                w[r] -= fac * w[p]
                x[r] -= fac * x[p]
    resid = -_front_matmul(a, x)
    resid[diag] += 1.0
    x += _front_matmul(x, resid)
    cond = float(np.max(np.abs(a).sum(axis=1).max(axis=0) * np.abs(x).sum(axis=1).max(axis=0)))
    if not cond <= COND_LIMIT:
        raise HypothesisError("Gram", f"pointwise condition estimate {cond:.3e} exceeds "
                                      f"{COND_LIMIT:.1e}")
    return rfftn_coefficients(np.moveaxis(x, (0, 1), (-2, -1)), f.bands), cond


def scaled_candidate():
    """The canonical case's candidate under the non-canonical scaled structure."""
    cand = planar_candidate(system="lagrangian_rotors", epsilon=0.02)[0]
    geometry = scaled_structure(2)
    return dataclasses.replace(cand, system=dataclasses.replace(cand.system, geometry=geometry)), None


KITCHENS = {
    "canonical": lambda: planar_candidate(system="lagrangian_rotors", epsilon=0.02),
    "scaled-structure": scaled_candidate,
    "iso": lambda: planar_candidate(system="symmetric_rotors", epsilon=0.01, mode="iso",
                                    conserved="H", c0_offset=1e-3),
    "d3": lambda: (d3_candidate((3, 3, 3)), None),
}


@pytest.mark.parametrize("slab", PASSES)
@pytest.mark.parametrize("case", sorted(KITCHENS))
def test_kitchen_equals_the_whole_grid_kitchen_bit_for_bit(monkeypatch, case, slab):
    cand, conserved = KITCHENS[case]()
    ref = whole_grid_kitchen(cand, conserved)
    assert ("Dc" in ref) == (case == "iso")
    use_slabs(monkeypatch, slab, work_grid(cand.bands))
    kitchen = grid_kitchen(cand, conserved)
    for name, half in ref.items():
        assert_same_bits(getattr(kitchen, name).half, half)


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("bands, grid", [((6,), (20,)), ((2, 3, 4), (7, 8, 10))],
                         ids=["d1", "d3"])
def test_from_samples_equals_rfftn_bit_for_bit(monkeypatch, bands, grid, slab):
    samples = np.random.default_rng(len(grid)).standard_normal(grid + (2, 3))
    samples[..., 0, 1] = 0.25  # a constant entry keeps the signs of its zeros
    monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points(slab, grid))
    assert_same_bits(FourierMap.from_samples(samples, bands).half,
                     half_of(rfftn_coefficients(samples, bands), bands))


def spd_map(bands, n, seed):
    """An SPD map on twice ``bands``, where the product of two maps on ``bands``
    is exact."""
    m = random_map(bands, (n, n), np.random.default_rng(seed), decay=1.0, scale=3.0)
    m = on_band(m, tuple(2 * b for b in bands))
    return matmul(m.T, m).add_constant(np.eye(n))  # eigenvalues >= 1 pointwise


@pytest.mark.parametrize("slab", PASSES)
@pytest.mark.parametrize("bands, n", [((3, 2), 2), ((3, 2), 3), ((2, 1, 2), 2)])
def test_pointwise_inverse_equals_the_whole_grid_inverse_bit_for_bit(monkeypatch, bands, n,
                                                                     slab):
    f = spd_map(bands, n, 40 + n)
    ref, ref_cond = whole_grid_inverse(f)
    use_slabs(monkeypatch, slab, work_grid(f.bands))
    inv, cond = _pointwise_inverse(f)
    assert_same_bits(inv.half, half_of(ref, f.bands))
    assert cond == ref_cond


def bad_pivot_map():
    """diag(0.3 + sin 2 pi theta_1, 0.3 - sin 2 pi theta_1) on bands (3, 2): on the
    16 x 9 work grid pivot 1 is negative on rows 1-7 and pivot 0 on rows 9-15."""
    box = np.zeros((7, 5, 2, 2), dtype=complex)
    for entry, sign in ((0, 1.0), (1, -1.0)):
        box[3, 2, entry, entry] = 0.3
        box[4, 2, entry, entry] = -0.5j * sign
        box[2, 2, entry, entry] = 0.5j * sign
    return FourierMap.from_coeffs(box)


@pytest.mark.parametrize("slab", SLABS)
def test_singular_gram_names_the_whole_grid_pivot(monkeypatch, slab):
    """Rows 1-7 fail at pivot 1 and rows 9-15 at pivot 0, so an early slab fails
    at pivot 1 and later ones at pivot 0: the error names pivot 0, its first bad
    value in C order and its count over the whole grid."""
    f = bad_pivot_map()
    with pytest.raises(HypothesisError) as whole:
        whole_grid_inverse(f)
    assert str(whole.value).startswith("hypothesis Gram failed: Gram matrix pivot 0 is ")
    assert " at 63 grid point(s)" in str(whole.value)  # rows 9-15, 9 columns each
    monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points(slab, work_grid(f.bands)))
    with pytest.raises(HypothesisError) as sliced:
        _pointwise_inverse(f)
    assert sliced.value.hypothesis == "Gram" and str(sliced.value) == str(whole.value)


def test_nan_condition_in_a_later_slab_is_refused(monkeypatch):
    """A NaN condition estimate in one slab that is not the first one refuses the
    inverse: the slabs' estimates are combined by np.max, which keeps NaN."""
    f = spd_map((3, 2), 2, 42)
    assert _pointwise_inverse(f)[1] <= COND_LIMIT  # finite and accepted without the NaN
    calls = []

    def nan_in_second_slab(a, b):
        out = _front_matmul(a, b)
        calls.append(None)
        if len(calls) == 4:  # the refinement product of slab 1 (two products a slab)
            out[0, 0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points("ragged", work_grid(f.bands)))
    monkeypatch.setattr(frames, "_front_matmul", nan_in_second_slab)
    with pytest.raises(HypothesisError, match="condition estimate nan") as info:
        _pointwise_inverse(f)
    assert info.value.hypothesis == "Gram"
    assert len(calls) == 12  # all six slabs of the 27 x 18 grid ran


def slab_heights(grid: tuple, values: int) -> list:
    return [rows.stop - rows.start for rows in fourier._slabs(grid, values)]


def test_slabs_have_near_equal_heights_and_a_value_cap():
    """ceil(M_0 / step) slabs of near-equal height, the longer first: 72 rows of
    72 points make 36 + 36, not 56 + 16, and 100 rows of 100 make 34 + 33 + 33.
    The value cap splits the passes of iso-b16 that hold more than 32 values per
    point, its kitchen (K's 6 entries and 55 outputs on 72 x 72) and its DX_H N
    product (36 + 18 + 18 on 50 x 50), and leaves every ordinary-b32 pass its
    count: the widest, DX_H N, holds 16 + 8 + 8 on 100 x 100, its kitchen 4 + 20
    on 144 x 144."""
    assert slab_heights((72, 72), 0) == [36, 36]
    assert slab_heights((100, 100), 0) == [34, 33, 33]
    assert slab_heights((9,), 10**6) == [9]  # at d = 1 the slab is the grid
    assert slab_heights((72, 72), 61) == [24, 24, 24]
    assert slab_heights((50, 50), 72) == [25, 25]
    assert slab_heights((100, 100), 32) == slab_heights((100, 100), 0)
    assert slab_heights((144, 144), 24) == slab_heights((144, 144), 0) == [24] * 6


@pytest.mark.parametrize("axis", [0, 1])
def test_head_transform_runs_in_place_with_the_bits_of_a_new_array(axis):
    """The ``ifft`` of a synthesis head's kept rows (axis 0, and at d = 3 axis 1
    of each slab) runs in place in its zero-padded array: the bits, read as
    uint64, are numpy's ``ifft`` into a new array, and no second array of that
    size is allocated."""
    rng = np.random.default_rng(axis)
    n, m = 5, 16
    shape = [7, 9, 3, 2]
    shape[axis] = 2 * n + 1
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = np.zeros(shape[:axis] + [m] + shape[axis + 1:], dtype=complex)
    full[(slice(None),) * axis + (np.arange(-n, n + 1) % m,)] = data
    ref = np.fft.ifft(full, axis=axis, norm="forward")
    tracemalloc.start()
    try:
        got = fourier._ifft_kept(data, axis, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert peak < 1.5 * ref.nbytes


@pytest.mark.parametrize("rows", [1, 2, 24])
@pytest.mark.parametrize("bands, grid", [((16, 16), (72, 72)), ((3, 4, 16), (16, 12, 72))],
                         ids=["d2", "d3"])
def test_analysis_runs_in_row_blocks_with_the_bits_of_one_call(monkeypatch, bands, grid, rows):
    """A slab's ``rfft`` runs over ceil((M_d/2 + 1) / (N_d + 1)) blocks of axis-0
    rows, at most one per row: rows of 72 points have 37 bins, of which bands 16
    keep 17, so 24 rows make three blocks of 8, and a one-row slab is one call.
    The blocks' kept bins, and at d = 3 the kept rows of axis 1's ``fft`` after
    them, are those of one call on the whole slab."""
    d = len(bands)
    samples = np.random.default_rng(rows).standard_normal((rows,) + grid[1:] + (3, 2))
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, *a, **k: calls.append(len(x)) or rfft(x, *a, **k))
    out = np.empty((rows,) + fourier._half_box(bands)[1:] + (3, 2), dtype=complex)
    fourier._analysis_head(samples, bands, out)
    assert calls == {1: [1], 2: [1, 1], 24: [8, 8, 8]}[rows]
    ref = rfft(samples, axis=d - 1, norm="forward")[..., :bands[-1] + 1, :, :]
    if d == 3:
        ref = np.fft.fft(ref, axis=1, norm="forward")[:, np.arange(-4, 5) % 12]
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_d3_kitchen_peak_memory_bounded():
    """d = 3, n = 4 at bands 6 (work grid 27^3): the whole-grid kitchen peaked
    at about 27 MB above entry, most of it DX_H o K's samples and their
    transforms; sampled in slabs it peaks at about 9 MB."""
    cand = d3_candidate((6, 6, 6))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        kitchen = grid_kitchen(cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kitchen.DXH.bands == (6, 6, 6)
    assert peak - entry < 12e6


def product_operands(bands, shape_a, shape_b, transpose_a=False):
    rng = np.random.default_rng(sum(bands) + 7 * len(bands))
    a = random_map(bands, shape_a[::-1] if transpose_a else shape_a, rng, decay=0.3)
    return a.T if transpose_a else a, random_map(bands, shape_b, rng, decay=0.3)


PRODUCTS = {  # bands, shape_a, shape_b, transpose_a
    "d1": ((7,), (2, 3), (3, 2), False),
    "d2": ((6, 5), (3, 2), (2, 3), False),
    "d3": ((3, 2, 3), (2, 2), (2, 3), False),
    "one-row": ((6, 5), (1, 3), (3, 2), False),
    "one-column": ((6, 5), (2, 3), (3, 1), False),
    "transposed": ((6, 5), (3, 2), (2, 3), True),
}


@pytest.mark.parametrize("slab", PASSES)
@pytest.mark.parametrize("case", sorted(PRODUCTS))
def test_matmul_equals_the_whole_grid_product_bit_for_bit(monkeypatch, case, slab):
    """The slab-wise product equals rfftn of the whole-grid irfftn samples'
    product, including 1-row, 1-column and transposed (non-contiguous) operands."""
    bands, shape_a, shape_b, transpose_a = PRODUCTS[case]
    a, b = product_operands(bands, shape_a, shape_b, transpose_a)
    assert a.half.flags.c_contiguous != transpose_a
    work = fourier.dealias_grid(bands, bands, bands)
    ref = rfftn_coefficients(irfftn_samples(a, work) @ irfftn_samples(b, work), bands)
    use_slabs(monkeypatch, slab, work)
    got = matmul(a, b)
    assert got.bands == bands
    assert_same_bits(got.half, half_of(ref, bands))


def deficient_frame_candidate(row):
    """A d = 2 seed whose DK loses rank at the one grid point (row, 0) of its
    9 x 9 grid: DK's first column is (1 - cos 2 pi s, 0, cos 2 pi s sin 2 pi t2,
    0), s = t1 - row / 9."""
    cand = seed_run(epsilon=1e-3, bands=[4, 4])[0].cand
    t1, t2 = np.meshgrid(*(np.arange(9) / 9,) * 2, indexing="ij")
    s = 2 * np.pi * (t1 - row / 9)
    samples = np.zeros((9, 9, 4, 1))
    samples[..., 0, 0] = -np.sin(s) / (2 * np.pi)
    samples[..., 2, 0] = np.sin(s) * np.sin(2 * np.pi * t2) / (2 * np.pi)
    return dataclasses.replace(cand, k_per=cand.k_per + FourierMap.from_samples(samples, (4, 4)))


def rotors_candidate():
    return planar_candidate(system="lagrangian_rotors", epsilon=0.02)[0]


FRAMES = {  # candidate, factor on L
    "full-rank": (rotors_candidate, 1.0),
    "near-tolerance": (rotors_candidate, 3e-8),  # below the pre-test, above RANK_TOL
    "tiny": (rotors_candidate, 1e-9),
    "deficient-first-row": (lambda: deficient_frame_candidate(0), 1.0),
    "deficient-later-row": (lambda: deficient_frame_candidate(7), 1.0),
}


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("case", sorted(FRAMES))
def test_tangent_frame_decides_as_the_whole_grid_svd(monkeypatch, case, slab):
    """Checked slab by slab, the rank check accepts and rejects the frames the
    SVD at every point of the whole grid does, with its message, and takes the
    SVD only of the slabs that fail the pre-test."""
    make, factor = FRAMES[case]
    cand = make()
    kitchen = grid_kitchen(cand)
    kitchen = dataclasses.replace(kitchen, L=kitchen.L * factor)
    try:
        svd_rank_check(kitchen.L, cand.grid)
        ref = None
    except HypothesisError as exc:
        ref = str(exc)
    assert (ref is None) == (case in ("full-rank", "near-tolerance"))
    monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points(slab, cand.grid))
    failing = sum(not frames._clears_rank_tol(vals)
                  for _, (vals,) in fourier.slab_samples(cand.grid, kitchen.L))
    assert (failing > 0) == (case != "full-rank")
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    if ref is None:
        assert frames.tangent_frame(cand, kitchen) is kitchen.L
    else:
        with pytest.raises(HypothesisError) as got:
            frames.tangent_frame(cand, kitchen)
        assert got.value.hypothesis == "frame rank" and str(got.value) == ref
    assert len(calls) == failing
    if case.startswith("deficient"):
        assert failing == 1  # only the slab that holds the deficient point goes to the SVD


def test_d3_matmul_peak_memory_bounded():
    """d = 3, bands 8, (8 x 4) times (4 x 4) kept at bands 8 (work grid 25^3):
    the whole-grid product held about 10 MB of samples and peaked at about
    13 MB above entry; walked in slabs it peaks at about 8 MB, most of it the
    operands' axis-0 transforms, the kept-bin accumulator and one slab's samples."""
    rng = np.random.default_rng(0)
    a = random_map((8, 8, 8), (8, 4), rng, decay=0.5)
    b = random_map((8, 8, 8), (4, 4), rng, decay=0.5)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        prod = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prod.shape == (8, 4)
    assert peak - entry < 10.5e6


CONSTANTS = [0.0, 1.0, -1.0, 0.37, -2.5, 1.5 + 0.75j, -0.0]  # the last one is transformed


def mixed_map(bands, rng) -> FourierMap:
    """A 3 x 4 map whose first entries in C order are the constants of CONSTANTS
    and a random real, with +0 and -0 off k = 0 in turn, and whose other
    entries vary."""
    half = random_map(bands, (3, 4), rng, decay=0.3).half.copy()
    for e, c in enumerate(CONSTANTS + [rng.standard_normal()]):
        entry = np.unravel_index(e, (3, 4))
        half[(...,) + entry] = complex(-0.0, -0.0) if e % 2 else 0.0
        half[fourier._origin(bands) + entry] = c
    return FourierMap(half)


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("grid_of", ["dealias", "work"])
@pytest.mark.parametrize("bands", [(7,), (6, 5), (3, 2, 3)], ids=["d1", "d2", "d3"])
def test_constant_entries_are_filled_bit_for_bit(monkeypatch, bands, grid_of, slab):
    """Each entry's samples are those of its own irfftn, bit for bit: a constant
    entry's fill is the real part of its k = 0 value, whatever the signs of the
    zeros off k = 0 and its imaginary part; a -0.0 constant is transformed,
    since its samples are not all -0.0."""
    f = mixed_map(bands, np.random.default_rng(len(bands)))
    const = fourier._constant_entries(f)
    negative_zero = np.unravel_index(len(CONSTANTS) - 1, f.shape)
    assert const.sum() == len(CONSTANTS) and not const[negative_zero]
    grid = fourier.dealias_grid(bands, bands, bands) if grid_of == "dealias" else work_grid(bands)
    monkeypatch.setattr(fourier, "SLAB_POINTS", slab_points(slab, grid))
    got = np.concatenate([vals for _, (vals,) in fourier.slab_samples(grid, f)])
    assert got.shape == grid + f.shape
    for entry in np.ndindex(f.shape):
        ref = irfftn_samples(f.block(*(slice(i, i + 1) for i in entry)), grid)[..., 0, 0]
        assert np.array_equal(np.ascontiguousarray(got[(...,) + entry]).view(np.uint64),
                              ref.view(np.uint64)), entry
    assert not np.signbit(got[(...,) + negative_zero]).all()


def test_product_transforms_only_the_varying_entries(monkeypatch):
    """A product whose left operand has 7 constant entries of 12 runs ``irfft``
    on the lines of the 5 others and of the right operand's 8 entries only, one
    line per entry and axis-0 row of the work grid, and keeps its bits."""
    bands = (6, 5)
    rng = np.random.default_rng(3)
    a, b = mixed_map(bands, rng), random_map(bands, (4, 2), rng, decay=0.3)
    work = fourier.dealias_grid(bands, bands, bands)
    ref = rfftn_coefficients(irfftn_samples(a, work) @ irfftn_samples(b, work), bands)
    lines = []
    irfft = np.fft.irfft

    def counting(x, *args, axis=-1, **kwargs):
        lines.append(x.size // x.shape[axis])
        return irfft(x, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    got = matmul(a, b)
    assert_same_bits(got.half, half_of(ref, bands))
    assert sum(lines) == work[0] * (5 + 8)
