"""Spectral core: synthesis/analysis, calculus, strip majorants, Cauchy rules."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamtorus import fourier
from kamtorus.cohomology import solve_cohomological
from kamtorus.fourier import (
    FourierMap,
    FourierShapeError,
    StripOverflowError,
    dealias_grid,
    matmul,
    slab_analysis,
    slab_samples,
)

from conftest import eval_at, map_from_json, map_to_json, on_band, random_map
from oracles import (BoxMap, assert_same_bits, box_matmul, box_solve_cohomological,
                     cauchy_bound, fftn_coefficients, half_of, ifftn_samples, irfftn_samples,
                     rfftn_coefficients, symmetrize)

RNG = np.random.default_rng(20240817)


def cos_map(bands=(4, 4), axis_k=1):
    """cos(2 pi axis_k theta_1) on T^2."""
    box = np.zeros((2 * bands[0] + 1, 2 * bands[1] + 1, 1, 1), dtype=complex)
    c, c2 = bands
    box[c + axis_k, c2, 0, 0] = 0.5
    box[c - axis_k, c2, 0, 0] = 0.5
    return FourierMap.from_coeffs(box)


def sin_map(bands=(4, 4)):
    """sin(2 pi theta_1) on T^2."""
    box = np.zeros((2 * bands[0] + 1, 2 * bands[1] + 1, 1, 1), dtype=complex)
    c, c2 = bands
    box[c + 1, c2, 0, 0] = -0.5j
    box[c - 1, c2, 0, 0] = 0.5j
    return FourierMap.from_coeffs(box)


# ---------------------------------------------------------------- eval_grid


def test_eval_grid_constant():
    f = FourierMap.constant(np.array([[3.0]]), (4, 4))
    samples = f.eval_grid((9, 9))
    assert samples.shape == (9, 9, 1, 1) and np.all(samples == 3.0)


def test_eval_grid_cosine_quarter_points():
    f = cos_map(bands=(1, 1))
    samples = f.eval_grid((4, 3))[..., 0, 0]
    assert samples.dtype == np.float64
    assert np.allclose(samples, np.array([1.0, 0.0, -1.0, 0.0])[:, None], atol=1e-15)


def test_eval_grid_matches_direct_summation():
    f = random_map((8, 2), (2, 2), RNG, decay=0.1)
    theta = np.stack(np.meshgrid(np.arange(32) / 32.0, np.arange(6) / 6.0, indexing="ij"), -1)
    direct = eval_at(f, theta)
    fast = f.eval_grid((32, 6))
    assert np.max(np.abs(direct - fast)) < 1e-13 * max(1, np.max(np.abs(direct)))


# ------------------------------------------------------------- the bands


def test_bands_are_read_off_the_box():
    """A half box (2N_1+1, ..., N_d+1) and a full box (2N_1+1, ..., 2N_d+1)
    give the bands; a box no bands give, or one of fewer than d = 2 torus axes,
    is refused."""
    assert FourierMap(np.zeros((5, 7, 4, 2, 1))).bands == (2, 3, 3)
    assert FourierMap(np.zeros((1, 1, 1, 1))).bands == (0, 0)
    assert FourierMap.from_coeffs(np.zeros((5, 7, 2, 1))).bands == (2, 3)
    for half in (np.zeros((4, 3, 1, 1)), np.zeros((5, 0, 1, 1)), np.zeros((3, 1)),
                 np.zeros((1, 1, 1)), np.zeros((5, 2, 2))):
        with pytest.raises(FourierShapeError):
            FourierMap(half)
    for box in (np.zeros((5, 4, 1, 1)), np.zeros((5, 1, 1))):
        with pytest.raises(FourierShapeError):
            FourierMap.from_coeffs(box)


# ------------------------------------------------------------- from_samples


def test_from_samples_constant():
    samples = np.full((9, 9, 1, 1), 2.5)
    f = FourierMap.from_samples(samples, (4, 4))
    assert abs(f.average()[0, 0] - 2.5) < 1e-15
    off = f.coeffs.copy()
    off[4, 4] = 0
    assert np.max(np.abs(off)) < 1e-15


def test_from_samples_sine_euler_coefficients():
    theta = np.arange(8) / 8.0
    samples = np.repeat(np.sin(2 * np.pi * theta)[:, None, None, None], 3, axis=1)
    f = FourierMap.from_samples(samples, (3, 1))
    assert abs(f.coeffs[3 + 1, 1, 0, 0] - (-0.5j)) < 1e-15
    assert abs(f.coeffs[3 - 1, 1, 0, 0] - (0.5j)) < 1e-15


def test_round_trip_from_samples_of_eval():
    f = random_map((6, 6), (3, 2), RNG, decay=0.2)
    g = FourierMap.from_samples(f.eval_grid((13, 13)), f.bands)
    rel = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert rel < 1e-13


def test_round_trip_eval_of_from_samples_on_random_samples():
    samples = RNG.standard_normal((9, 9, 2, 2))  # 2N+1 points: every real sample set is exact
    f = FourierMap.from_samples(samples, (4, 4))
    back = f.eval_grid((9, 9))
    assert np.max(np.abs(back - samples)) < 1e-13


def test_from_samples_dimension_mismatch():
    with pytest.raises(FourierShapeError):
        FourierMap.from_samples(np.zeros((5, 5, 1, 1)), (4, 4))


def test_band_and_grid_tuples_of_the_wrong_length_are_refused():
    """``truncate`` and the slab passes, and so ``eval_grid``, ``from_samples``
    and the products, refuse a band or grid tuple with another length than the
    map's d, naming both lengths."""
    f = random_map((4, 4), (2, 1), RNG)
    with pytest.raises(FourierShapeError, match=r"of length 2 to bands \(2,\) of length 1"):
        f.truncate((2,))
    for grid in ((9,), (9, 9, 9)):
        match = rf"of length {len(grid)} does not fit bands \(4, 4\) of length 2"
        with pytest.raises(FourierShapeError, match=match):
            f.eval_grid(grid)
        with pytest.raises(FourierShapeError, match=match):
            next(slab_samples(grid, f))
        with pytest.raises(FourierShapeError, match=match):
            slab_analysis(lambda rows, vals: vals, grid, (4, 4))
        with pytest.raises(FourierShapeError, match=match):
            FourierMap.from_samples(np.zeros(grid + (2, 1)), (4, 4))
    with pytest.raises(FourierShapeError, match=r"of length 1 does not fit bands \(4,\) of"):
        FourierMap.from_samples(np.zeros((9, 2, 1)), (4,))  # a map has d >= 2 axes


@pytest.mark.parametrize("bands, grid, shape", [
    ((4, 1), (9, 3), (1, 1)),
    ((4, 2), (12, 6), (2, 3)),
    ((4, 5), (11, 12), (2, 3)),
    ((3, 2), (10, 7), (3, 1)),
    ((1, 2, 2), (4, 5, 6), (2, 2)),
])
def test_from_samples_real_samples_match_complex_path(monkeypatch, bands, grid, shape):
    """The real analysis agrees with the complex FFT of the whole grid
    (``oracles.fftn_coefficients``) and calls no complex n-D FFT."""
    samples = np.random.default_rng(sum(grid)).standard_normal(grid + shape)
    ref = fftn_coefficients(samples, bands)

    def no_complex_fft(*args, **kwargs):
        raise AssertionError("real samples must be analysed with a real FFT")

    monkeypatch.setattr(np.fft, "fftn", no_complex_fft)
    got = FourierMap.from_samples(samples, bands)
    assert got.coeffs.shape == ref.shape
    assert np.max(np.abs(got.coeffs - ref)) <= 1e-14 * np.max(np.abs(samples))


def test_real_symmetry_enforced():
    """The full box of analysed real samples holds f_-k = conj(f_k) exactly (up
    to the signs of zeros); complex samples are refused."""
    samples = RNG.standard_normal((9, 9, 1, 1))
    box = FourierMap.from_samples(samples, (4, 4)).coeffs
    assert np.array_equal(box, np.conj(box[::-1, ::-1]))
    with pytest.raises(TypeError, match="complex"):
        FourierMap.from_samples(samples + 1j * samples, (4, 4))


# ------------------------------------------------------------------ calculus


def test_partial_derivative_constant_is_zero():
    f = FourierMap.constant(np.array([[7.0]]), (4, 4))
    assert np.max(np.abs(f.deriv(0).coeffs)) == 0.0


def test_partial_derivative_sine():
    f = sin_map()
    df = f.deriv(0)
    expected = cos_map()
    assert np.max(np.abs(df.coeffs - 2 * np.pi * expected.coeffs)) < 1e-15


def test_partial_derivative_finite_difference_oracle():
    f = random_map((8, 8), (1, 1), RNG, decay=0.4)
    theta = RNG.uniform(0, 1, size=(40, 2))
    h = 1e-5
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (eval_at(f, theta + e) - eval_at(f, theta - e)) / (2 * h)
        exact = eval_at(f.deriv(axis), theta)
        # |FD - f'| <= h^2/6 max|f'''| plus roundoff
        third = f.deriv(axis).deriv(axis).deriv(axis)
        bound = h**2 / 6.0 * np.max(np.abs(third.eval_grid((17, 17)))) * 1.05 + 1e-9
        assert np.max(np.abs(fd - exact)) <= bound


def test_lie_derivative_solves_cosine():
    omega = np.array([0.7, 0.3])
    u = sin_map()
    u = u * (-1.0 / (2 * np.pi * omega[0]))
    lied = u.lie(omega)
    assert np.max(np.abs(lied.coeffs - cos_map().coeffs)) < 1e-14


def test_lie_derivative_zero_average():
    f = random_map((5, 5), (2, 1), RNG)
    lied = f.lie(np.array([0.9, 1.3]))
    assert np.max(np.abs(lied.average())) < 1e-16


def test_lie_equals_weighted_partials_exactly():
    f = random_map((5, 5), (2, 2), RNG)
    omega = np.array([1.1, -0.4])
    combo = f.deriv(0) * (-omega[0]) + f.deriv(1) * (-omega[1])
    assert np.max(np.abs(f.lie(omega).coeffs - combo.coeffs)) == 0.0


def test_linearity_of_operators():
    a = random_map((5, 5), (2, 2), RNG)
    b = random_map((5, 5), (2, 2), RNG)
    omega = np.array([0.3, 0.8])
    lhs = (a * 2.0 + b * (-0.5)).lie(omega)
    rhs = a.lie(omega) * 2.0 + b.lie(omega) * (-0.5)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
    lhs = (a * 2.0 + b * (-0.5)).deriv(1)
    rhs = a.deriv(1) * 2.0 + b.deriv(1) * (-0.5)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


# -------------------------------------------------------------------- average


def test_average_trivial_cases():
    assert abs(sin_map().average()[0, 0]) == 0.0
    f = cos_map(bands=(4, 4))
    f = f.add_constant(np.array([[5.0]]))
    assert abs(f.average()[0, 0] - 5.0) < 1e-15


def test_average_equals_grid_mean():
    f = random_map((6, 6), (2, 3), RNG, decay=0.1)
    mean = f.eval_grid((13, 13)).mean(axis=(0, 1))
    assert np.max(np.abs(mean - f.average())) < 1e-13


# ----------------------------------------------------------------- strip norm


def test_strip_norm_constant():
    f = FourierMap.constant(np.array([[-2.0]]), (3, 3))
    for rho in (0.0, 0.1, 1.0):
        assert abs(f.norm(rho) - 2.0) < 1e-15


def test_strip_norm_cosine_dominates_true_sup():
    f = cos_map()
    rho = 0.23
    value = f.norm(rho)
    assert abs(value - np.exp(2 * np.pi * rho)) < 1e-13
    assert value >= np.cosh(2 * np.pi * rho)


def test_strip_norm_at_zero_dominates_grid_max():
    f = random_map((6, 6), (2, 2), RNG, decay=0.3)
    grid_max = np.max(np.abs(f.eval_grid((16, 16))).sum(axis=-1))
    assert f.norm(0.0) >= grid_max - 1e-12


def test_strip_norm_transpose_is_column_sums():
    f = FourierMap.constant(np.array([[1.0, 2.0], [0.5, 0.25]]), (2, 2))
    assert abs(f.norm(0.0) - 3.0) < 1e-15          # max row sum
    assert abs(f.norm(0.0, transpose=True) - 2.25) < 1e-15


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_strip_norm_of_empty_map_is_zero(shape):
    f = FourierMap.zeros((2, 2), shape)
    assert f.norm(0.0) == 0.0
    assert f.norm(0.1, transpose=True) == 0.0


def test_strip_norm_monotone_in_rho():
    f = random_map((5, 5), (2, 2), RNG)
    values = [f.norm(r) for r in (0.0, 0.05, 0.1, 0.2)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_strip_norm_overflow_flagged():
    f = random_map((40, 40), (1, 1), RNG)
    with pytest.raises(StripOverflowError):
        f.norm(2.0)


def test_strip_norm_submultiplicative():
    a = random_map((5, 5), (2, 3), RNG, decay=0.2)
    b = random_map((5, 5), (3, 2), RNG, decay=0.2)
    prod = matmul(a, b)  # the truncation to the operands' band only drops modes
    rho = 0.07
    lhs = prod.norm(rho)
    rhs = a.norm(rho) * b.norm(rho)
    assert lhs <= rhs * (1 + 1e-10)


# -------------------------------------------------------------- Cauchy bounds


def test_cauchy_bound_matrix_rule():
    assert abs(cauchy_bound(0.5, 1.0, 0.1, "D", dim=2) - 20.0) < 1e-13


def test_cauchy_bound_transpose_scalar_rule():
    assert abs(cauchy_bound(0.5, 3.0, 0.25, "D-transpose") - 12.0) < 1e-13


def test_cauchy_bound_vector_rule():
    assert abs(cauchy_bound(0.5, 2.0, 0.1, "vector", dim=4) - 80.0) < 1e-13


def test_cauchy_bound_rejects_bad_delta():
    with pytest.raises(ValueError):
        cauchy_bound(0.1, 1.0, 0.2, "D", dim=2)


def test_cauchy_dominates_measured_derivative():
    f = random_map((6, 6), (1, 1), RNG, decay=0.3)
    rho, delta = 0.1, 0.04
    bound = cauchy_bound(rho, f.norm(rho), delta, "D", dim=2)
    measured = sum(f.deriv(i).norm(rho - delta) for i in range(2))
    assert measured <= bound * (1 + 1e-12)


# -------------------------------------------------------------- serialization


def test_json_round_trip():
    f = random_map((3, 2), (2, 1), RNG)
    doc = json.loads(map_to_json(f))
    assert doc["dims"] == [2, 2, 1]
    assert doc["bands"] == [3, 2]
    assert len(doc["coeffs"]) == 2 * f.coeffs.size
    g = map_from_json(map_to_json(f))
    assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0


# ------------------------------------------------------ pruned real transforms


@pytest.mark.parametrize("bands, grid", [
    ((4, 0), (9, 1)),                    # a flat last axis (N_2 = 0): 2N+1, even, odd
    ((4, 0), (10, 2)),
    ((4, 0), (15, 3)),
    ((5, 5), (11, 11)),                  # d = 2: 2N+1
    ((16, 16), (72, 72)),                # the 3-smooth kitchen grids
    ((32, 32), (144, 144)),
    ((32, 32), (100, 100)),              # the 5-smooth product grids
    ((32, 32), (135, 135)),
    ((3, 9), (8, 25)),                   # anisotropic, even and odd
    ((16, 32), (72, 100)),
    ((2, 3, 4), (5, 7, 9)),              # d = 3: 2N+1, even, odd, anisotropic
    ((2, 3, 4), (6, 8, 10)),
    ((1, 4, 2), (9, 15, 5)),
])
def test_pruned_real_transforms_equal_rfftn_irfftn_bit_for_bit(monkeypatch, bands, grid):
    """At one axis-0 row per slab, two rows (ragged on odd grids) and the whole
    grid in one slab."""
    rng = np.random.default_rng(sum(grid))
    f = random_map(bands, (3, 2), rng, decay=0.1)
    f.half[..., 1, 0] = 0.0  # an identically zero entry keeps its zeros' signs
    samples = rng.standard_normal(grid + (2, 3))
    samples[..., 0, 1] = 0.25  # a constant entry
    synthesized = irfftn_samples(f, grid)
    for rows in (1, 2, grid[0]):
        monkeypatch.setattr(fourier, "SLAB_POINTS", rows * int(np.prod(grid[1:])))
        slabs = [vals for _, (vals,) in slab_samples(grid, f)]
        assert_same_bits(np.concatenate(slabs), synthesized)
        for s in (samples, synthesized):
            got = slab_analysis(lambda rows, _, s=s: [s[rows]], grid, bands)[0]
            assert_same_bits(got, half_of(rfftn_coefficients(s, bands), bands))


# ---------------------------------------------------------- property sampling


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.15), st.floats(min_value=0.0, max_value=0.15))
def test_strip_norm_monotone_property(r1, r2):
    f = random_map((4, 4), (1, 1), np.random.default_rng(7), decay=0.2)
    lo, hi = min(r1, r2), max(r1, r2)
    assert f.norm(lo) <= f.norm(hi) + 1e-12


# ------------------------------------------------------------ product engine


def _prime_factors(m):
    factors, p = [], 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    return factors + ([m] if m > 1 else [])


def _is_5_smooth(m):
    return all(p <= 5 for p in _prime_factors(m))


def test_dealias_grid_is_smallest_5_smooth_alias_free_size():
    for na in range(1, 71):
        for nb in range(1, 71):
            (size,) = dealias_grid((na,), (nb,))
            need = 2 * (na + nb) + 1
            assert size >= need and _is_5_smooth(size)
            assert not any(_is_5_smooth(m) for m in range(need, size))
    assert dealias_grid((2, 4, 16, 32, 64), (2, 4, 16, 32, 64)) == (9, 18, 72, 135, 270)


def test_dealias_grid_sized_to_the_kept_modes():
    """With out_bands given the grid only has to keep the retained modes
    alias-free: the smallest 5-smooth size >= N_a+N_b+N_out+1 (never below an
    operand's own 2N+1)."""
    for na in range(1, 25):
        for nb in range(1, 25):
            for no in range(0, na + nb + 1):
                (size,) = dealias_grid((na,), (nb,), (no,))
                need = max(na + nb + no, 2 * max(na, nb)) + 1
                if no >= abs(na - nb):
                    assert need == na + nb + no + 1
                assert size >= need and _is_5_smooth(size)
                assert not any(_is_5_smooth(m) for m in range(need, size))
    assert dealias_grid((32, 32), (32, 32), (32, 32)) == (100, 100)
    assert dealias_grid((16, 64), (16, 64), (16, 64)) == (50, 200)
    assert dealias_grid((5, 7), (3, 2)) == dealias_grid((5, 7), (3, 2), (8, 9))


def slab_product(a, b, grid, bands):
    """The transform path of ``matmul`` on ``grid``, kept at ``bands``."""
    return FourierMap(slab_analysis(lambda rows, v: [v[0] @ v[1]], grid, bands, a, b)[0])


@pytest.mark.parametrize("bands, out_bands", [((6, 1), (6, 1)), ((5, 4), (5, 3))])
def test_dealias_grid_is_tight(bands, out_bands):
    """One point short of N_a+N_b+N_out+1 folds product mode N_a+N_b onto the top
    kept mode; the rule's own size matches the full-band reference."""
    rng = np.random.default_rng(11)
    a = random_map(bands, (2, 2), rng)
    b = random_map(bands, (2, 2), rng)
    ref = complex_fft_product(a, b, out_bands)
    need = tuple(2 * n + no + 1 for n, no in zip(bands, out_bands))
    good = slab_product(a, b, need, out_bands)
    assert np.max(np.abs(good.coeffs - ref.coeffs)) <= 1e-13 * _scale(a, b)
    short = slab_product(a, b, tuple(m - 1 for m in need), out_bands)
    top = tuple(slice(None) if i else -1 for i in range(len(bands)))  # k_1 = +N_out
    assert np.max(np.abs(short.coeffs[top] - ref.coeffs[top])) > 1e6 * 1e-13 * _scale(a, b)


@pytest.mark.parametrize("bands_a, bands_b", [((3, 1), (4, 1)), ((4, 3), (4, 5)),
                                              ((2, 2), (2, 2, 2))])
def test_matmul_refuses_operands_on_different_bands(bands_a, bands_b):
    rng = np.random.default_rng(12)
    a = _operand("varying", bands_a, (2, 2), rng)
    b = _operand("varying", bands_b, (2, 2), rng)
    with pytest.raises(FourierShapeError) as info:
        matmul(a, b)
    assert str(bands_a) in str(info.value) and str(bands_b) in str(info.value)


def complex_fft_product(a, b, out_bands=None, work_grid=None):
    """Reference product: complex synthesis, complex @, complex analysis, kept
    at ``out_bands`` (default: the operands' band ``matmul`` keeps).

    The engine ``matmul`` uses real transforms and shortcuts constant and zero
    operands; it must agree with this on real-analytic operands.
    """
    work = tuple(work_grid) if work_grid is not None else tuple(
        2 * (na + nb) + 1 for na, nb in zip(a.bands, b.bands))
    out_bands = a.bands if out_bands is None else tuple(out_bands)
    d = len(out_bands)
    prod = ifftn_samples(a, work) @ ifftn_samples(b, work)
    return FourierMap.from_coeffs(fftn_coefficients(prod, out_bands))


def common_band(bands_a, bands_b, out_bands):
    """``out_bands``, or by default the full product band N_a + N_b, on which a
    product of maps drawn on bands_a and bands_b loses no mode."""
    return tuple(out_bands) if out_bands else tuple(na + nb for na, nb in zip(bands_a, bands_b))


def _operand(kind, bands, shape, rng):
    if kind == "const":
        return FourierMap.constant(rng.standard_normal(shape), bands)
    if kind == "zero":
        return FourierMap.zeros(bands, shape)
    return random_map(bands, shape, rng, decay=0.2)


def assert_matches_reference(a, b, work_grid=None):
    got = matmul(a, b)
    ref = complex_fft_product(a, b, work_grid=work_grid)
    assert (got.bands, got.shape) == (ref.bands, ref.shape)
    assert np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0) <= 1e-13 * _scale(a, b)
    return got


def _scale(a, b):
    """Sum of |coefficients| of a times that of b: bounds every product coefficient."""
    return float(np.abs(a.coeffs).sum() * np.abs(b.coeffs).sum())


@pytest.mark.parametrize("bands_a, bands_b, shape_a, shape_b, out_bands, work_grid", [
    ((5, 1), (3, 1), (2, 3), (3, 4), None, None),
    ((5, 1), (3, 1), (1, 1), (1, 2), (4, 1), None),
    ((4, 3), (2, 5), (3, 2), (2, 1), (3, 3), None),
    ((4, 3), (2, 5), (3, 2), (2, 1), (6, 8), None),
    ((2, 1, 3), (1, 2, 2), (1, 3), (3, 2), None, None),
    ((2, 1, 3), (1, 2, 2), (2, 3), (3, 1), (2, 2, 2), None),
    ((3, 4), (3, 4), (2, 2), (2, 3), (3, 4), (15, 17)),
    ((3, 4), (3, 4), (2, 2), (2, 3), (3, 4), (16, 18)),
    ((3, 4), (3, 4), (2, 2), (2, 2), (3, 4), (9, 10)),
    ((6, 1), (6, 1), (2, 2), (2, 2), (6, 1), None),
    ((8, 1), (2, 1), (1, 2), (2, 1), (1, 1), None),
    ((6, 2), (3, 5), (2, 2), (2, 1), (4, 3), None),
    ((8, 8), (8, 8), (3, 2), (2, 3), (8, 8), None),
    ((32, 32), (32, 32), (2, 2), (2, 2), (32, 32), None),
])
def test_matmul_matches_complex_fft_product(monkeypatch, bands_a, bands_b, shape_a, shape_b,
                                            out_bands, work_grid):
    """Operands drawn on bands_a and bands_b and held on the common band
    ``out_bands`` (:func:`common_band`); a given ``work_grid`` (odd, even, and
    short of alias-free on axis 0) replaces the dealiasing rule's grid in both
    the engine and the reference."""
    rng = np.random.default_rng(sum(bands_a) + 10 * len(bands_b))
    common = common_band(bands_a, bands_b, out_bands)
    a = on_band(_operand("varying", bands_a, shape_a, rng), common)
    b = on_band(_operand("varying", bands_b, shape_b, rng), common)
    if work_grid is not None:
        monkeypatch.setattr(fourier, "dealias_grid", lambda *_: work_grid)
    assert_matches_reference(a, b, work_grid)


@pytest.mark.parametrize("kinds", [("const", "varying"), ("varying", "const"),
                                   ("const", "const"), ("zero", "varying"),
                                   ("varying", "zero")])
@pytest.mark.parametrize("out_bands", [None, (2, 5)])
def test_matmul_constant_and_zero_operands_skip_transforms(monkeypatch, kinds, out_bands):
    """Operands drawn on (3, 4) and (4, 2), held on the common band ``out_bands``."""
    rng = np.random.default_rng(5)
    common = common_band((3, 4), (4, 2), out_bands)
    a = on_band(_operand(kinds[0], (3, 4), (3, 2), rng), common)
    b = on_band(_operand(kinds[1], (4, 2), (2, 4), rng), common)
    ref = complex_fft_product(a, b)

    def no_transform(*args, **kwargs):
        raise AssertionError("a constant or zero operand must not be transformed")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, no_transform)
    got = matmul(a, b)
    assert (got.bands, got.shape) == (ref.bands, ref.shape)
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-13 * _scale(a, b)


def test_matmul_constant_result_keeps_exact_zeros():
    rng = np.random.default_rng(6)
    c1 = FourierMap.constant(rng.standard_normal((2, 3)), (3, 3))
    c2 = FourierMap.constant(rng.standard_normal((3, 2)), (3, 3))
    prod = matmul(c1, c2)
    off = prod.coeffs.copy()
    off[3, 3] = 0.0
    assert not np.any(off)
    diff = prod.average() - c1.average() @ c2.average()
    assert np.max(np.abs(diff)) <= 1e-15 * _scale(c1, c2)


@pytest.mark.parametrize("shape_a, shape_b", [((3, 4), (4, 0)), ((4, 0), (0, 2))])
def test_matmul_empty_operand_gives_zeros(shape_a, shape_b):
    rng = np.random.default_rng(7)
    a = _operand("varying", (3, 2), shape_a, rng)
    b = _operand("varying", (3, 2), shape_b, rng)
    got = assert_matches_reference(a, b)
    assert not np.any(got.coeffs)


# ---------------------------------------------------------- constant factors


def einsum_rmatmul_constant(f, matrix):
    """The left constant product as the einsum of the complex matrix (reference)."""
    return np.einsum("ij,...jk->...ik", np.asarray(matrix, dtype=np.complex128), f.half)


def per_mode_matmul_constant(f, matrix):
    """The right constant product as numpy's per-mode ``@`` (reference)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return f.half @ (matrix[:, None] if matrix.ndim == 1 else matrix)


def reference_constant_product(const, varying, side):
    """matmul's constant shortcut by its references: the complex einsum on the
    left, numpy's per-mode @ on the right."""
    if side == "left":
        return einsum_rmatmul_constant(varying, const.average())
    return per_mode_matmul_constant(varying, const.average())


def _awkward_coeffs(box, shape, rng):
    """Random half-box coefficients with exact zeros and negative zeros in both
    parts (``box`` is the half box of the bands)."""
    c = rng.standard_normal(box + shape) + 1j * rng.standard_normal(box + shape)
    c.real[rng.random(c.shape) < 0.2] = 0.0
    c.imag[rng.random(c.shape) < 0.2] = -0.0
    c.real[rng.random(c.shape) < 0.1] = -0.0
    if shape[0] > 1:
        c[..., 1, :] = 0.0  # a whole zero row
    return c


def _awkward_matrix(shape, rng):
    m = rng.standard_normal(shape)
    m[rng.random(shape) < 0.3] = 0.0
    m[rng.random(shape) < 0.1] = -0.0
    return m


@pytest.mark.parametrize("seed", range(6))
def test_constant_products_equal_reference_bit_for_bit(seed):
    """Left products equal the complex einsum and right products numpy's per-mode @,
    byte for byte, on 1-row, 1-column, transposed and zero-laden operands."""
    rng = np.random.default_rng(100 + seed)
    cases = 0
    for bands in [(3, 1), (4, 5), (2, 1, 3)]:
        box = tuple(2 * n + 1 for n in bands[:-1]) + (bands[-1] + 1,)
        for n1, n2, n3 in [(1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 2, 1), (4, 4, 4), (4, 2, 2),
                           (6, 3, 1), (1, 4, 1), (2, 2, 6), (5, 5, 2)]:
            coeffs = _awkward_coeffs(box, (n2, n3), rng)
            wide = _awkward_coeffs(box, (n2 + 2, n3 + 2), rng)
            views = [FourierMap(coeffs),
                     FourierMap(np.swapaxes(_awkward_coeffs(box, (n3, n2), rng), -1, -2)),
                     FourierMap(wide).block(slice(1, n2 + 1), slice(2, n3 + 2)),
                     FourierMap(np.swapaxes(wide, -1, -2)).block(slice(0, n3),
                                                                         slice(1, n2 + 1))]
            for f in views:
                left = _awkward_matrix((n1, f.shape[0]), rng)
                got = f.rmatmul_constant(left)
                assert got.half.tobytes() == einsum_rmatmul_constant(f, left).tobytes()
                right = _awkward_matrix((f.shape[1], n1), rng)
                for matrix in (right, right[:, 0]):
                    got = f.matmul_constant(matrix)
                    assert got.half.tobytes() == per_mode_matmul_constant(f, matrix).tobytes()
                cases += 1
    assert cases == 120


def test_left_constant_product_keeps_complex_matrices_exact():
    rng = np.random.default_rng(11)
    f = FourierMap(_awkward_coeffs((5, 2), (3, 2), rng))
    matrix = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert f.rmatmul_constant(matrix).half.tobytes() == \
        einsum_rmatmul_constant(f, matrix).tobytes()
    with pytest.raises(FourierShapeError):
        f.rmatmul_constant(np.eye(2))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("out_bands", [(3, 4), (2, 4), (5, 6), (1, 7)])
def test_matmul_constant_shortcut_equals_copies_bit_for_bit(side, out_bands):
    """With both factors held on ``out_bands`` (the varying one a truncated or
    padded copy), the shortcut gives the bytes of the reference product."""
    rng = np.random.default_rng(len(side) + sum(out_bands))
    const = FourierMap.constant(_awkward_matrix((4, 4), rng), out_bands)
    varying = on_band(FourierMap(_awkward_coeffs((7, 5), (4, 4), rng)), out_bands)
    a, b = (const, varying) if side == "left" else (varying, const)
    got = matmul(a, b)
    assert got.bands == out_bands
    assert got.half.tobytes() == reference_constant_product(const, varying, side).tobytes()


def test_matmul_constant_and_zero_products_need_no_work_grid(monkeypatch):
    """The shortcuts transform nothing, so they never ask for a work grid."""
    rng = np.random.default_rng(12)
    f = FourierMap(_awkward_coeffs((33, 17), (2, 3), rng))
    const = FourierMap.constant(_awkward_matrix((2, 2), rng), (16, 16))
    zero = FourierMap.zeros((16, 16), (2, 2))

    def no_grid(*args):
        raise AssertionError("a constant or zero operand needs no work grid")

    monkeypatch.setattr(fourier, "dealias_grid", no_grid)
    got = matmul(const, f)
    assert got.half.tobytes() == reference_constant_product(const, f, "left").tobytes()
    for a, b in ((zero, zero), (zero, f)):
        got = matmul(a, b)
        assert (got.bands, got.shape) == ((16, 16), (2, 3 if b is f else 2))
        assert not np.any(got.coeffs)


# ------------------------------------------------ the half box and the full box


def oracle_box(bands, shape, rng, kind):
    """A real-analytic full box: symmetrized normals ("varying"), a random
    k = 0 mode ("const") or zeros."""
    box = np.zeros(tuple(2 * n + 1 for n in bands) + tuple(shape), dtype=complex)
    if kind == "varying":
        box = symmetrize(rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape))
    elif kind == "const":
        box[tuple(bands)] = rng.standard_normal(shape)
    return box


def oracle_pair(bands, shape, rng, kind):
    """The same map as a half-box FourierMap and as a full-box BoxMap."""
    box = oracle_box(bands, shape, rng, kind)
    return FourierMap.from_coeffs(box), BoxMap(box, bands)


KINDS = st.sampled_from(["varying", "const", "zero"])


@settings(max_examples=80)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=3), st.tuples(*[st.integers(1, 3)] * 3),
       KINDS, KINDS, st.integers(0, 2**32 - 1))
def test_half_box_equals_the_full_box_oracle(bands, dims, kind_a, kind_b, seed):
    """Each operation on the stored k_d >= 0 half gives the bits of the full-box
    arithmetic (``oracles.BoxMap``) on that half, signed zeros included; the
    full box, the product, the norms and the JSON document are equal whole."""
    bands = tuple(bands)
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    a, A = oracle_pair(bands, (n1, n2), rng, kind_a)
    b, B = oracle_pair(bands, (n2, n3), rng, kind_b)
    c, C = oracle_pair(bands, (n1, n2), rng, "varying")
    assert_same_bits(a.coeffs, A.coeffs)
    omega = 1.0 + rng.random(len(bands))
    dio = SimpleNamespace(d=len(bands), omega=omega)  # all that the solve reads, at any d
    right = rng.standard_normal((n2, n3))
    left = rng.standard_normal((n3, n1))
    shift = rng.standard_normal((n1, n2))
    pairs = [(a.deriv(i), A.deriv(i)) for i in range(len(bands))] + [
        (a.lie(omega), A.lie(omega)), (a + c, A + C), (a - c, A - C), (-a, -A),
        (a * 0.3, A * 0.3), (a.T, A.T), (a.block(slice(0, 1), slice(1, None)),
                                        A.block(slice(0, 1), slice(1, None))),
        (a.truncate([n - 1 for n in bands]), A.truncate([n - 1 for n in bands])),
        (a.add_constant(shift), A.add_constant(shift)),
        (a.matmul_constant(right), A.matmul_constant(right)),
        (a.matmul_constant(right[:, 0]), A.matmul_constant(right[:, 0])),
        (a.rmatmul_constant(left), A.rmatmul_constant(left)),
        (a.rmatmul_constant(left + 1j * left[::-1]), A.rmatmul_constant(left + 1j * left[::-1])),
        (solve_cohomological(a, dio), box_solve_cohomological(A, omega)),
    ]
    for got, ref in pairs:
        assert got.bands == ref.bands
        assert_same_bits(got.half, ref.half)
    assert_same_bits(a.average(), A.average())
    assert (not fourier._varying_entries(a).any()) == A.is_constant() == (kind_a != "varying")
    for rho in (0.0, 0.07):
        for transpose in (False, True):
            assert a.norm(rho, transpose) == A.norm(rho, transpose)
    prod, ref = matmul(a, b), box_matmul(A, B)
    assert_same_bits(prod.coeffs, ref.coeffs)
    for f, F in ((a, A), (prod, ref)):
        assert json.dumps(f.to_json_dict()) == json.dumps(F.to_json_dict())
        assert_same_bits(map_from_json(map_to_json(f)).half, f.half)


@pytest.mark.parametrize("defect, accepted", [(0.0, True), (0.5e-12, True), (2e-12, False)])
def test_from_coeffs_checks_the_symmetry_and_keeps_the_half(defect, accepted):
    """A box whose f_-k and conj f_k differ by at most 1e-12 relative is taken as
    its k_d >= 0 half, its k_d < 0 modes replaced by their mirror; a larger
    defect is refused as not real."""
    bands = (2, 3)
    box = oracle_box(bands, (2, 1), np.random.default_rng(3), "varying")
    box /= np.max(np.abs(box))
    box[0, 0, 1, 0] += defect  # k = (-2, -3), a k_d < 0 mode
    if not accepted:
        with pytest.raises(ValueError, match="not real: f_-k and conj"):
            FourierMap.from_coeffs(box)
        return
    f = FourierMap.from_coeffs(box)
    assert_same_bits(f.half, half_of(box, bands))
    box[0, 0, 1, 0] -= defect
    assert_same_bits(f.coeffs, box)
