"""Spectral core: synthesis/analysis, calculus, strip majorants, Cauchy rules."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamtorus.fourier import (
    FourierMap,
    FourierShapeError,
    StripOverflowError,
    _real_analysis,
    _real_samples,
    dealias_grid,
    matmul,
)

from conftest import eval_at, map_from_json, map_to_json, random_map
from oracles import cauchy_bound

RNG = np.random.default_rng(20240817)


def cos_map(bands=(4,), axis_k=1):
    f = FourierMap.zeros(bands, (1, 1))
    c = bands[0]
    f.coeffs[c + axis_k, 0, 0] = 0.5
    f.coeffs[c - axis_k, 0, 0] = 0.5
    return f


def sin_map(bands=(4,)):
    f = FourierMap.zeros(bands, (1, 1))
    c = bands[0]
    f.coeffs[c + 1, 0, 0] = -0.5j
    f.coeffs[c - 1, 0, 0] = 0.5j
    return f


# ---------------------------------------------------------------- eval_grid


def test_eval_grid_constant():
    f = FourierMap.constant(np.array([[3.0]]), (4, 4))
    samples = f.eval_grid()
    assert np.allclose(samples, 3.0, atol=1e-14)


def test_eval_grid_cosine_quarter_points():
    f = cos_map(bands=(1,))
    samples = f.eval_grid((4,))[..., 0, 0].real
    assert np.allclose(samples, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_eval_grid_matches_direct_summation():
    f = random_map((8,), (2, 2), RNG, decay=0.1)
    theta = (np.arange(32) / 32.0)[:, None]
    direct = eval_at(f, theta)
    fast = f.eval_grid((32,))
    assert np.max(np.abs(direct - fast)) < 1e-13 * max(1, np.max(np.abs(direct)))


# ------------------------------------------------------------- from_samples


def test_from_samples_constant():
    samples = np.full((9, 9, 1, 1), 2.5 + 0j)
    f = FourierMap.from_samples(samples, (4, 4))
    assert abs(f.average()[0, 0] - 2.5) < 1e-15
    off = f.coeffs.copy()
    off[4, 4] = 0
    assert np.max(np.abs(off)) < 1e-15


def test_from_samples_sine_euler_coefficients():
    theta = np.arange(8) / 8.0
    samples = np.sin(2 * np.pi * theta)[:, None, None].astype(complex)
    f = FourierMap.from_samples(samples, (3,))
    assert abs(f.coeffs[3 + 1, 0, 0] - (-0.5j)) < 1e-15
    assert abs(f.coeffs[3 - 1, 0, 0] - (0.5j)) < 1e-15


def test_round_trip_from_samples_of_eval():
    f = random_map((6, 6), (3, 2), RNG, decay=0.2)
    g = FourierMap.from_samples(f.eval_grid(), f.bands)
    rel = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert rel < 1e-13


def test_round_trip_eval_of_from_samples_on_random_samples():
    samples = (RNG.standard_normal((9, 9, 2, 2)) + 0j)
    samples = 0.5 * (samples + np.conj(samples[::-1, ::-1]))  # representable input
    f = FourierMap.from_samples(samples, (4, 4))
    back = f.eval_grid()
    assert np.max(np.abs(back - samples)) < 1e-13


def test_from_samples_dimension_mismatch():
    with pytest.raises(FourierShapeError):
        FourierMap.from_samples(np.zeros((5, 5, 1, 1), dtype=complex), (4, 4))


@pytest.mark.parametrize("bands, grid, shape", [
    ((4,), (9,), (1, 1)),
    ((4,), (12,), (2, 3)),
    ((4, 5), (11, 12), (2, 3)),
    ((3, 2), (10, 7), (3, 1)),
    ((1, 2, 2), (4, 5, 6), (2, 2)),
])
def test_from_samples_real_samples_match_complex_path(monkeypatch, bands, grid, shape):
    samples = np.random.default_rng(sum(grid)).standard_normal(grid + shape)
    ref = FourierMap.from_samples(samples.astype(complex), bands)

    def no_complex_fft(*args, **kwargs):
        raise AssertionError("real samples must be analysed with a real FFT")

    monkeypatch.setattr(np.fft, "fftn", no_complex_fft)
    got = FourierMap.from_samples(samples, bands)
    assert (got.bands, got.shape) == (ref.bands, ref.shape)
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-14 * np.max(np.abs(samples))


def test_real_symmetry_enforced():
    samples = RNG.standard_normal((9, 9, 1, 1)) + 1j * RNG.standard_normal((9, 9, 1, 1))
    f = FourierMap.from_samples(samples, (4, 4))
    assert f.real_symmetry_defect() < 1e-12


# ------------------------------------------------------------------ calculus


def test_partial_derivative_constant_is_zero():
    f = FourierMap.constant(np.array([[7.0]]), (4,))
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
        bound = h**2 / 6.0 * np.max(np.abs(third.eval_grid())) * 1.05 + 1e-9
        assert np.max(np.abs(fd - exact)) <= bound


def test_lie_derivative_solves_cosine():
    omega = np.array([0.7])
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
    f = cos_map(bands=(4,))
    f = f.add_constant(np.array([[5.0]]))
    assert abs(f.average()[0, 0] - 5.0) < 1e-15


def test_average_equals_grid_mean():
    f = random_map((6, 6), (2, 3), RNG, decay=0.1)
    mean = f.eval_grid().mean(axis=(0, 1))
    assert np.max(np.abs(mean - f.average())) < 1e-13


# ----------------------------------------------------------------- strip norm


def test_strip_norm_constant():
    f = FourierMap.constant(np.array([[-2.0]]), (3, 3))
    for rho in (0.0, 0.1, 1.0):
        assert abs(f.norm(rho).value - 2.0) < 1e-15


def test_strip_norm_cosine_dominates_true_sup():
    f = cos_map()
    rho = 0.23
    value = f.norm(rho).value
    assert abs(value - np.exp(2 * np.pi * rho)) < 1e-13
    assert value >= np.cosh(2 * np.pi * rho)


def test_strip_norm_at_zero_dominates_grid_max():
    f = random_map((6, 6), (2, 2), RNG, decay=0.3)
    grid_max = np.max(np.abs(f.eval_grid((16, 16))).sum(axis=-1))
    assert f.norm(0.0).value >= grid_max - 1e-12


def test_strip_norm_transpose_is_column_sums():
    f = FourierMap.constant(np.array([[1.0, 2.0], [0.5, 0.25]]), (2,))
    assert abs(f.norm(0.0).value - 3.0) < 1e-15          # max row sum
    assert abs(f.norm(0.0, transpose=True).value - 2.25) < 1e-15


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_strip_norm_of_empty_map_is_zero(shape):
    f = FourierMap.zeros((2,), shape)
    assert f.norm(0.0).value == 0.0
    assert f.norm(0.1, transpose=True).value == 0.0


def test_strip_norm_monotone_in_rho():
    f = random_map((5, 5), (2, 2), RNG)
    values = [f.norm(r).value for r in (0.0, 0.05, 0.1, 0.2)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_strip_norm_overflow_flagged():
    f = random_map((40, 40), (1, 1), RNG)
    with pytest.raises(StripOverflowError):
        f.norm(2.0)


def test_strip_norm_submultiplicative():
    a = random_map((5, 5), (2, 3), RNG, decay=0.2)
    b = random_map((5, 5), (3, 2), RNG, decay=0.2)
    prod = matmul(a, b)  # full product band: no truncation slack
    rho = 0.07
    lhs = prod.norm(rho).value
    rhs = a.norm(rho).value * b.norm(rho).value
    assert lhs <= rhs * (1 + 1e-10)


# -------------------------------------------------------------- Cauchy bounds


def test_cauchy_bound_matrix_rule():
    from kamtorus.fourier import StripNorm

    out = cauchy_bound(StripNorm(rho=0.5, value=1.0), 0.1, "D", dim=2)
    assert abs(out.value - 20.0) < 1e-13
    assert abs(out.rho - 0.4) < 1e-15


def test_cauchy_bound_transpose_scalar_rule():
    from kamtorus.fourier import StripNorm

    out = cauchy_bound(StripNorm(rho=0.5, value=3.0), 0.25, "D-transpose")
    assert abs(out.value - 12.0) < 1e-13


def test_cauchy_bound_vector_rule():
    from kamtorus.fourier import StripNorm

    out = cauchy_bound(StripNorm(rho=0.5, value=2.0), 0.1, "vector", dim=4)
    assert abs(out.value - 80.0) < 1e-13


def test_cauchy_bound_rejects_bad_delta():
    from kamtorus.fourier import StripNorm

    with pytest.raises(ValueError):
        cauchy_bound(StripNorm(rho=0.1, value=1.0), 0.2, "D", dim=2)


def test_cauchy_dominates_measured_derivative():
    f = random_map((6, 6), (1, 1), RNG, decay=0.3)
    rho, delta = 0.1, 0.04
    base = f.norm(rho)
    bound = cauchy_bound(base, delta, "D", dim=2)
    measured = sum(f.deriv(i).norm(rho - delta).value for i in range(2))
    assert measured <= bound.value * (1 + 1e-12)


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


def assert_same_bits(got, ref):
    assert np.array_equal(got, ref)
    assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@pytest.mark.parametrize("bands, grid", [
    ((4,), (9,)),                        # d = 1: 2N+1, even, odd
    ((4,), (10,)),
    ((4,), (15,)),
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
    for name in ("fft", "ifft", "rfft", "irfft"):  # numpy < 2.0 signatures: no ``out``
        def numpy1(a, n=None, axis=-1, norm=None, _f=getattr(np.fft, name)):
            return _f(a, n=n, axis=axis, norm=norm)
        monkeypatch.setattr(np.fft, name, numpy1)
    rng = np.random.default_rng(sum(grid))
    f = random_map(bands, (3, 2), rng, decay=0.1)
    f.coeffs[..., 1, 0] = 0.0  # an identically zero entry keeps its zeros' signs
    assert_same_bits(_real_samples(f, grid), irfftn_samples(f, grid))
    samples = rng.standard_normal(grid + (2, 3))
    samples[..., 0, 1] = 0.25  # a constant entry
    assert_same_bits(_real_analysis(samples, bands), rfftn_coefficients(samples, bands))
    synthesized = irfftn_samples(f, grid)
    assert_same_bits(_real_analysis(synthesized, bands), rfftn_coefficients(synthesized, bands))


# ---------------------------------------------------------- property sampling


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.15), st.floats(min_value=0.0, max_value=0.15))
def test_strip_norm_monotone_property(r1, r2):
    f = random_map((4, 4), (1, 1), np.random.default_rng(7), decay=0.2)
    lo, hi = min(r1, r2), max(r1, r2)
    assert f.norm(lo).value <= f.norm(hi).value + 1e-12


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


@pytest.mark.parametrize("bands, out_bands", [((6,), (6,)), ((5, 4), (5, 3))])
def test_dealias_grid_is_tight(bands, out_bands):
    """One point short of N_a+N_b+N_out+1 folds product mode N_a+N_b onto the top
    kept mode; the rule's own size matches the full-band reference."""
    rng = np.random.default_rng(11)
    a = random_map(bands, (2, 2), rng)
    b = random_map(bands, (2, 2), rng)
    ref = complex_fft_product(a, b, out_bands)
    need = tuple(2 * n + no + 1 for n, no in zip(bands, out_bands))
    good = matmul(a, b, out_bands, work_grid=need)
    assert np.max(np.abs(good.coeffs - ref.coeffs)) <= 1e-13 * _scale(a, b)
    short = matmul(a, b, out_bands, work_grid=tuple(m - 1 for m in need))
    top = tuple(slice(None) if i else -1 for i in range(len(bands)))  # k_1 = +N_out
    assert np.max(np.abs(short.coeffs[top] - ref.coeffs[top])) > 1e6 * 1e-13 * _scale(a, b)


@pytest.mark.parametrize("bands_a, bands_b, out_bands", [
    ((3,), (2,), (8,)),
    ((4, 3), (2, 5), (12, 8)),
])
def test_default_grid_refuses_out_bands_above_product(bands_a, bands_b, out_bands):
    rng = np.random.default_rng(12)
    a = _operand("varying", bands_a, (2, 2), rng)
    b = _operand("varying", bands_b, (2, 2), rng)
    with pytest.raises(FourierShapeError):
        matmul(a, b, out_bands=out_bands)


def complex_fft_product(a, b, out_bands=None, work_grid=None):
    """Reference product: complex synthesis, complex @, complex analysis.

    The engine ``matmul`` uses real transforms and shortcuts constant and zero
    operands; it must agree with this on real-analytic operands.
    """
    work = tuple(work_grid) if work_grid is not None else tuple(
        2 * (na + nb) + 1 for na, nb in zip(a.bands, b.bands))
    full = tuple(na + nb for na, nb in zip(a.bands, b.bands))
    out_bands = full if out_bands is None else tuple(out_bands)
    d = len(out_bands)
    prod = a.eval_grid(work) @ b.eval_grid(work)
    hat = np.fft.fftn(prod, axes=tuple(range(d))) / float(np.prod(work))
    coeffs = hat[np.ix_(*(np.arange(-n, n + 1) % m for n, m in zip(out_bands, work)))]
    flipped = np.conj(coeffs[tuple(slice(None, None, -1) for _ in range(d))])
    return FourierMap(0.5 * (coeffs + flipped), out_bands)


def _operand(kind, bands, shape, rng):
    if kind == "const":
        return FourierMap.constant(rng.standard_normal(shape), bands)
    if kind == "zero":
        return FourierMap.zeros(bands, shape)
    return random_map(bands, shape, rng, decay=0.2)


def assert_matches_reference(a, b, out_bands=None, work_grid=None):
    got = matmul(a, b, out_bands=out_bands, work_grid=work_grid)
    ref = complex_fft_product(a, b, out_bands=out_bands, work_grid=work_grid)
    assert (got.bands, got.shape) == (ref.bands, ref.shape)
    assert np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0) <= 1e-13 * _scale(a, b)
    return got


def _scale(a, b):
    """Sum of |coefficients| of a times that of b: bounds every product coefficient."""
    return float(np.abs(a.coeffs).sum() * np.abs(b.coeffs).sum())


@pytest.mark.parametrize("bands_a, bands_b, shape_a, shape_b, out_bands, work_grid", [
    ((5,), (3,), (2, 3), (3, 4), None, None),
    ((5,), (3,), (1, 1), (1, 2), (4,), None),
    ((4, 3), (2, 5), (3, 2), (2, 1), (3, 3), None),
    ((4, 3), (2, 5), (3, 2), (2, 1), (6, 8), None),
    ((2, 1, 3), (1, 2, 2), (1, 3), (3, 2), None, None),
    ((2, 1, 3), (1, 2, 2), (2, 3), (3, 1), (2, 2, 2), None),
    ((3, 4), (3, 4), (2, 2), (2, 3), (3, 4), (15, 17)),
    ((3, 4), (3, 4), (2, 2), (2, 3), (3, 4), (16, 18)),
    ((3, 4), (3, 4), (2, 2), (2, 2), (3, 4), (9, 10)),
    ((6,), (6,), (2, 2), (2, 2), (6,), None),
    ((8,), (2,), (1, 2), (2, 1), (1,), None),
    ((6, 2), (3, 5), (2, 2), (2, 1), (4, 3), None),
    ((8, 8), (8, 8), (3, 2), (2, 3), (8, 8), None),
    ((32, 32), (32, 32), (2, 2), (2, 2), (32, 32), None),
])
def test_matmul_matches_complex_fft_product(bands_a, bands_b, shape_a, shape_b, out_bands,
                                            work_grid):
    rng = np.random.default_rng(sum(bands_a) + 10 * len(bands_b))
    a = _operand("varying", bands_a, shape_a, rng)
    b = _operand("varying", bands_b, shape_b, rng)
    assert_matches_reference(a, b, out_bands, work_grid)


@pytest.mark.parametrize("kinds", [("const", "varying"), ("varying", "const"),
                                   ("const", "const"), ("zero", "varying"),
                                   ("varying", "zero")])
@pytest.mark.parametrize("out_bands", [None, (2, 5)])
def test_matmul_constant_and_zero_operands_skip_transforms(monkeypatch, kinds, out_bands):
    rng = np.random.default_rng(5)
    a = _operand(kinds[0], (3, 4), (3, 2), rng)
    b = _operand(kinds[1], (4, 2), (2, 4), rng)
    ref = complex_fft_product(a, b, out_bands=out_bands)

    def no_transform(*args, **kwargs):
        raise AssertionError("a constant or zero operand must not be transformed")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, no_transform)
    got = matmul(a, b, out_bands=out_bands)
    assert (got.bands, got.shape) == (ref.bands, ref.shape)
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-13 * _scale(a, b)


def test_matmul_constant_result_keeps_exact_zeros():
    rng = np.random.default_rng(6)
    c1 = FourierMap.constant(rng.standard_normal((2, 3)), (2, 3))
    c2 = FourierMap.constant(rng.standard_normal((3, 2)), (4, 1))
    prod = matmul(c1, c2, out_bands=(3, 3))
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
    got = assert_matches_reference(a, b, out_bands=(3, 2))
    assert not np.any(got.coeffs)


# ---------------------------------------------------------- constant factors


def einsum_rmatmul_constant(f, matrix):
    """The left constant product as the einsum of the complex matrix (reference)."""
    return np.einsum("ij,...jk->...ik", np.asarray(matrix, dtype=np.complex128), f.coeffs)


def per_mode_matmul_constant(f, matrix):
    """The right constant product as numpy's per-mode ``@`` (reference)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return f.coeffs @ (matrix[:, None] if matrix.ndim == 1 else matrix)


def reference_constant_product(const, varying, side, out_bands):
    """matmul's constant shortcut as it was: the reference product of a
    truncated-and-padded copy of the varying operand."""
    fitted = varying.truncate(tuple(map(min, varying.bands, out_bands))).pad_bands(out_bands)
    if side == "left":
        return einsum_rmatmul_constant(fitted, const.average())
    return per_mode_matmul_constant(fitted, const.average())


def _awkward_coeffs(box, shape, rng):
    """Random coefficients with exact zeros and negative zeros in both parts."""
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
    for bands in [(3,), (4, 5), (2, 1, 3)]:
        box = tuple(2 * n + 1 for n in bands)
        for n1, n2, n3 in [(1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 2, 1), (4, 4, 4), (4, 2, 2),
                           (6, 3, 1), (1, 4, 1), (2, 2, 6), (5, 5, 2)]:
            coeffs = _awkward_coeffs(box, (n2, n3), rng)
            wide = _awkward_coeffs(box, (n2 + 2, n3 + 2), rng)
            views = [FourierMap(coeffs, bands),
                     FourierMap(np.swapaxes(_awkward_coeffs(box, (n3, n2), rng), -1, -2), bands),
                     FourierMap(wide, bands).block(slice(1, n2 + 1), slice(2, n3 + 2)),
                     FourierMap(np.swapaxes(wide, -1, -2), bands).block(slice(0, n3),
                                                                         slice(1, n2 + 1))]
            for f in views:
                left = _awkward_matrix((n1, f.shape[0]), rng)
                got = f.rmatmul_constant(left)
                assert got.coeffs.tobytes() == einsum_rmatmul_constant(f, left).tobytes()
                right = _awkward_matrix((f.shape[1], n1), rng)
                for matrix in (right, right[:, 0]):
                    got = f.matmul_constant(matrix)
                    assert got.coeffs.tobytes() == per_mode_matmul_constant(f, matrix).tobytes()
                cases += 1
    assert cases == 120


def test_left_constant_product_keeps_complex_matrices_exact():
    rng = np.random.default_rng(11)
    f = FourierMap(_awkward_coeffs((5, 3), (3, 2), rng), (2, 1))
    matrix = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert f.rmatmul_constant(matrix).coeffs.tobytes() == \
        einsum_rmatmul_constant(f, matrix).tobytes()
    with pytest.raises(FourierShapeError):
        f.rmatmul_constant(np.eye(2))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("out_bands", [(3, 4), (2, 4), (5, 6), (1, 7)])
def test_matmul_constant_shortcut_equals_copies_bit_for_bit(side, out_bands):
    """Scaling the kept view and then padding gives the bytes of scaling the
    truncated-and-padded copy."""
    rng = np.random.default_rng(len(side) + sum(out_bands))
    const = FourierMap.constant(_awkward_matrix((4, 4), rng), (3, 4))
    varying = FourierMap(_awkward_coeffs((7, 9), (4, 4), rng), (3, 4))
    a, b = (const, varying) if side == "left" else (varying, const)
    got = matmul(a, b, out_bands=out_bands)
    ref = reference_constant_product(const, varying, side, out_bands)
    assert got.bands == out_bands
    assert got.coeffs.tobytes() == ref.tobytes()
