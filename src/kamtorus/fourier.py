"""Truncated Fourier series on the d-torus with analytic-strip norm bounds.

A ``FourierMap`` represents a real-analytic periodic map T^d -> C^{n1 x n2}
through the coefficients f_k of

    f(theta) = sum_k  f_k  exp(2*pi*i k.theta),       k in Z^d, |k_i| <= N_i,

with f_{-k} = conj(f_k).  A map stores only the k_d >= 0 half of the index box,
k_i in [-N_i, N_i] on every axis but the last and k_d in [0, N_d] (the k_d = 0
plane keeps both signs of the other axes); each k_d < 0 mode is the conjugate
of the mode it mirrors, and the bands are read off the half's shape.  The full
box (``coeffs``) is built only where it is read whole: by the JSON writer and
``eval_grid`` and, as moduli, by the norms and the torus's domain margin.  A
sample grid (M_i >= 2*N_i + 1 points per axis) is chosen only where sampling
happens.  Differentiation and averaging act coefficient-wise on the half and
are exact on the truncation; a product of two maps on one band N is computed
on a dealiased grid and truncated back to N, so the library always manipulates
the *truncated model* of each object.  Per axis a product's grid is the
smallest size with no prime factor above 5 that is at least 3N + 1: only the
kept modes need to be alias-free (the 3/2 rule).  Products synthesize their
real-analytic operands with real FFTs, and real grid samples are analysed with
real FFTs.  These real transforms are pruned to the kept box: they run numpy's
1-D transforms in the axis order of ``rfftn``/``irfftn`` but only on the lines
that hold kept modes, so each kept value is bit for bit what
``rfftn``/``irfftn`` give.  Every transform but axis 0's acts on lines inside
one axis-0 slab of the grid, so every real synthesis walks the grid in slabs
of near-equal height (:func:`slab_samples`), and every real analysis samples
a pointwise function of maps that way and holds only the kept bins of the
whole grid (:func:`slab_analysis`), with the same bits.  What one pass holds
beyond its maps' axis-0 heads and its outputs' kept bins is one slab: at most
SLAB_POINTS points and SLAB_VALUES sample values, counting the operands'
matrix entries and the outputs' together, with each axis-0 head transformed
in place and each output's spectrum taken in blocks of rows about as large as
the bins the slab keeps.
A synthesis transforms only the matrix entries that vary: an entry whose
modes off k = 0 are all zero takes the real part of its k = 0 value at every
grid point, which is what the transforms give, bit for bit, unless that
value is -0.0 (then the entry is transformed).

Norms: the sup of |f| on the complex strip |Im theta| < rho is bounded
entry-wise by the Fourier majorant

    sum_k |f_k| exp(2*pi*|k|_1*rho),

and matrix entries are combined by the maximum row sum (maximum column sum
for the transposed norm).  The majorant dominates the true strip sup of the
truncated series, which is the direction the certification layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
SLAB_POINTS = 4096  # most grid points in a slab; with SLAB_VALUES it bounds a pass's samples
SLAB_VALUES = 32 * SLAB_POINTS  # most sample values in a slab, the operands' and the outputs'
SYMMETRY_RTOL = 1e-12  # largest relative |f_-k - conj f_k| that from_coeffs accepts


class FourierShapeError(ValueError):
    """Band/grid/matrix shapes of the operands do not match."""


class StripOverflowError(OverflowError):
    """Majorant weights overflow double precision: rho too large for this band."""


def strip_fits(rho: float, bands) -> bool:
    """Whether the majorant weights e^(2 pi |k|_1 rho) stay finite over the box
    |k_i| <= N_i, where |k|_1 reaches sum(bands) (e^x overflows above x ~ 709)."""
    return TWO_PI * rho * sum(bands) <= 700.0


@lru_cache(maxsize=128)
def _index_box(bands: tuple) -> tuple:
    """Per-axis integer mode vectors of the stored half box: -N_i .. N_i on
    every axis but the last, 0 .. N_d on it."""
    return tuple(np.arange(-n, n + 1) for n in bands[:-1]) + (np.arange(bands[-1] + 1),)


def _half_box(bands: tuple) -> tuple:
    """Shape (2N_1+1, ..., 2N_{d-1}+1, N_d+1) of the stored half box."""
    return tuple(2 * n + 1 for n in bands[:-1]) + (bands[-1] + 1,)


def _origin(bands: tuple) -> tuple:
    """Position of k = 0 in the half box."""
    return tuple(bands[:-1]) + (0,)


@lru_cache(maxsize=128)
def _k1_box(bands: tuple) -> np.ndarray:
    """|k|_1 over the full index box, shape (2N_1+1, ..., 2N_d+1)."""
    total = np.zeros(tuple(2 * n + 1 for n in bands))
    for i, n in enumerate(bands):
        shape = [1] * len(bands)
        shape[i] = 2 * n + 1
        total = total + np.abs(np.arange(-n, n + 1)).reshape(shape)
    return total


def _kept_rows(n: int, m: int) -> np.ndarray:
    """FFT bins k mod m of the modes k = -n .. n, in box order."""
    return np.arange(-n, n + 1) % m


def _split(m: int, count: int) -> list:
    """``count`` slices of near-equal length that cover 0 .. m-1, the longer first."""
    q, r = divmod(m, count)
    edges = [i * q + min(i, r) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _embed_slices(bands: tuple, grid: tuple):
    """Advanced-index arrays mapping box position k+N to FFT bin k mod M."""
    return np.ix_(*(_kept_rows(n, m) for n, m in zip(bands, grid)))


def _mirrored(half: np.ndarray, d: int) -> np.ndarray:
    """The full index box of a half box: each k_d < 0 mode is the conjugate of
    the mode -k it mirrors, its imaginary part 0.0 - Im f_-k, so that a zero part
    stays +0.0 as in a box built from zeros.  A real half (moduli) is mirrored as
    it is."""
    n = half.shape[d - 1] - 1
    full = np.empty(half.shape[:d - 1] + (2 * n + 1,) + half.shape[d:], dtype=half.dtype)
    full[..., n:, :, :] = half
    lower = full[..., :n, :, :]
    lower[...] = half[tuple(slice(None, None, -1) for _ in range(d - 1)) + (slice(n, 0, -1),)]
    if np.iscomplexobj(lower):
        np.subtract(0.0, lower.imag, out=lower.imag)
    return full


def _symmetrize_half(half: np.ndarray, d: int) -> np.ndarray:
    """``half`` projected in place onto real-analytic symmetry: (f_k + conj f_-k)/2.

    This is the arithmetic of the projection of the full box, kept on its
    k_d >= 0 half, where conj f_-k is f_k itself off the k_d = 0 plane: the sum
    f_k + f_k, then the product by 0.5, keep every bit of the full box's half,
    signs of zeros included.
    """
    plane = half[..., 0, :, :]
    sym = np.conj(plane[tuple(slice(None, None, -1) for _ in range(d - 1))])
    sym += plane
    plane[...] = sym
    rest = half[..., 1:, :, :]
    rest += rest
    half *= 0.5
    return half


@dataclass(frozen=True)
class FourierMap:
    """Matrix-valued truncated Fourier series on T^d, real-analytic.

    half: complex array of shape (2N_1+1, ..., 2N_{d-1}+1, N_d+1, n1, n2); the
    coefficient of mode k, k_d >= 0, sits at position (k_1+N_1, ...,
    k_{d-1}+N_{d-1}, k_d).  The k_d < 0 modes are f_{-k} = conj(f_k), and the
    k_d = 0 plane is its own mirror.  The bands (N_1, ..., N_d) are read off
    the shape.  ``coeffs`` builds the full box.
    """

    half: np.ndarray
    bands: tuple = field(init=False)

    def __post_init__(self):
        box = self.half.shape[:-2]
        if self.half.ndim < 3 or any(m % 2 == 0 for m in box[:-1]) or box[-1] < 1:
            raise FourierShapeError(
                "a half box needs torus axes of odd length 2N+1 but the last, of length "
                f"N_d+1 >= 1, plus 2 matrix axes, got shape {self.half.shape}"
            )
        object.__setattr__(self, "bands", tuple(m // 2 for m in box[:-1]) + (box[-1] - 1,))
        if self.half.dtype != np.complex128:
            object.__setattr__(self, "half", self.half.astype(np.complex128))

    # -- basic properties ---------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.bands)

    @property
    def shape(self) -> tuple:
        return self.half.shape[-2:]

    @property
    def coeffs(self) -> np.ndarray:
        """The full index box (2N_1+1, ..., 2N_d+1, n1, n2), k = 0 at
        ``tuple(bands)``: a new read-only array per call."""
        full = _mirrored(self.half, self.d)
        full.flags.writeable = False
        return full

    def magnitudes(self) -> np.ndarray:
        """|f_k| over the full index box (|f_-k| = |f_k|), k = 0 at ``tuple(bands)``."""
        return _mirrored(np.abs(self.half), self.d)

    @property
    def T(self) -> "FourierMap":
        return FourierMap(np.swapaxes(self.half, -1, -2))

    def block(self, rows: slice, cols: slice) -> "FourierMap":
        return FourierMap(self.half[..., rows, cols])

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, bands, shape) -> "FourierMap":
        return cls(np.zeros(_half_box(tuple(bands)) + tuple(shape), dtype=np.complex128))

    @classmethod
    def constant(cls, matrix, bands) -> "FourierMap":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
        out = cls.zeros(bands, matrix.shape)
        out.half[_origin(out.bands)] = matrix
        return out

    @classmethod
    def from_coeffs(cls, coeffs) -> "FourierMap":
        """The map of a full index box (2N_1+1, ..., 2N_d+1, n1, n2), k = 0 at
        its centre; the bands are read off its shape.

        The box must be real-analytic: f_-k and conj(f_k) may differ by at most
        SYMMETRY_RTOL times max(1, max |f_k|), else ValueError.  The map keeps
        a copy of the k_d >= 0 half as it is; the k_d < 0 modes are dropped.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        box = coeffs.shape[:-2]
        if coeffs.ndim < 3 or any(m % 2 == 0 for m in box):
            raise FourierShapeError("a full box needs torus axes of odd length 2N+1 plus 2 "
                                    f"matrix axes, got shape {coeffs.shape}")
        flipped = np.conj(coeffs[tuple(slice(None, None, -1) for _ in box)])
        defect = float(np.max(np.abs(coeffs - flipped), initial=0.0))
        if not defect <= SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(coeffs), initial=0.0))):
            raise ValueError(f"not real: f_-k and conj(f_k) differ by {defect:.3e}")
        return cls(np.array(coeffs[..., box[-1] // 2:, :, :]))

    @classmethod
    def from_samples(cls, samples: np.ndarray, bands) -> "FourierMap":
        """FFT analysis of uniform-grid samples, band-truncated and symmetrized.

        ``samples`` has shape (M_1, ..., M_d, n1, n2): the grid is the sample
        array's own shape, and M_i >= 2*N_i + 1 is required.  Inverse of
        :meth:`eval_grid` on band-limited input.  Real samples are analysed
        with a real FFT, complex ones with a complex FFT and projected onto
        f_-k = conj(f_k).
        """
        samples = np.asarray(samples)
        real = np.isrealobj(samples)
        samples = samples.astype(np.float64 if real else np.complex128, copy=False)
        bands = tuple(int(n) for n in bands)
        d = len(bands)
        grid = samples.shape[:d]
        if any(m < 2 * n + 1 for n, m in zip(bands, grid)):
            raise FourierShapeError(f"grid {grid} too small for bands {bands}")
        if real:
            return cls(slab_analysis(lambda rows, _: [samples[rows]], grid, bands)[0])
        hat = np.fft.fftn(samples, axes=tuple(range(d))) / float(np.prod(grid))
        box = hat[_embed_slices(bands, grid)]
        half = np.conj(box[tuple(slice(None, None, -1) for _ in bands)][..., bands[-1]:, :, :])
        half += box[..., bands[-1]:, :, :]
        half *= 0.5
        return cls(half)

    # -- synthesis / analysis ------------------------------------------------

    def eval_grid(self, grid=None) -> np.ndarray:
        """Samples on the uniform grid theta_j = j/M (complex array); ``grid``
        defaults to the smallest exact one, M_i = 2*N_i + 1."""
        if grid is None:
            grid = tuple(2 * n + 1 for n in self.bands)
        grid = tuple(int(m) for m in grid)
        if any(m < 2 * n + 1 for n, m in zip(self.bands, grid)):
            raise FourierShapeError(f"evaluation grid {grid} too small for bands {self.bands}")
        full = np.zeros(grid + self.shape, dtype=np.complex128)
        full[_embed_slices(self.bands, grid)] = self.coeffs
        axes = tuple(range(self.d))
        return np.fft.ifftn(full, axes=axes) * float(np.prod(grid))

    # -- coefficient-wise calculus -------------------------------------------

    def deriv(self, axis: int) -> "FourierMap":
        """Partial derivative along torus axis (0-based): f_k -> 2*pi*i*k_axis*f_k."""
        if not 0 <= axis < self.d:
            raise FourierShapeError(f"axis {axis} out of range for d={self.d}")
        k = _index_box(self.bands)[axis]
        shape = [1] * self.half.ndim
        shape[axis] = k.size
        return FourierMap(self.half * (TWO_PI * 1j * k.reshape(shape)))

    def lie(self, omega: np.ndarray) -> "FourierMap":
        """Left operator -sum_i omega_i d/dtheta_i: f_k -> -2*pi*i*(k.omega)*f_k.

        Evaluated as the weighted sum of partial derivatives so the identity
        lie(f, omega) = -sum_i omega_i * deriv(f, i) holds coefficient-wise
        exactly, not merely to rounding.
        """
        omega = np.asarray(omega, dtype=np.float64)
        if omega.shape != (self.d,):
            raise FourierShapeError(f"omega must have length d={self.d}")
        out = self.deriv(0) * (-omega[0])
        for i in range(1, self.d):
            out = out + self.deriv(i) * (-omega[i])
        return out

    def average(self) -> np.ndarray:
        """The k = 0 coefficient (complex (n1, n2) matrix; real up to noise
        for real-analytic maps)."""
        return np.array(self.half[_origin(self.bands)])

    # -- norms ----------------------------------------------------------------

    def norm(self, rho: float, transpose: bool = False) -> float:
        """Fourier-majorant bound for the strip sup-norm at half-width rho.

        Entry-wise sum_k |f_k| e^{2 pi |k|_1 rho} over the full box, in its
        order; entries combined by max row sum (max column sum when ``transpose``).
        """
        if rho < 0:
            raise ValueError("rho must be >= 0")
        if not strip_fits(rho, self.bands):
            raise StripOverflowError(
                f"e^(2 pi |k|_1 rho) overflows at rho={rho} for bands {self.bands}"
            )
        weights = np.exp(TWO_PI * rho * _k1_box(self.bands))
        entry = np.tensordot(weights, self.magnitudes(), axes=(tuple(range(self.d)),) * 2)
        return float(np.max(entry.sum(axis=0 if transpose else 1), initial=0.0))

    # -- band management -------------------------------------------------------

    def truncate(self, bands) -> "FourierMap":
        """Restrict to a smaller index box (tails are discarded)."""
        bands = tuple(int(n) for n in bands)
        if any(nb > n for nb, n in zip(bands, self.bands)):
            raise FourierShapeError(f"cannot truncate {self.bands} to larger bands {bands}")
        sl = tuple(slice(n - nb, n + nb + 1) for n, nb in zip(self.bands[:-1], bands[:-1]))
        return FourierMap(self.half[sl + (slice(0, bands[-1] + 1),)].copy())

    # -- algebra ----------------------------------------------------------------

    def _check_compatible(self, other: "FourierMap"):
        if self.bands != other.bands:
            raise FourierShapeError(f"operands have bands {self.bands} vs {other.bands}")

    def __add__(self, other: "FourierMap") -> "FourierMap":
        self._check_compatible(other)
        return FourierMap(self.half + other.half)

    def __sub__(self, other: "FourierMap") -> "FourierMap":
        self._check_compatible(other)
        return FourierMap(self.half - other.half)

    def __neg__(self) -> "FourierMap":
        return FourierMap(-self.half)

    def __mul__(self, scalar) -> "FourierMap":
        return FourierMap(self.half * scalar)

    __rmul__ = __mul__

    def add_constant(self, matrix) -> "FourierMap":
        out = FourierMap(self.half.copy())
        out.half[_origin(self.bands)] += np.asarray(matrix, dtype=np.complex128)
        return out

    def matmul_constant(self, matrix) -> "FourierMap":
        """Right-multiply by a constant matrix (exact in coefficients).

        One GEMM over the flattened modes equals the per-mode ``@`` bit for bit,
        except for 1-row maps and 1-column products of transposed views.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        c = self.half
        if c.shape[-2] < 2 or (matrix.shape[-1] < 2 and c.strides[-1] != c.itemsize):
            return FourierMap(c @ matrix)
        flat = c.reshape(-1, c.shape[-1]) @ matrix
        return FourierMap(flat.reshape(c.shape[:-1] + matrix.shape[1:]))

    def rmatmul_constant(self, matrix) -> "FourierMap":
        """Left-multiply by a constant matrix (exact in coefficients).

        A real matrix scales the float64 view row by row, in column order, which
        equals the complex ``einsum`` bit for bit on finite coefficients.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[1] != self.shape[0]:
            raise FourierShapeError(f"matrix {matrix.shape} does not chain with {self.shape}")
        if np.any(matrix.imag):
            return FourierMap(np.einsum("ij,...jk->...ik", matrix, self.half))
        x = np.ascontiguousarray(self.half).view(np.float64)
        out = np.zeros(x.shape[:-2] + (matrix.shape[0], x.shape[-1]))
        term = np.empty(x.shape[:-2] + x.shape[-1:])
        for i, row in enumerate(matrix.real):
            for j in np.flatnonzero(row):
                out[..., i, :] += np.multiply(x[..., j, :], row[j], out=term)
        return FourierMap(out.view(np.complex128))

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"dims": [d, n1, n2], "bands": [...], "coeffs": [re, im, ...]}.

        Coefficients of the full box are flattened in row-major order over
        (k_1+N_1, ..., k_d+N_d, row, col), each complex number as a (re, im) pair.
        """
        flat = self.coeffs.reshape(-1)
        pairs = np.empty(2 * flat.size, dtype=np.float64)
        pairs[0::2] = flat.real
        pairs[1::2] = flat.imag
        del flat  # the full box is released before the list is built
        return {
            "dims": [self.d, self.shape[0], self.shape[1]],
            "bands": list(self.bands),
            "coeffs": pairs.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FourierMap":
        """The map of a :meth:`to_json_dict` document; its coefficients must be
        finite and real-analytic (:meth:`from_coeffs`), and its dims and bands
        integers (not booleans)."""
        dims, bands = doc["dims"], doc["bands"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in [*dims, *bands]):
            raise ValueError(f"dims and bands must be integers, got {dims!r} and {bands!r}")
        d, n1, n2 = dims
        if len(bands) != d:
            raise FourierShapeError("dims and bands disagree on d")
        box = tuple(2 * n + 1 for n in bands)
        pairs = np.asarray(doc["coeffs"], dtype=np.float64)
        if not np.isfinite(pairs).all():
            raise ValueError("coefficients must be finite")
        flat = pairs[0::2] + 1j * pairs[1::2]
        return cls.from_coeffs(flat.reshape(box + (n1, n2)))


@lru_cache(maxsize=256)
def _k_dot_omega(bands: tuple, omega: tuple) -> np.ndarray:
    """k . omega over the half box."""
    axes = _index_box(bands)
    total = np.zeros(_half_box(bands))
    for i, ax in enumerate(axes):
        shape = [1] * len(bands)
        shape[i] = ax.size
        total = total + omega[i] * ax.reshape(shape)
    return total


def _next_smooth(n: int, primes: tuple = (2, 3, 5)) -> int:
    """Smallest integer >= n with no prime factor outside ``primes`` (a fast FFT size)."""
    while True:
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dealias_grid(bands_a: tuple, bands_b: tuple, out_bands=None) -> tuple:
    """Product work grid: per axis, the smallest 5-smooth size >= N_a+N_b+N_out+1.

    ``out_bands`` defaults to the full product band N_a + N_b, which gives
    2(N_a+N_b)+1.  A product mode k (|k| <= N_a+N_b) aliases onto a kept bin k'
    (|k'| <= N_out) only if the grid size M divides k - k', and
    |k - k'| <= N_a+N_b+N_out < M, so the kept modes are alias-free (the 3/2
    rule when all three bands are equal).  The size is never below
    2 max(N_a, N_b)+1, so that each operand synthesizes on it.
    """
    if out_bands is None:
        out_bands = tuple(na + nb for na, nb in zip(bands_a, bands_b))
    return tuple(_next_smooth(max(na + nb + no, 2 * max(na, nb)) + 1)
                 for na, nb, no in zip(bands_a, bands_b, out_bands))


def _is_constant(f: FourierMap) -> bool:
    """True when every coefficient off k = 0 is exactly zero."""
    plane = f.half[..., 0, :, :].reshape(-1, *f.shape)
    center = plane.shape[0] // 2  # k = 0 is the middle of the odd-sized k_d = 0 plane
    return not (np.any(f.half[..., 1:, :, :]) or np.any(plane[:center])
                or np.any(plane[center + 1:]))


def _ifft_kept(data: np.ndarray, axis: int, n: int, m: int) -> np.ndarray:
    """``ifft`` along ``axis`` of the kept rows -n .. n embedded in m bins, in place
    in the zero-padded array."""
    full = np.zeros(data.shape[:axis] + (m,) + data.shape[axis + 1:], dtype=np.complex128)
    full[(slice(None),) * axis + (_kept_rows(n, m),)] = data
    return np.fft.ifft(full, axis=axis, norm="forward", out=full)


def _fft_kept(data: np.ndarray, axis: int, n: int) -> np.ndarray:
    """``fft`` along ``axis``, cut to the kept rows -n .. n."""
    hat = np.fft.fft(data, axis=axis, norm="forward")
    return hat.take(_kept_rows(n, data.shape[axis]), axis=axis)


def _constant_entries(f: FourierMap):
    """The mask of the constant entries of ``f``, or None when no entry is constant.

    An entry is constant when its modes off k = 0 are all zero, of either sign,
    and its f_0 is finite with a real part other than -0.0; ``irfftn`` then
    gives Re f_0 at every grid point, bit for bit.  A -0.0 synthesizes to +0.0
    or to zeros of mixed sign, so that entry is transformed like a varying one.
    """
    modes = f.half.reshape(-1, *f.shape)  # the torus axes in C order
    o = np.ravel_multi_index(_origin(f.bands), f.half.shape[:f.d])
    if len(modes) > 1 and np.logical_or(modes[o - 1], modes[o + 1]).all():
        return None  # every entry has a mode next to k = 0 that is not zero
    f0 = modes[o]
    varies = modes[:o].any(axis=0) | modes[o + 1:].any(axis=0)
    zero_sign = (f0.real == 0) & np.signbit(f0.real)
    const = ~varies & np.isfinite(f0) & ~zero_sign
    return const if const.any() else None


def _synthesis_head(f: FourierMap, const, grid: tuple):
    """The entries of ``f`` that are not ``const`` (all of them when ``const`` is
    None; else its half box indexed by ``~const``, one axis for the entries),
    inverse-transformed along axis 0 when d > 1; None when no entry varies."""
    if any(m < 2 * n + 1 for n, m in zip(f.bands, grid)):
        raise FourierShapeError(f"evaluation grid {grid} too small for bands {f.bands}")
    if const is None:
        part = f.half
    elif const.all():
        return None
    else:
        part = f.half[..., ~const]
    return _ifft_kept(part, 0, f.bands[0], grid[0]) if f.d > 1 else part


def _synthesis_tail(head: np.ndarray, bands: tuple, grid: tuple) -> np.ndarray:
    """Real samples on the axis-0 rows that ``head`` holds: ``ifft`` on axes
    1 .. d-2, then ``irfft`` zero-pads the N_d + 1 kept bins to M_d."""
    for axis in range(1, len(bands) - 1):
        head = _ifft_kept(head, axis, bands[axis], grid[axis])
    return np.fft.irfft(head, n=grid[-1], axis=len(bands) - 1, norm="forward")


def _analysis_head(samples: np.ndarray, bands: tuple, out: np.ndarray):
    """Write into ``out`` the ``rfft`` of ``samples`` on the last torus axis cut to
    its N_d + 1 kept bins, then ``fft`` on axes d-2 .. 1 cut to the kept rows:
    every transform but axis 0's.

    At d > 1 they run over ceil((M_d/2 + 1) / (N_d + 1)) blocks of axis-0 rows
    (one per row at most), so that a block's full M_d/2 + 1-bin ``rfft`` is
    about as large as the bins that ``out`` keeps; each block's values are bit
    for bit those of one call on the whole array."""
    d = len(bands)
    bins = samples.shape[d - 1] // 2 + 1
    count = 1 if d == 1 else min(len(samples), -(-bins // (bands[-1] + 1)))
    for block in _split(len(samples), count):
        upper = np.fft.rfft(samples[block], axis=d - 1, norm="forward")[..., :bands[-1] + 1, :, :]
        for axis in range(d - 2, 0, -1):
            upper = _fft_kept(upper, axis, bands[axis])
        out[block] = upper


def _analysis_tail(acc: np.ndarray, bands: tuple) -> np.ndarray:
    """The half box of an accumulator of kept bins: ``fft`` on axis 0 cut to its
    kept rows (d > 1), then symmetrized (:func:`_symmetrize_half`).

    The axis-0 ``fft`` runs over blocks of axis 1 of about SLAB_POINTS values,
    so the transform of the whole grid is never held; each block's values are
    bit for bit those of one call on the whole accumulator.
    """
    d = len(bands)
    if d == 1:
        return _symmetrize_half(acc, d)
    half = np.empty((2 * bands[0] + 1,) + acc.shape[1:], dtype=np.complex128)
    step = max(1, SLAB_POINTS // max(1, acc[:, :1].size))
    for start in range(0, acc.shape[1], step):
        cols = slice(start, start + step)
        half[:, cols] = _fft_kept(acc[:, cols], 0, bands[0])
    return _symmetrize_half(half, d)


def _slab_values(f: FourierMap, head, const, grid: tuple, rows: slice) -> np.ndarray:
    """The real samples of ``f`` on ``rows``, from the synthesis ``head`` of its
    entries that are not ``const`` (:func:`_synthesis_head`): the tail
    transforms run for those entries only, and each constant entry is filled
    with the real part of its k = 0 value."""
    if const is None:
        return _synthesis_tail(head[rows], f.bands, grid)
    out = np.empty((rows.stop - rows.start,) + grid[1:] + f.shape)
    out[..., const] = f.half[_origin(f.bands)].real[const]
    if head is not None:
        out[..., ~const] = _synthesis_tail(head[rows], f.bands, grid)
    return out


def _slabs(grid: tuple, values: int) -> list:
    """The axis-0 row slices of the slabs of ``grid``: ceil(M_0 / step) of
    near-equal height, step the most rows that hold at most SLAB_POINTS points
    and SLAB_VALUES sample values at ``values`` per point (at least one row).
    At d = 1 the slab is the grid."""
    if len(grid) == 1:
        return [slice(0, grid[0])]
    points = min(SLAB_POINTS, SLAB_VALUES // max(1, values))
    step = max(1, points // int(np.prod(grid[1:])))
    return _split(grid[0], -(-grid[0] // step))


def slab_samples(grid: tuple, *maps: FourierMap, outputs: int = 0):
    """Yield ``(rows, samples)`` per axis-0 slab of ``grid`` (:func:`_slabs`):
    ``rows`` a slice and ``samples`` the real samples of each of ``maps`` on
    those rows, bit for bit ``irfftn`` of its k_d >= 0 half spectrum
    (``norm="forward"``) on the whole grid.  A slab's values per point are the
    maps' matrix entries plus ``outputs``, the values the caller computes from
    them.  Each map's constant entries are found once
    (:func:`_constant_entries`) and filled with their values; only the other
    entries are transformed.  Their axis-0 ``ifft`` runs once, in place on the
    kept data (:func:`_synthesis_head`), and each slab runs the rest
    (:func:`_synthesis_tail`)."""
    grid = tuple(grid)
    slabs = _slabs(grid, outputs + sum(int(np.prod(f.shape)) for f in maps))
    consts = [_constant_entries(f) for f in maps]
    if len(slabs) == 1:  # one slab: each head is released once it is synthesized
        rows = slabs[0]
        yield rows, [_slab_values(f, _synthesis_head(f, const, grid), const, grid, rows)
                     for f, const in zip(maps, consts)]
        return
    heads = [_synthesis_head(f, const, grid) for f, const in zip(maps, consts)]
    for rows in slabs:
        yield rows, [_slab_values(f, h, const, grid, rows)
                     for f, h, const in zip(maps, heads, consts)]


def slab_analysis(pointwise, grid: tuple, bands: tuple, *maps: FourierMap,
                  outputs: int = 0) -> list:
    """Half boxes on ``bands`` of the real sample arrays (a list) that
    ``pointwise(rows, samples)`` returns for each slab of :func:`slab_samples`
    of ``maps``, bit for bit the k_d >= 0 half of the symmetrized box of
    ``rfftn`` (``norm="forward"``) of the whole grid's samples.  ``outputs`` is
    the number of values per point that those arrays hold together (0 when
    they are views of samples held anyway).

    At most one slab of samples is held at a time: each slab runs ``pointwise``
    and every analysis transform but axis 0's (:func:`_analysis_head`) into one
    accumulator of kept bins per output; the axis-0 ``fft`` and the
    symmetrization (:func:`_analysis_tail`) run last.
    """
    d = len(bands)
    accs = []
    for rows, vals in slab_samples(grid, *maps, outputs=outputs):
        outs = pointwise(rows, vals)
        del vals
        for i in range(len(outs)):
            samples = np.asarray(outs[i], dtype=np.float64)
            outs[i] = None  # each sample array is released once it is analysed
            if rows.start == 0:  # all M_0 rows of axis 0, but at d = 1, where the rfft cuts it
                box = (grid[0],) + _half_box(bands)[1:] if d > 1 else _half_box(bands)
                accs.append(np.empty(box + samples.shape[d:], dtype=np.complex128))
            _analysis_head(samples, bands, accs[i][rows] if d > 1 else accs[i])
            del samples  # before the next output's transforms
    return [_analysis_tail(accs.pop(0), bands) for _ in range(len(accs))]


def matmul(a: FourierMap, b: FourierMap) -> FourierMap:
    """Pointwise matrix product of two real-analytic maps on one band N,
    dealiased, then truncated back to N.

    The product is synthesized on the work grid of :func:`dealias_grid`: per
    axis the smallest size with no prime factor above 5 that is at least
    3N + 1, on which the kept modes are alias-free (100 points at bands 32).
    Both operands must be real-analytic (f_{-k} = conj f_k): they are
    synthesized from their k_d >= 0 modes with real FFTs, multiplied as real
    sample arrays and analysed back with a real FFT, one axis-0 slab of the
    work grid at a time (:func:`slab_analysis`).  A zero operand gives
    zeros, and a constant operand (every mode off k = 0 exactly zero)
    multiplies the other operand's coefficients directly; both shortcuts skip
    the FFTs and use no work grid.  Operands on different bands raise
    FourierShapeError.
    """
    a._check_compatible(b)
    if a.shape[1] != b.shape[0]:
        raise FourierShapeError(f"matrix shapes {a.shape} x {b.shape} do not chain")
    if not (np.any(a.half) and np.any(b.half)):
        return FourierMap.zeros(a.bands, (a.shape[0], b.shape[1]))
    if _is_constant(a):
        return b.rmatmul_constant(a.average())
    if _is_constant(b):
        return a.matmul_constant(b.average())
    work = dealias_grid(a.bands, b.bands, a.bands)
    return FourierMap(slab_analysis(lambda rows, v: [v[0] @ v[1]], work, a.bands, a, b,
                                    outputs=a.shape[0] * b.shape[1])[0])


def assemble_blocks(blocks) -> FourierMap:
    """Build a map from a 2D nested list of equal-band FourierMap blocks."""
    rows = []
    ref = blocks[0][0]
    for row in blocks:
        for m in row:
            ref._check_compatible(m)
        rows.append(np.concatenate([m.half for m in row], axis=-1))
    return FourierMap(np.concatenate(rows, axis=-2))
