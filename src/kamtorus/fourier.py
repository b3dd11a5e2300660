"""Truncated Fourier series on the d-torus with analytic-strip norm bounds.

A ``FourierMap`` represents a real-analytic periodic map T^d -> C^{n1 x n2}
through the coefficients f_k of

    f(theta) = sum_k  f_k  exp(2*pi*i k.theta),       k in Z^d, |k_i| <= N_i,

stored on a dense rectangular index box: a map is its coefficients and its
bands, and a sample grid (M_i >= 2*N_i + 1 points per axis) is chosen only
where sampling happens.  Differentiation and averaging act coefficient-wise
and are exact on the truncation; products are computed on a dealiased grid
and truncated back to the requested output band N_out, so the library always
manipulates the *truncated model* of each object.  Per axis a product's grid
is the smallest size with no prime factor above 5 that is at least
N_a + N_b + N_out + 1: only the kept modes need to be alias-free (the 3/2
rule), so the full product band N_out = N_a + N_b needs 2(N_a + N_b) + 1
points and N_out = N_a = N_b needs 3N + 1.  Products synthesize their
real-analytic operands with real FFTs, and real grid samples are analysed with
real FFTs.  These real transforms are pruned to the kept box: they run
numpy's 1-D transforms in the axis order of ``rfftn``/``irfftn`` but only on
the lines that hold kept modes, so each kept value is bit for bit what
``rfftn``/``irfftn`` give.

Norms: the sup of |f| on the complex strip |Im theta| < rho is bounded
entry-wise by the Fourier majorant

    sum_k |f_k| exp(2*pi*|k|_1*rho),

and matrix entries are combined by the maximum row sum (maximum column sum
for the transposed norm).  The majorant dominates the true strip sup of the
truncated series, which is the direction the certification layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class FourierShapeError(ValueError):
    """Band/grid/matrix shapes of the operands do not match."""


class StripOverflowError(OverflowError):
    """Majorant weights overflow double precision: rho too large for this band."""


@lru_cache(maxsize=128)
def _index_box(bands: tuple) -> tuple:
    """Per-axis integer mode vectors -N_i .. N_i."""
    return tuple(np.arange(-n, n + 1) for n in bands)


@lru_cache(maxsize=128)
def _k1_box(bands: tuple) -> np.ndarray:
    """|k|_1 over the index box, shape (2N_1+1, ..., 2N_d+1)."""
    axes = _index_box(bands)
    total = np.zeros(tuple(2 * n + 1 for n in bands))
    for i, ax in enumerate(axes):
        shape = [1] * len(bands)
        shape[i] = ax.size
        total = total + np.abs(ax).reshape(shape)
    return total


def _kept_rows(n: int, m: int) -> np.ndarray:
    """FFT bins k mod m of the modes k = -n .. n, in box order."""
    return np.arange(-n, n + 1) % m


def _embed_slices(bands: tuple, grid: tuple):
    """Advanced-index arrays mapping box position k+N to FFT bin k mod M."""
    return np.ix_(*(_kept_rows(n, m) for n, m in zip(bands, grid)))


@dataclass(frozen=True)
class FourierMap:
    """Matrix-valued truncated Fourier series on T^d.

    coeffs: complex array of shape (2N_1+1, ..., 2N_d+1, n1, n2); the
    coefficient of mode k sits at position (k_1+N_1, ..., k_d+N_d).
    """

    coeffs: np.ndarray
    bands: tuple

    def __post_init__(self):
        bands = tuple(int(n) for n in self.bands)
        object.__setattr__(self, "bands", bands)
        expect = tuple(2 * n + 1 for n in bands)
        if self.coeffs.ndim != len(bands) + 2:
            raise FourierShapeError(
                f"coeffs must have {len(bands)} torus axes plus 2 matrix axes, "
                f"got shape {self.coeffs.shape}"
            )
        if self.coeffs.shape[: len(bands)] != expect:
            raise FourierShapeError(
                f"coefficient box {self.coeffs.shape[:len(bands)]} does not match bands {bands}"
            )
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))

    # -- basic properties ---------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.bands)

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[-2:]

    @property
    def T(self) -> "FourierMap":
        return FourierMap(np.swapaxes(self.coeffs, -1, -2), self.bands)

    def block(self, rows: slice, cols: slice) -> "FourierMap":
        return FourierMap(self.coeffs[..., rows, cols], self.bands)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, bands, shape) -> "FourierMap":
        bands = tuple(bands)
        box = tuple(2 * n + 1 for n in bands)
        return cls(np.zeros(box + tuple(shape), dtype=np.complex128), bands)

    @classmethod
    def constant(cls, matrix, bands) -> "FourierMap":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
        out = cls.zeros(bands, matrix.shape)
        out.coeffs[tuple(n for n in out.bands)] = matrix
        return out

    @classmethod
    def from_samples(cls, samples: np.ndarray, bands) -> "FourierMap":
        """FFT analysis of uniform-grid samples, band-truncated and symmetrized.

        ``samples`` has shape (M_1, ..., M_d, n1, n2): the grid is the sample
        array's own shape, and M_i >= 2*N_i + 1 is required.  Inverse of
        :meth:`eval_grid` on band-limited input.  Real samples are analysed
        with a real FFT, complex ones with a complex FFT.
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
            return cls(_real_analysis(samples, bands), bands)
        hat = np.fft.fftn(samples, axes=tuple(range(d))) / float(np.prod(grid))
        coeffs = hat[_embed_slices(bands, grid)]
        return cls(_symmetrize(coeffs), bands)

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
        shape = [1] * self.coeffs.ndim
        shape[axis] = k.size
        return FourierMap(self.coeffs * (TWO_PI * 1j * k.reshape(shape)), self.bands)

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
        avg = self.coeffs[tuple(n for n in self.bands)]
        return np.array(avg)

    # -- norms ----------------------------------------------------------------

    def norm(self, rho: float, transpose: bool = False) -> "StripNorm":
        """Fourier-majorant bound for the strip sup-norm at half-width rho.

        Entry-wise sum_k |f_k| e^{2 pi |k|_1 rho}; entries combined by max row
        sum (max column sum when ``transpose``).
        """
        if rho < 0:
            raise ValueError("rho must be >= 0")
        k1 = _k1_box(self.bands)
        arg = TWO_PI * rho * k1
        if arg.size and float(np.max(arg)) > 700.0:
            raise StripOverflowError(
                f"e^(2 pi |k|_1 rho) overflows at rho={rho} for bands {self.bands}"
            )
        weights = np.exp(arg)
        entry = np.tensordot(weights, np.abs(self.coeffs), axes=(tuple(range(self.d)),) * 2)
        value = float(np.max(entry.sum(axis=0 if transpose else 1), initial=0.0))
        return StripNorm(rho=float(rho), value=value)

    def real_symmetry_defect(self) -> float:
        """Max deviation from f_{-k} = conj(f_k)."""
        flipped = np.conj(self.coeffs[tuple(slice(None, None, -1) for _ in self.bands)])
        return float(np.max(np.abs(self.coeffs - flipped))) if self.coeffs.size else 0.0

    # -- band management -------------------------------------------------------

    def truncate(self, bands) -> "FourierMap":
        """Restrict to a smaller index box (tails are discarded)."""
        bands = tuple(int(n) for n in bands)
        if any(nb > n for nb, n in zip(bands, self.bands)):
            raise FourierShapeError(f"cannot truncate {self.bands} to larger bands {bands}")
        sl = tuple(slice(n - nb, n + nb + 1) for n, nb in zip(self.bands, bands))
        return FourierMap(self.coeffs[sl].copy(), bands)

    def pad_bands(self, bands) -> "FourierMap":
        """Embed into a larger index box (new modes are zero)."""
        bands = tuple(int(n) for n in bands)
        if any(nb < n for nb, n in zip(bands, self.bands)):
            raise FourierShapeError(f"cannot pad {self.bands} into smaller bands {bands}")
        out = FourierMap.zeros(bands, self.shape)
        sl = tuple(slice(nb - n, nb + n + 1) for n, nb in zip(self.bands, bands))
        out.coeffs[sl] = self.coeffs
        return out

    # -- algebra ----------------------------------------------------------------

    def _check_compatible(self, other: "FourierMap"):
        if self.bands != other.bands:
            raise FourierShapeError(f"operands have bands {self.bands} vs {other.bands}")

    def __add__(self, other: "FourierMap") -> "FourierMap":
        self._check_compatible(other)
        return FourierMap(self.coeffs + other.coeffs, self.bands)

    def __sub__(self, other: "FourierMap") -> "FourierMap":
        self._check_compatible(other)
        return FourierMap(self.coeffs - other.coeffs, self.bands)

    def __neg__(self) -> "FourierMap":
        return FourierMap(-self.coeffs, self.bands)

    def __mul__(self, scalar) -> "FourierMap":
        return FourierMap(self.coeffs * scalar, self.bands)

    __rmul__ = __mul__

    def add_constant(self, matrix) -> "FourierMap":
        out = FourierMap(self.coeffs.copy(), self.bands)
        out.coeffs[tuple(n for n in self.bands)] += np.asarray(matrix, dtype=np.complex128)
        return out

    def matmul_constant(self, matrix) -> "FourierMap":
        """Right-multiply by a constant matrix (exact in coefficients).

        One GEMM over the flattened modes equals the per-mode ``@`` bit for bit,
        except for 1-row maps and 1-column products of transposed views.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        c = self.coeffs
        if c.shape[-2] < 2 or (matrix.shape[-1] < 2 and c.strides[-1] != c.itemsize):
            return FourierMap(c @ matrix, self.bands)
        flat = c.reshape(-1, c.shape[-1]) @ matrix
        return FourierMap(flat.reshape(c.shape[:-1] + matrix.shape[1:]), self.bands)

    def rmatmul_constant(self, matrix) -> "FourierMap":
        """Left-multiply by a constant matrix (exact in coefficients).

        A real matrix scales the float64 view row by row, in column order, which
        equals the complex ``einsum`` bit for bit on finite coefficients.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[1] != self.shape[0]:
            raise FourierShapeError(f"matrix {matrix.shape} does not chain with {self.shape}")
        if np.any(matrix.imag):
            return FourierMap(np.einsum("ij,...jk->...ik", matrix, self.coeffs), self.bands)
        x = np.ascontiguousarray(self.coeffs).view(np.float64)
        out = np.zeros(x.shape[:-2] + (matrix.shape[0], x.shape[-1]))
        term = np.empty(x.shape[:-2] + x.shape[-1:])
        for i, row in enumerate(matrix.real):
            for j in np.flatnonzero(row):
                out[..., i, :] += np.multiply(x[..., j, :], row[j], out=term)
        return FourierMap(out.view(np.complex128), self.bands)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"dims": [d, n1, n2], "bands": [...], "coeffs": [re, im, ...]}.

        Coefficients are flattened in row-major order over (k_1+N_1, ...,
        k_d+N_d, row, col), each complex number as a (re, im) pair.
        """
        flat = self.coeffs.reshape(-1)
        pairs = np.empty(2 * flat.size, dtype=np.float64)
        pairs[0::2] = flat.real
        pairs[1::2] = flat.imag
        return {
            "dims": [self.d, self.shape[0], self.shape[1]],
            "bands": list(self.bands),
            "coeffs": pairs.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FourierMap":
        d, n1, n2 = (int(v) for v in doc["dims"])
        bands = tuple(int(n) for n in doc["bands"])
        if len(bands) != d:
            raise FourierShapeError("dims and bands disagree on d")
        box = tuple(2 * n + 1 for n in bands)
        pairs = np.asarray(doc["coeffs"], dtype=np.float64)
        flat = pairs[0::2] + 1j * pairs[1::2]
        return cls(flat.reshape(box + (n1, n2)), bands)


@dataclass(frozen=True)
class StripNorm:
    """A nonnegative bound valid on the strip of half-width rho."""

    rho: float
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be >= 0")


@lru_cache(maxsize=256)
def _k_dot_omega(bands: tuple, omega: tuple) -> np.ndarray:
    """k . omega over the index box."""
    axes = _index_box(bands)
    total = np.zeros(tuple(2 * n + 1 for n in bands))
    for i, ax in enumerate(axes):
        shape = [1] * len(bands)
        shape[i] = ax.size
        total = total + omega[i] * ax.reshape(shape)
    return total


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto real-analytic symmetry f_{-k} = conj(f_k)."""
    d = coeffs.ndim - 2
    out = np.conj(coeffs[tuple(slice(None, None, -1) for _ in range(d))])
    out += coeffs
    out *= 0.5
    return out


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
    flat = f.coeffs.reshape(-1, *f.shape)
    center = flat.shape[0] // 2  # k = 0 is the middle of the odd-sized index box
    return not (np.any(flat[:center]) or np.any(flat[center + 1:]))


def _real_samples(f: FourierMap, grid: tuple) -> np.ndarray:
    """Real samples of a real-analytic map on ``grid``, equal bit for bit to
    ``irfftn`` of its k_d >= 0 half spectrum (``norm="forward"``).

    Only the modes with k_d >= 0 are read; the others are implied by
    f_{-k} = conj(f_k).  The 1-D transforms run in ``irfftn``'s order, but only
    on lines that hold kept modes: axes 0 .. d-2 embed the kept rows and
    ``ifft`` them, then ``irfft`` zero-pads the N_d + 1 kept bins to M_d.
    """
    if any(m < 2 * n + 1 for n, m in zip(f.bands, grid)):
        raise FourierShapeError(f"evaluation grid {grid} too small for bands {f.bands}")
    data = f.coeffs[..., f.bands[-1]:, :, :]
    for axis in range(f.d - 1):
        full = np.zeros(data.shape[:axis] + (grid[axis],) + data.shape[axis + 1:],
                        dtype=np.complex128)
        full[(slice(None),) * axis + (_kept_rows(f.bands[axis], grid[axis]),)] = data
        data = np.fft.ifft(full, axis=axis, norm="forward")
    return np.fft.irfft(data, n=grid[-1], axis=f.d - 1, norm="forward")


def _real_analysis(samples: np.ndarray, bands: tuple) -> np.ndarray:
    """Symmetrized coefficients on the box ``bands`` of real grid samples, from
    a spectrum equal bit for bit to ``rfftn`` (``norm="forward"``) on that box.

    The 1-D transforms run in ``rfftn``'s order, but each keeps only the kept
    modes: ``rfft`` on the last axis is cut to its N_d + 1 kept bins, then
    ``fft`` on axes d-2 .. 0 is cut to the 2N_i + 1 kept rows.  The k_d < 0
    modes are filled from the k_d > 0 ones by conjugate symmetry.
    """
    d = len(bands)
    upper = np.fft.rfft(samples, axis=d - 1, norm="forward")[..., :bands[-1] + 1, :, :]
    for axis in range(d - 2, -1, -1):
        upper = np.fft.fft(upper, axis=axis, norm="forward")
        upper = upper.take(_kept_rows(bands[axis], samples.shape[axis]), axis=axis)
    lower = np.conj(upper[tuple(slice(None, None, -1) for _ in range(d - 1))])
    return _symmetrize(np.concatenate([lower[..., :0:-1, :, :], upper], axis=d - 1))


def _scaled_fit(f: FourierMap, out_bands: tuple, scale) -> FourierMap:
    """``scale`` applied to the modes of ``f`` inside ``out_bands`` (a view, no
    copy), then zero-padded to ``out_bands``: a mode-wise product commutes
    with truncation and padding."""
    keep = tuple(map(min, f.bands, out_bands))
    box = tuple(slice(n - k, n + k + 1) for n, k in zip(f.bands, keep))
    out = scale(FourierMap(f.coeffs[box], keep))
    return out if keep == out_bands else out.pad_bands(out_bands)


def matmul(a: FourierMap, b: FourierMap, out_bands=None, work_grid=None) -> FourierMap:
    """Pointwise matrix product of two real-analytic maps, dealiased then truncated.

    ``out_bands`` defaults to the exact product band N_a + N_b.  The product
    is synthesized on ``work_grid``, by default :func:`dealias_grid`: per axis
    the smallest size with no prime factor above 5 that is at least
    N_a + N_b + N_out + 1, on which the retained modes are alias-free (100
    points for bands 32 kept at 32, against 135 for the full product band).
    Both operands must be real-analytic (f_{-k} = conj f_k): they are
    synthesized from their k_d >= 0 modes with real FFTs, multiplied as real
    sample arrays and analysed back with a real FFT.  A zero operand gives
    zeros, and a constant operand (every mode off k = 0 exactly zero)
    multiplies the other operand's coefficients directly; both shortcuts skip
    the FFTs and return the bands and shape of the transform path.
    """
    if a.bands != b.bands and len(a.bands) != len(b.bands):
        raise FourierShapeError("operands live on different tori")
    if a.shape[1] != b.shape[0]:
        raise FourierShapeError(f"matrix shapes {a.shape} x {b.shape} do not chain")
    if out_bands is None:
        out_bands = tuple(na + nb for na, nb in zip(a.bands, b.bands))
    out_bands = tuple(int(n) for n in out_bands)
    work = dealias_grid(a.bands, b.bands, out_bands) if work_grid is None else tuple(work_grid)
    if any(m < 2 * n + 1 for n, m in zip(out_bands, work)):
        raise FourierShapeError("work grid too small for requested output bands")
    if not (np.any(a.coeffs) and np.any(b.coeffs)):
        return FourierMap.zeros(out_bands, (a.shape[0], b.shape[1]))
    # a constant factor scales the other one's kept modes, zero-padded to out_bands
    if _is_constant(a):
        return _scaled_fit(b, out_bands, lambda f: f.rmatmul_constant(a.average()))
    if _is_constant(b):
        return _scaled_fit(a, out_bands, lambda f: f.matmul_constant(b.average()))
    prod = _real_samples(a, work) @ _real_samples(b, work)
    return FourierMap(_real_analysis(prod, out_bands), out_bands)


def assemble_blocks(blocks) -> FourierMap:
    """Build a map from a 2D nested list of equal-band FourierMap blocks."""
    rows = []
    ref = blocks[0][0]
    for row in blocks:
        for m in row:
            ref._check_compatible(m)
        rows.append(np.concatenate([m.coeffs for m in row], axis=-1))
    return FourierMap(np.concatenate(rows, axis=-2), ref.bands)
