"""Fourier infrastructure on periodic grids in one and two dimensions.

:class:`PeriodicGrid` is one spectral layer for both dimensions: shape,
coordinates, wavenumbers, the Laplacian, the gradient, the norms and the
quadrature integral are written once, so callers never ask which grid class
they hold.  :class:`Grid1D` and :class:`Grid2D` fix ``dim`` and their numpy
transform pair; :class:`Grid2D` adds the zero-mean inverse Laplacian,
dealiasing and the half-spectrum symbols of real fields.  There are no Riesz
transforms and no dyadic (Littlewood-Paley) projections: the gauge
potentials are assembled from the inverse Laplacian alone.

Discrete norms approximate their continuum counterparts: ``norm2`` carries
the quadrature weight ``(L/n)^d`` so that Plancherel holds exactly between
``norm2`` and ``sobolev_norm(..., s=0)``.  A single Fourier mode
``A * exp(i k.x)`` has ``sobolev_norm = |A| * (1 + |k|^2)^(s/2) * L^(d/2)``.

Every operator transforms the leading ``dim`` axes and broadcasts over any
trailing axes, so an ``(n, n, nt)`` stack of fields is processed slice by
slice in one call.  Each operator is a Fourier multiplier applied through
one private helper.

Besides the complex pair ``fft``/``ifft`` each grid has a real pair
``rfft``/``irfft`` on the half spectrum (the last transformed axis keeps
``n // 2 + 1`` modes).  One rule serves every real field: it sees a
multiplier S through the half symbol ``(S(k) + conj(S(-k))) / 2``, the real
part of the complex path, cached once per operator.  For an even, real S
that is S; for an odd one (``i k_j``, ``k_x k_y``) it is S but on an unpaired
Nyquist line, where ``-k = k`` and the rule gives zero.  The helper picks
the pair from the input's dtype: complex fields take the complex pair with
S, real fields the real pair with the half symbol.  The real pair follows
the memory layout of its input, so a stack whose trailing index is the
slowest in memory is transformed one contiguous plane at a time.

The one exception is the Laplacian of a real field on a 2-D grid of at most
64 points per axis.  There it is the cached, read-only, symmetric n x n
matrix D2 of the real pair's second derivative along one axis, applied
along both: each trailing plane P gives ``D2 @ P + P @ D2``, two matrix
products.  D2 is built through the real pair, as half its Laplacian of the
identity matrix (which is ``D2 @ I + I @ D2``), symmetrized; so it is the
operator of the transforms, Nyquist mode included, and agrees with them to
rounding (below 1e-15 relative at n = 16, 32, 64).  A small transform is
mostly per-call overhead, so the products win there (one call on three
stacked n x n planes, 2 / 1 BLAS threads, on a 2-core x86 machine):

    n     real pair         dense D2
    32     73 /   66 us      16 /   24 us
    64    156 /  142 us      63 /   61 us
    128   476 /  800 us     401 /  694 us
    256  3624 / 3742 us    3535 / 4691 us

The cutoff is n^3 <= 2^18, the largest product OpenBLAS runs on one
thread; it keeps the multi-threaded products out, not a slower path: at
n = 128 the products still win in isolation, but the map-side benchmark
with the cutoff at 128 was not resolved faster (10 pairs, lower in 6).
Complex fields, 1-D grids and larger grids keep the transforms.

The 2-D ``fft``, ``ifft`` and ``rfft`` allocate one array each, their
result: they hand numpy an ``out`` array laid out like the input, numpy
writes the first 1-D pass into it and runs the second in place.  Left to
itself numpy allocates the result of each pass.  The inverse goes through
``ifftn`` because numpy's ``ifft2`` ignores ``out``.  ``irfft`` keeps
numpy's two allocations, since its ``out`` covers the last pass only.
The complex pair also takes ``out=``: passing the input itself runs both
passes in place, allocates nothing the size of a field and gives the bits
of the out-of-place call.  A caller does so only with an array it owns and
reads no more, as ``grad_from_hat`` does with the products it makes.

Grids are immutable; derived arrays, including the multipliers, are computed
once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = ["PeriodicGrid", "Grid1D", "Grid2D"]

# Largest n whose real 2-D Laplacian is two dense products: n^3 = 2^18 is
# the biggest product OpenBLAS keeps on one thread.
DENSE_LAPLACIAN_MAX_N = 64


def _validate_size(n: int) -> None:
    if n < 8 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n}")
    if n & (n - 1) != 0:
        raise ValueError(f"grid size must be a power of two, got {n}")


@dataclass(frozen=True)
class PeriodicGrid:
    """Periodic box [0, length)^dim sampled at n points per axis.

    A subclass sets ``dim`` and supplies the complex transform pair
    ``fft``/``ifft`` and the real pair ``rfft``/``irfft``.
    """

    dim: ClassVar[int]

    n: int
    length: float

    def __post_init__(self):
        _validate_size(self.n)
        if not self.length > 0:
            raise ValueError("length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis; the j-th varies along axis j."""
        ax = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*[ax] * self.dim, indexing="ij"))

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers in FFT storage order; the j-th varies along axis j only."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return tuple(np.meshgrid(*[k1] * self.dim, indexing="ij", sparse=True))

    @cached_property
    def k2(self) -> np.ndarray:
        return sum(k**2 for k in self.wavenumbers)

    def _half(self, symbol: np.ndarray) -> np.ndarray:
        """A grid-shaped symbol restricted to the half spectrum of the real pair."""
        return np.ascontiguousarray(symbol[..., : self.n // 2 + 1])

    # -- Fourier multipliers -----------------------------------------------

    def _times(self, symbol: np.ndarray, fh: np.ndarray) -> np.ndarray:
        """A grid-shaped multiplier times a spectrum, broadcast over trailing axes."""
        return symbol.reshape(symbol.shape + (1,) * (fh.ndim - self.dim)) * fh

    def _multiplier(self, symbol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S and the half symbol (S(k) + conj(S(-k))) / 2 that a real field sees."""
        mirror = np.roll(np.flip(symbol), 1, axis=tuple(range(self.dim)))
        return symbol, self._half((symbol + np.conj(mirror)) / 2)

    def _apply(self, multiplier: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
        """A multiplier from :meth:`_multiplier` applied to f through the pair of f's dtype."""
        symbol, half = multiplier
        if np.iscomplexobj(f):
            return self.ifft(self._times(symbol, self.fft(f)))
        return self.irfft(self._times(half, self.rfft(f)))

    @cached_property
    def _laplacian(self) -> tuple[np.ndarray, np.ndarray]:
        return self._multiplier(-self.k2)

    @cached_property
    def _derivatives(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(self._multiplier(1j * k) for k in self.wavenumbers)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self._apply(self._laplacian, f)

    def dx(self, f: np.ndarray) -> np.ndarray:
        return self._apply(self._derivatives[0], f)

    def gradient(self, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """The derivatives of f along each axis, in axis order."""
        return tuple(self._apply(d, f) for d in self._derivatives)

    # -- norms -------------------------------------------------------------

    def norm2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(f) ** 2)) * self.spacing ** (self.dim / 2))

    def sobolev_norm(self, f: np.ndarray, s: float) -> float:
        coeff = self.fft(f) / self.n**self.dim
        weight = (1.0 + self.k2) ** s
        return float(self.length ** (self.dim / 2) * np.sqrt(np.sum(weight * np.abs(coeff) ** 2)))

    def integral(self, f: np.ndarray):
        """Grid quadrature of f over the box (spectrally exact for smooth f)."""
        val = np.sum(f) * self.spacing**self.dim
        return float(val.real) if not np.iscomplexobj(f) else complex(val)


class Grid1D(PeriodicGrid):
    """Periodic interval [0, length) sampled at n points."""

    dim = 1

    @property
    def x(self) -> np.ndarray:
        return self.coords[0]

    @property
    def k(self) -> np.ndarray:
        return self.wavenumbers[0]

    def fft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.fft(f, axis=0)

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.ifft(fh, axis=0)

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f, axis=0)

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfft(fh, n=self.n, axis=0)

    @cached_property
    def _antiderivative(self) -> tuple[np.ndarray, np.ndarray]:
        return self._multiplier(
            np.divide(1.0, 1j * self.k, out=np.zeros(self.shape, complex), where=self.k != 0))

    def antiderivative_zero_mean(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of g' = f - mean(f)."""
        return self._apply(self._antiderivative, f)


class Grid2D(PeriodicGrid):
    """Periodic square [0, length)^2 sampled at n x n points."""

    dim = 2

    # -- coordinates and wavenumbers -------------------------------------

    @property
    def x(self) -> np.ndarray:
        """x coordinate, shape (n, n), varying along axis 0."""
        return self.coords[0]

    @property
    def y(self) -> np.ndarray:
        return self.coords[1]

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer frequencies in FFT storage order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @property
    def kx(self) -> np.ndarray:
        return self.wavenumbers[0]

    @property
    def ky(self) -> np.ndarray:
        return self.wavenumbers[1]

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule: keep integer frequencies with |m| <= n/3."""
        keep = np.abs(self.modes) <= self.n // 3
        return keep[:, None] & keep[None, :]

    @cached_property
    def inverse_laplacian_symbol(self) -> np.ndarray:
        """Multiplier -1/|k|^2 of the zero-mean inverse Laplacian (0 at k=0)."""
        return np.divide(-1.0, self.k2, out=np.zeros(self.shape), where=self.k2 > 0)

    @cached_property
    def _inverse_laplacian(self) -> tuple[np.ndarray, np.ndarray]:
        return self._multiplier(self.inverse_laplacian_symbol)

    # -- symbols on the half spectrum of real fields -----------------------

    @cached_property
    def half_wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """k_x as an (n, 1) column and k_y as a (1, n/2 + 1) row of the half spectrum."""
        return self._half(self.kx), self._half(self.ky)

    @cached_property
    def half_mixed_symbol(self) -> np.ndarray:
        """The half symbol of k_x k_y: zero on both Nyquist lines but their corner."""
        return self._multiplier(self.kx * self.ky)[1]

    @property
    def half_inverse_laplacian_symbol(self) -> np.ndarray:
        return self._inverse_laplacian[1]

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        return self._half(self.dealias_mask)

    # -- transforms and derivatives --------------------------------------

    def fft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(f, dtype=np.complex128)
        return np.fft.fft2(f, axes=(0, 1), out=out)

    def ifft(self, fh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(fh, dtype=np.complex128)
        # ifftn, not ifft2: numpy's ifft2 ignores out= and allocates twice.
        return np.fft.ifftn(fh, axes=(0, 1), out=out)

    def rfft(self, f: np.ndarray) -> np.ndarray:
        half = (self.n, self.n // 2 + 1) + f.shape[2:]
        return np.fft.rfft2(f, axes=(0, 1), out=np.empty_like(f, dtype=np.complex128, shape=half))

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(fh, s=self.shape, axes=(0, 1))

    @cached_property
    def _second_derivative(self) -> np.ndarray:
        """D2: the real pair's second derivative along one axis, a read-only symmetric matrix."""
        # The real pair's Laplacian of the identity is D2 @ I + I @ D2.
        d2 = self._apply(self._laplacian, np.eye(self.n))
        d2 = (d2 + d2.T) / 4
        d2.flags.writeable = False
        return d2

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """The Laplacian; a real field on a grid of n <= 64 takes D2 along both axes."""
        if np.iscomplexobj(f) or self.n > DENSE_LAPLACIAN_MAX_N:
            return self._apply(self._laplacian, f)
        # Each plane over the leading two axes is one matrix of the products.
        d2, axes = self._second_derivative, [(0, 1)] * 3
        out = np.matmul(d2, f, axes=axes)
        out += np.matmul(f, d2, axes=axes)
        return out

    def dy(self, f: np.ndarray) -> np.ndarray:
        return self._apply(self._derivatives[1], f)

    def inverse_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of ``laplacian g = f - mean(f)``, slice by slice."""
        return self._apply(self._inverse_laplacian, f)

    def grad_from_hat(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex gradient (d_x f, d_y f) of the field whose spectrum is fh."""
        products = (self._times(s, fh) for s, _ in self._derivatives)
        return tuple(self.ifft(p, out=p) for p in products)

    def real_grad_from_hat(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real gradient of the real field whose half spectrum is fh, one irfft per component."""
        return tuple(self.irfft(self._times(h, fh)) for _, h in self._derivatives)

