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
``n // 2 + 1`` modes).  :meth:`PeriodicGrid.laplacian` sends real fields
through it: the symbol ``-|k|^2`` is real and even, so the result equals the
complex path up to rounding at half the transform work.  The real gauge
potentials live on the half spectrum too, and
:meth:`Grid2D.real_grad_from_hat` differentiates them.  An odd symbol is not
even on an unpaired Nyquist line (there ``-k = k``), so the real part of the
complex path drops it there: the half-spectrum symbols of ``i k_x`` and
``i k_y`` are zero on their Nyquist lines, and ``k_x k_y`` is zero on both
except at the ``(n/2, n/2)`` corner.  With that rule the real pair equals
the real part of the complex pair up to rounding.  Complex fields keep the
complex pair.  The real pair follows the memory layout of its input, so a
stack whose trailing index is the slowest in memory is transformed one
contiguous plane at a time.

Grids are immutable; derived arrays, including the multipliers, are computed
once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = ["PeriodicGrid", "Grid1D", "Grid2D"]


def _validate_size(n: int) -> None:
    if n < 8 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n}")
    if n & (n - 1) != 0:
        raise ValueError(f"grid size must be a power of two, got {n}")


def _real_like(template: np.ndarray, values: np.ndarray) -> np.ndarray:
    return values.real if not np.iscomplexobj(template) else values


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
        """Angular wavenumbers in FFT storage order, one array per axis."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return tuple(np.meshgrid(*[k1] * self.dim, indexing="ij"))

    @cached_property
    def k2(self) -> np.ndarray:
        return sum(k**2 for k in self.wavenumbers)

    def _half(self, symbol: np.ndarray) -> np.ndarray:
        """A grid-shaped symbol restricted to the half spectrum of the real pair."""
        return np.ascontiguousarray(symbol[..., : self.n // 2 + 1])

    @cached_property
    def _half_laplacian_symbol(self) -> np.ndarray:
        """-|k|^2 on the half spectrum of the real transform pair."""
        return self._half(-self.k2)

    # -- Fourier multipliers -----------------------------------------------

    def _times(self, symbol: np.ndarray, fh: np.ndarray) -> np.ndarray:
        """A grid-shaped multiplier times a spectrum, broadcast over trailing axes."""
        return symbol.reshape(symbol.shape + (1,) * (fh.ndim - self.dim)) * fh

    def _apply(self, symbol: np.ndarray, f: np.ndarray) -> np.ndarray:
        return _real_like(f, self.ifft(self._times(symbol, self.fft(f))))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(f):
            return self._apply(-self.k2, f)
        return self.irfft(self._times(self._half_laplacian_symbol, self.rfft(f)))

    def dx(self, f: np.ndarray) -> np.ndarray:
        return self._apply(1j * self.wavenumbers[0], f)

    def gradient(self, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """The derivatives of f along each axis, in axis order."""
        return tuple(self._apply(1j * k, f) for k in self.wavenumbers)

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

    def antiderivative_zero_mean(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of g' = f - mean(f)."""
        fh = self.fft(f)
        gh = np.zeros_like(fh)
        nz = self.k != 0
        gh[nz] = fh[nz] / (1j * self.k[nz])
        return _real_like(f, self.ifft(gh))


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
        out = np.zeros(self.shape)
        nz = self.k2 > 0
        out[nz] = 1.0 / -self.k2[nz]
        return out

    # -- symbols on the half spectrum of real fields -----------------------

    @cached_property
    def half_wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """k_x as an (n, 1) column and k_y as a (1, n/2 + 1) row of the half spectrum."""
        return self._half(self.kx[:, :1]), self._half(self.ky[:1])

    @cached_property
    def half_mixed_symbol(self) -> np.ndarray:
        """k_x k_y on the half spectrum, zero on both Nyquist lines but their corner."""
        h = self.n // 2
        kx, ky = self.half_wavenumbers
        out = kx * ky
        out[h, :h] = out[:h, h] = out[h + 1 :, h] = 0.0
        return out

    @cached_property
    def _half_gradient_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """i k_x and i k_y on the half spectrum, each zero on its Nyquist line."""
        ikx, iky = (1j * k for k in self.half_wavenumbers)
        ikx[self.n // 2] = iky[0, -1] = 0.0
        return ikx, iky

    @cached_property
    def half_inverse_laplacian_symbol(self) -> np.ndarray:
        return self._half(self.inverse_laplacian_symbol)

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        return self._half(self.dealias_mask)

    # -- transforms and derivatives --------------------------------------

    def fft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.fft2(f, axes=(0, 1))

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(fh, axes=(0, 1))

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(f, axes=(0, 1))

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(fh, s=self.shape, axes=(0, 1))

    def dy(self, f: np.ndarray) -> np.ndarray:
        return self._apply(1j * self.ky, f)

    def inverse_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of ``laplacian g = f - mean(f)``, slice by slice."""
        return self._apply(self.inverse_laplacian_symbol, f)

    def grad_from_hat(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex gradient (d_x f, d_y f) of the field whose spectrum is fh."""
        return tuple(self.ifft(self._times(1j * k, fh)) for k in self.wavenumbers)

    def real_grad_from_hat(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real gradient (d_x f, d_y f) of the real field whose half spectrum is fh.

        Each component goes through its own inverse real transform.
        """
        return tuple(self.irfft(self._times(s, fh)) for s in self._half_gradient_symbols)

