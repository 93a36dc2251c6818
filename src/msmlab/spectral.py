"""Fourier infrastructure on square periodic grids.

A :class:`Grid2D` owns the wavenumber arrays, dealias mask and
Littlewood-Paley windows for an ``n x n`` grid on ``[0, L)^2`` and exposes the
spectral operations used everywhere else: derivatives, the zero-mean inverse
Laplacian, Riesz transforms, dyadic frequency projections and Sobolev norms.

Discrete norms approximate their continuum counterparts: ``norm2`` carries
the quadrature weight ``(L/n)^d`` so that Plancherel holds exactly between
``norm2`` and ``sobolev_norm(..., s=0)``.  A single Fourier mode
``A * exp(i k.x)`` has ``sobolev_norm = |A| * (1 + |k|^2)^(s/2) * L^(d/2)``.

Every :class:`Grid2D` operator transforms axes (0, 1) and broadcasts over
any trailing axes, so an ``(n, n, nt)`` stack of fields is processed slice
by slice in one call.  Each operator is a Fourier multiplier applied through
one private helper.

Grids are immutable; derived arrays, including the multipliers, are computed
once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonzeroMeanError
from .windows import PLATEAU_EDGE, lp_annulus_window, lp_low_window

__all__ = ["Grid1D", "Grid2D", "MEAN_TOL_FACTOR"]

# An inverse Laplacian is refused (rather than silently projected) when the
# data mean exceeds this factor times the L2 norm of the data.
MEAN_TOL_FACTOR = 1e-10


def _validate_size(n: int) -> None:
    if n < 8 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n}")
    if n & (n - 1) != 0:
        raise ValueError(f"grid size must be a power of two, got {n}")


def _real_like(template: np.ndarray, values: np.ndarray) -> np.ndarray:
    return values.real if not np.iscomplexobj(template) else values


@dataclass(frozen=True)
class Grid1D:
    """Periodic interval [0, length) sampled at n points."""

    n: int
    length: float

    def __post_init__(self):
        _validate_size(self.n)
        if not self.length > 0:
            raise ValueError("length must be positive")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def fft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.fft(f)

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.ifft(fh)

    def dx(self, f: np.ndarray) -> np.ndarray:
        out = np.fft.ifft(1j * self.k * np.fft.fft(f))
        return _real_like(f, out)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        out = np.fft.ifft(-(self.k**2) * np.fft.fft(f))
        return _real_like(f, out)

    def antiderivative_zero_mean(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of g' = f - mean(f)."""
        fh = np.fft.fft(f)
        gh = np.zeros_like(fh)
        nz = self.k != 0
        gh[nz] = fh[nz] / (1j * self.k[nz])
        return _real_like(f, np.fft.ifft(gh))

    def norm2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(f) ** 2) * self.spacing))

    def sobolev_norm(self, f: np.ndarray, s: float) -> float:
        coeff = np.fft.fft(f) / self.n
        weight = (1.0 + self.k**2) ** s
        return float(np.sqrt(self.length * np.sum(weight * np.abs(coeff) ** 2)))


@dataclass(frozen=True)
class Grid2D:
    """Periodic square [0, length)^2 sampled at n x n points."""

    n: int
    length: float

    def __post_init__(self):
        _validate_size(self.n)
        if not self.length > 0:
            raise ValueError("length must be positive")

    # -- coordinates and wavenumbers -------------------------------------

    @cached_property
    def x(self) -> np.ndarray:
        """x coordinate, shape (n, n), varying along axis 0."""
        ax = np.arange(self.n) * (self.length / self.n)
        return np.broadcast_to(ax[:, None], (self.n, self.n)).copy()

    @cached_property
    def y(self) -> np.ndarray:
        ax = np.arange(self.n) * (self.length / self.n)
        return np.broadcast_to(ax[None, :], (self.n, self.n)).copy()

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer frequencies in FFT storage order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @cached_property
    def kx(self) -> np.ndarray:
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)
        return np.broadcast_to(k1[:, None], (self.n, self.n)).copy()

    @cached_property
    def ky(self) -> np.ndarray:
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)
        return np.broadcast_to(k1[None, :], (self.n, self.n)).copy()

    @cached_property
    def k2(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

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

    @cached_property
    def riesz_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """Real odd multipliers k_j / |k| of the two Riesz transforms (0 at k=0)."""
        kmag = np.where(self.kmag > 0, self.kmag, 1.0)
        return self.kx / kmag, self.ky / kmag

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    # -- transforms and derivatives --------------------------------------

    def fft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.fft2(f, axes=(0, 1))

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(fh, axes=(0, 1))

    def _times(self, symbol: np.ndarray, fh: np.ndarray) -> np.ndarray:
        """An (n, n) multiplier times a spectrum, broadcast over trailing axes."""
        return symbol.reshape(symbol.shape + (1,) * (fh.ndim - 2)) * fh

    def _apply(self, symbol: np.ndarray, f: np.ndarray) -> np.ndarray:
        return _real_like(f, self.ifft(self._times(symbol, self.fft(f))))

    def dx(self, f: np.ndarray) -> np.ndarray:
        return self._apply(1j * self.kx, f)

    def dy(self, f: np.ndarray) -> np.ndarray:
        return self._apply(1j * self.ky, f)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self._apply(-self.k2, f)

    def inverse_laplacian(self, f: np.ndarray, project_mean: bool = True) -> np.ndarray:
        """Zero-mean solution of ``laplacian g = f``, slice by slice.

        With ``project_mean`` the zero mode of ``f`` is discarded; otherwise a
        slice mean exceeding ``MEAN_TOL_FACTOR * norm2(f)`` raises
        :class:`NonzeroMeanError`.
        """
        if not project_mean:
            m = np.max(np.abs(np.mean(f, axis=(0, 1))))
            if m > MEAN_TOL_FACTOR * max(self.norm2(f), 1e-300):
                raise NonzeroMeanError(
                    f"inverse Laplacian of data with mean {m:.3e} "
                    f"(tolerance {MEAN_TOL_FACTOR:.1e} * ||f||)"
                )
        return self._apply(self.inverse_laplacian_symbol, f)

    def grad_from_hat(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex gradient (d_x f, d_y f) of the field whose spectrum is fh."""
        return (self.ifft(self._times(1j * self.kx, fh)),
                self.ifft(self._times(1j * self.ky, fh)))

    def grad_inverse_laplacian(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the zero-mean inverse Laplacian of f (mean discarded)."""
        gx, gy = self.grad_from_hat(self._times(self.inverse_laplacian_symbol, self.fft(f)))
        return _real_like(f, gx), _real_like(f, gy)

    def riesz(self, axis: int, f: np.ndarray) -> np.ndarray:
        """Riesz transform R_axis f with multiplier k_axis / |k| (0 at k=0).

        The multiplier is odd and real, so a single transform of a real
        field is purely imaginary; the result is therefore always returned
        complex.  Compositions of two transforms map real back to real.
        """
        return self.ifft(self._times(self.riesz_symbols[axis], self.fft(f)))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        return self._apply(self.dealias_mask, f)

    # -- Littlewood-Paley decomposition -----------------------------------

    @cached_property
    def lp_levels(self) -> tuple[int, ...]:
        """Dyadic levels (0 marks the low block) covering the whole grid."""
        kmax = float(np.max(self.kmag))
        top = 1
        while top < kmax:
            top *= 2
        levels = [0]
        level = 1
        while level <= top:
            levels.append(level)
            level *= 2
        return tuple(levels)

    def lp_window(self, level: int) -> np.ndarray:
        """Frequency-space window of one dyadic block, evaluated on the grid."""
        if level == 0:
            return lp_low_window(self.kmag)
        if level < 1 or level & (level - 1) != 0:
            raise ValueError(f"level must be 0 or a power of two, got {level}")
        return lp_annulus_window(self.kmag, float(level))

    def lp_project(self, f: np.ndarray, level: int) -> np.ndarray:
        return self._apply(self.lp_window(level), f)

    # -- norms -------------------------------------------------------------

    def norm2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(f) ** 2)) * self.spacing)

    def sobolev_norm(self, f: np.ndarray, s: float) -> float:
        coeff = self.fft(f) / self.n**2
        weight = (1.0 + self.k2) ** s
        return float(self.length * np.sqrt(np.sum(weight * np.abs(coeff) ** 2)))

    def integral(self, f: np.ndarray):
        """Grid quadrature of f over the box (spectrally exact for smooth f)."""
        val = np.sum(f) * self.spacing**2
        return float(val.real) if not np.iscomplexobj(f) else complex(val)
