"""Independent spectral references shared by the tests.

The package builds every elliptic potential from one operator, the zero-mean
inverse Laplacian.  These helpers reach the same multipliers another way,
straight from numpy's transforms, so a test can check the package against
arithmetic it does not share.  They live here and nowhere in the package.
"""

import numpy as np

from msmlab.conventions import ALPHA_DIAG_COEF, ALPHA_MIXED_COEF


def riesz(grid, axis, f):
    """Riesz transform R_axis f with multiplier k_axis / |k| (0 at k=0).

    The multiplier is odd and real, so a single transform of a real field is
    purely imaginary; the result is therefore always complex.  Compositions
    of two transforms map real back to real.
    """
    kmag = np.sqrt(grid.k2)
    symbol = grid.wavenumbers[axis] / np.where(kmag > 0, kmag, 1.0)
    return np.fft.ifft2(symbol * np.fft.fft2(f))


def riesz_alpha(grid, u1, u2, sign):
    """Zero-mean time potential a_0 as iterated Riesz transforms plus a local term.

    d_k d_j lap^{-1} is -R_k R_j, so the mixed part of the source becomes
    sums of Riesz pairs on Re(u_k conj(u_j)), and lap lap^{-1} of the
    density is the density less its mean.
    """
    us = (u1, u2)
    out = np.zeros(grid.shape)
    for k in range(2):
        for j in range(2):
            mixed = np.real(us[k] * np.conj(us[j]))
            out += ALPHA_MIXED_COEF * np.real(riesz(grid, k, riesz(grid, j, mixed)))
    dens = np.abs(u1) ** 2 + np.abs(u2) ** 2
    out += ALPHA_DIAG_COEF * (dens - np.mean(dens))
    return sign * (out - np.mean(out))


def grad_inverse_laplacian(grid, f):
    """Complex gradient of the zero-mean inverse Laplacian of f.

    Transforms axes (0, 1) only, so an (n, n, nt) stack is solved slice by
    slice; the zero mode of each slice is discarded.
    """
    fh = np.fft.fft2(f, axes=(0, 1))
    trail = (1,) * (fh.ndim - 2)
    k2, kx, ky = (a.reshape(a.shape + trail) for a in (grid.k2, grid.kx, grid.ky))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(k2 > 0, -fh / k2, 0.0)
    return (np.fft.ifft2(1j * kx * inv, axes=(0, 1)),
            np.fft.ifft2(1j * ky * inv, axes=(0, 1)))
