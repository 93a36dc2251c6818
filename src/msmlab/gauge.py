"""Divergence-free gauge transform of sphere maps and its 1-D reduction.

Writing ``w`` for the stereographic chart value of a map and
``rho = 1 + |w|^2``, the raw derivative fields are ``b_j = d_j w / rho``.
The gauge phase ``psi`` solves

    lap psi = sum_j d_j (2 Im(conj(b_j) w)),        mean(psi) = 0,

which makes the connection coefficients

    a_j = 2 Im(conj(b_j) w) - d_j psi

divergence free.  The transformed fields are ``u_j = exp(i psi) b_j`` and
the covariant derivative is ``D_j = d_j + i a_j``.  Three identities hold
kinematically (for any smooth map, no evolution involved) and are exposed
as residuals by :func:`verify_consistency`:

* divergence:  d1 a1 + d2 a2 = 0,
* torsion:     D1 u2 - D2 u1 = 0,
* curvature:   d1 a2 - d2 a1 = CURVATURE_COEF * Im(conj(u1) u2).

On the periodic box the connection keeps a harmonic part: the means of
``a_1`` and ``a_2`` cannot be removed by any periodic ``psi``.  They are
reported alongside the residuals and fed back into the trajectory oracle,
which would otherwise see a resolution-independent error floor.

The time-direction potential ``a_0`` solves

    lap a_0 = sign * (ALPHA_MIXED_COEF * sum_kj dk dj Re(u_k conj(u_j))
              + ALPHA_DIAG_COEF * lap(|u_1|^2 + |u_2|^2)),

normalized to zero mean.  It and the stream potential beta are assembled
once, in Fourier space (:func:`alpha_hat`, :func:`beta_hat`); the MSM solver
filters the same two spectra, so the trajectory oracle checks the potentials
the solver uses.  The same right side through iterated Riesz transforms
(:func:`alpha_potential` with ``form="riesz"``) is the independent reference.

The 1-D reduction :func:`hasimoto_1d` maps a closed-curve map to a complex
field solving the focusing cubic NLS; see :mod:`msmlab.conventions` for
the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import (
    ALPHA_DIAG_COEF,
    ALPHA_MIXED_COEF,
    BETA_COEF,
    CURVATURE_COEF,
    NLS_CUBIC_COEF,
)
from .maps import MapField, MapTrajectory, Target
from .spectral import Grid1D, Grid2D

__all__ = [
    "GaugeState",
    "ConsistencyReport",
    "b_fields",
    "build_gauge_state",
    "verify_consistency",
    "beta_hat",
    "alpha_hat",
    "alpha_potential",
    "hasimoto_1d",
    "NLSFit",
    "fit_nls_coefficient",
    "soliton_nls_residual",
]


# -- potentials of the derivative-field system ------------------------------


def beta_hat(grid: Grid2D, u1: np.ndarray, u2: np.ndarray, sign: float) -> np.ndarray:
    """Spectrum of the stream potential: lap beta = BETA_COEF * sign * Im(u1 conj(u2)).

    The zero mode of the source is dropped, so beta has zero mean.  Stacks of
    fields are solved slice by slice, as by every :class:`Grid2D` operator.
    """
    src_hat = grid.fft(np.imag(u1 * np.conj(u2)))
    return grid._times((BETA_COEF * sign) * grid.inverse_laplacian_symbol, src_hat)


def alpha_hat(grid: Grid2D, u1: np.ndarray, u2: np.ndarray, sign: float) -> np.ndarray:
    """Spectrum of the zero-mean scalar potential of the time component.

    The mixed derivatives become the symbols -k_k k_j on the spectra of
    Re(u_k conj(u_j)).  On the unpaired Nyquist lines k_x k_y is odd, so the
    inverse transform is not real there; the potential is its real part, as
    for the real part of d_k d_j in physical space.
    """
    p1, p2 = grid.fft(np.abs(u1) ** 2), grid.fft(np.abs(u2) ** 2)
    cross_hat = grid.fft(np.real(u1 * np.conj(u2)))
    mixed = grid.kx**2 * p1 + 2.0 * grid.kx * grid.ky * cross_hat + grid.ky**2 * p2
    rhs = -ALPHA_MIXED_COEF * mixed - ALPHA_DIAG_COEF * grid.k2 * (p1 + p2)
    return (sign * grid.inverse_laplacian_symbol) * rhs


def alpha_potential(
    grid: Grid2D,
    u1: np.ndarray,
    u2: np.ndarray,
    sign: float,
    form: str = "poisson",
) -> np.ndarray:
    """Scalar potential of the time component, zero mean.

    ``form="poisson"`` inverts :func:`alpha_hat`, the assembly the solver
    uses; ``form="riesz"`` evaluates the same multiplier as iterated Riesz
    transforms plus a local term and is kept as the independent reference.
    """
    if form == "poisson":
        return grid.ifft(alpha_hat(grid, u1, u2, sign)).real
    if form == "riesz":
        us = (u1, u2)
        out = np.zeros(grid.shape)
        for k in range(2):
            for j in range(2):
                mixed = np.real(us[k] * np.conj(us[j]))
                out += ALPHA_MIXED_COEF * np.real(grid.riesz(k, grid.riesz(j, mixed)))
        dens = np.abs(u1) ** 2 + np.abs(u2) ** 2
        out += ALPHA_DIAG_COEF * (dens - np.mean(dens))
        return sign * (out - np.mean(out))
    raise ValueError(f"unknown form {form!r}")


# -- gauge construction -----------------------------------------------------


@dataclass(frozen=True)
class GaugeState:
    """Gauge-transformed derivative fields of a sphere map at one instant."""

    grid: Grid2D
    sign: float
    u1: np.ndarray
    u2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a0: np.ndarray
    psi: np.ndarray

    @property
    def harmonic_means(self) -> tuple[float, float]:
        """Constant (harmonic) part of the connection on the torus."""
        return float(np.mean(self.a1)), float(np.mean(self.a2))


def b_fields(mf: MapField) -> tuple[np.ndarray, np.ndarray]:
    """Raw derivative fields b_j = d_j w / (1 + |w|^2)."""
    w = mf.stereo()
    rho = 1.0 + np.abs(w) ** 2
    return mf.grid.dx(w) / rho, mf.grid.dy(w) / rho


def build_gauge_state(mf: MapField) -> GaugeState:
    if mf.target is not Target.SPHERE:
        raise ValueError("gauge transform is defined through the sphere chart")
    grid = mf.grid
    w = mf.stereo()
    b1, b2 = b_fields(mf)
    m1 = 2.0 * np.imag(np.conj(b1) * w)
    m2 = 2.0 * np.imag(np.conj(b2) * w)
    psi = grid.inverse_laplacian(grid.dx(m1) + grid.dy(m2), project_mean=True)
    phase = np.exp(1j * psi)
    u1, u2 = phase * b1, phase * b2
    a1, a2 = m1 - grid.dx(psi), m2 - grid.dy(psi)
    sign = mf.target.sign
    a0 = alpha_potential(grid, u1, u2, sign)
    return GaugeState(grid=grid, sign=sign, u1=u1, u2=u2, a1=a1, a2=a2, a0=a0, psi=psi)


# -- consistency residuals ---------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Normalized residuals of the three kinematic gauge identities."""

    div_a: float
    torsion: float
    curvature: float
    harmonic_means: tuple[float, float]

    def max_residual(self) -> float:
        return max(self.div_a, self.torsion, self.curvature)


def _relative(residual: float, scale: float) -> float:
    return 0.0 if scale == 0.0 else residual / scale


def verify_consistency(gs: GaugeState, curvature_coef: float | None = None) -> ConsistencyReport:
    """Residuals of the divergence, torsion and curvature identities.

    ``curvature_coef`` overrides the curvature constant, which lets tests
    demonstrate that the orientation actually matters (a flipped sign
    produces an order-one residual).
    """
    g = gs.grid
    coef = CURVATURE_COEF if curvature_coef is None else curvature_coef

    d1a1, d2a2 = g.dx(gs.a1), g.dy(gs.a2)
    div = d1a1 + d2a2
    r_div = _relative(g.norm2(div), max(g.norm2(d1a1), g.norm2(d2a2)))

    tor = (g.dx(gs.u2) + 1j * gs.a1 * gs.u2) - (g.dy(gs.u1) + 1j * gs.a2 * gs.u1)
    tor_scale = max(
        g.norm2(g.dx(gs.u2)), g.norm2(g.dy(gs.u1)),
        g.norm2(gs.a1 * gs.u2), g.norm2(gs.a2 * gs.u1),
    )
    r_tor = _relative(g.norm2(tor), tor_scale)

    d1a2, d2a1 = g.dx(gs.a2), g.dy(gs.a1)
    source = coef * gs.sign * np.imag(np.conj(gs.u1) * gs.u2)
    curv = d1a2 - d2a1 - source
    curv_scale = max(g.norm2(d1a2), g.norm2(d2a1), g.norm2(source))
    r_curv = _relative(g.norm2(curv), curv_scale)

    return ConsistencyReport(
        div_a=r_div, torsion=r_tor, curvature=r_curv,
        harmonic_means=gs.harmonic_means,
    )


# -- one-dimensional reduction ----------------------------------------------


def hasimoto_1d(mf: MapField) -> np.ndarray:
    """Gauge transform of a 1-D map: u = exp(i psi) w_x / (1 + |w|^2).

    On the circle the connection component a_1 reduces to the conserved
    constant mean(2 Im(conj(b) w)); the periodic part of the gauge phase
    removes the rest.  For chart-real initial data the constant vanishes
    and u solves the focusing cubic NLS up to a spatially constant,
    time-dependent phase drift (the zero mode of a_0).
    """
    if not isinstance(mf.grid, Grid1D):
        raise ValueError("hasimoto_1d expects a map on a 1-D grid")
    grid = mf.grid
    w = mf.stereo()
    rho = 1.0 + np.abs(w) ** 2
    b = grid.dx(w) / rho
    m = 2.0 * np.imag(np.conj(b) * w)
    psi = grid.antiderivative_zero_mean(m)
    return np.exp(1j * psi) * b


@dataclass(frozen=True)
class NLSFit:
    """Least-squares fit of i u_t + u_xx + c |u|^2 u + lambda(t) u = 0."""

    c: float
    residual: float
    lambdas: np.ndarray


def fit_nls_coefficient(snapshots: list[np.ndarray], dt: float, grid: Grid1D) -> NLSFit:
    """Fit the cubic coefficient across a trajectory of 1-D gauge fields.

    The per-snapshot real constant lambda(t) absorbs the zero mode of the
    time component of the connection, a pure phase drift on the circle.
    Time derivatives are centered differences, so the residual carries an
    O(dt^2) floor.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots for a centered fit")
    h = grid.spacing

    def inner(f, g_):
        return float(np.real(np.sum(np.conj(f) * g_)) * h)

    num = den = 0.0
    rows = []
    for k in range(1, len(snapshots) - 1):
        u = snapshots[k]
        a_term = 1j * (snapshots[k + 1] - snapshots[k - 1]) / (2 * dt) + grid.laplacian(u)
        b_term = np.abs(u) ** 2 * u
        c_term = u
        cc = inner(c_term, c_term)
        # Project the span of the phase direction out of both terms.
        pa = a_term - c_term * (inner(c_term, a_term) / cc)
        pb = b_term - c_term * (inner(c_term, b_term) / cc)
        num -= inner(pb, pa)
        den += inner(pb, pb)
        rows.append((a_term, b_term, c_term, cc))
    c = num / den

    res_sq = scale_sq = 0.0
    lambdas = []
    for a_term, b_term, c_term, cc in rows:
        lam = -inner(c_term, a_term + c * b_term) / cc
        resid = a_term + c * b_term + lam * c_term
        res_sq += grid.norm2(resid) ** 2
        scale_sq += grid.norm2(a_term) ** 2
        lambdas.append(lam)
    residual = float(np.sqrt(res_sq / max(scale_sq, 1e-300)))
    return NLSFit(c=float(c), residual=residual, lambdas=np.array(lambdas))


def soliton_nls_residual(grid: Grid1D, eta: float = 1.0) -> float:
    """Relative residual of the eta-soliton in the reference cubic NLS.

    u(x, t) = eta sech(eta (x - L/2)) exp(i eta^2 t) solves
    i u_t + u_xx + NLS_CUBIC_COEF |u|^2 u = 0 exactly; the time derivative
    is known in closed form, so the residual measures pure spatial
    discretization error.
    """
    u = eta / np.cosh(eta * (grid.x - grid.length / 2))
    resid = -(eta**2) * u + grid.laplacian(u) + NLS_CUBIC_COEF * np.abs(u) ** 2 * u
    return grid.norm2(resid) / grid.norm2(u)


def hasimoto_trajectory(traj: MapTrajectory) -> list[np.ndarray]:
    """Gauge-transform every snapshot of a 1-D map trajectory."""
    return [hasimoto_1d(m) for m in traj.maps]
