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

The build frees its temporaries early: b_j is divided in place into the
chart's derivative, and b_j, the phase and m_j = 2 Im(conj(b_j) w) are
dropped once u_j and a_j exist.  The check computes one identity at a
time.  Neither changes a floating-point operation or its order.

On the periodic box the connection keeps a harmonic part: the means of
``a_1`` and ``a_2`` cannot be removed by any periodic ``psi``.  They are
reported alongside the residuals and fed back into the trajectory oracle,
which would otherwise see a resolution-independent error floor.

The time-direction potential ``a_0`` solves

    lap a_0 = sign * (ALPHA_MIXED_COEF * sum_kj dk dj Re(u_k conj(u_j))
              + ALPHA_DIAG_COEF * lap(|u_1|^2 + |u_2|^2)),

normalized to zero mean.  It and the stream potential beta are assembled
once, as half spectra of the real transform pair (:func:`alpha_hat`,
:func:`beta_hat`); the MSM solver filters the same two spectra, so the
trajectory oracle checks the potentials the solver uses.  The independent
reference, the same right side through iterated Riesz transforms, lives in
the tests.

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
    "build_gauge_state",
    "verify_consistency",
    "beta_hat",
    "alpha_hat",
    "hasimoto_1d",
    "NLSFit",
    "fit_nls_coefficient",
    "soliton_nls_residual",
]


# -- potentials of the derivative-field system ------------------------------


def beta_hat(grid: Grid2D, u1: np.ndarray, u2: np.ndarray, sign: float) -> np.ndarray:
    """Half spectrum of the stream potential: lap beta = BETA_COEF * sign * Im(u1 conj(u2)).

    beta is real, so this is its ``grid.rfft`` spectrum; ``grid.irfft`` and
    ``grid.real_grad_from_hat`` read it.  The zero mode of the source is
    dropped, so beta has zero mean.  Stacks of fields are solved slice by
    slice, as by every :class:`Grid2D` operator.
    """
    src_hat = grid.rfft(np.imag(u1 * np.conj(u2)))
    return grid._times((BETA_COEF * sign) * grid.half_inverse_laplacian_symbol, src_hat)


def alpha_hat(grid: Grid2D, u1: np.ndarray, u2: np.ndarray, sign: float) -> np.ndarray:
    """Half spectrum of the zero-mean scalar potential of the time component.

    The potential is real, so this is its ``grid.rfft`` spectrum.  The mixed
    derivatives become the symbols -k_k k_j on the half spectra of
    Re(u_k conj(u_j)).  On the unpaired Nyquist lines k_x k_y is odd and
    would make the potential complex; ``grid.half_mixed_symbol`` drops it
    there, as the real part of d_x d_y does in physical space.
    """
    p1, p2 = grid.rfft(np.abs(u1) ** 2), grid.rfft(np.abs(u2) ** 2)
    cross_hat = grid.rfft(np.real(u1 * np.conj(u2)))
    kx2, ky2 = (k**2 for k in grid.half_wavenumbers)
    mixed = kx2 * p1 + 2.0 * grid.half_mixed_symbol * cross_hat + ky2 * p2
    rhs = -ALPHA_MIXED_COEF * mixed - ALPHA_DIAG_COEF * (kx2 + ky2) * (p1 + p2)
    return (sign * grid.half_inverse_laplacian_symbol) * rhs


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


def _chart_fields(w: np.ndarray, dw) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """b = d / (1 + |w|^2) and m = 2 Im(conj(b) w) for each derivative d of the chart w in dw.

    b is divided in place into the arrays of dw, which callers hand over
    and do not read again.
    """
    rho = 1.0 + np.abs(w) ** 2
    b = tuple(np.divide(d, rho, out=d) for d in dw)
    del rho
    return b, tuple(2.0 * np.imag(np.conj(bj) * w) for bj in b)


def build_gauge_state(mf: MapField) -> GaugeState:
    """The gauge state of a sphere map.

    The map is released once charted, so a map passed as a temporary is
    freed before the gauge fields are built.
    """
    grid, w = mf.grid, mf.stereo()
    del mf
    return _gauge_state(grid, w)


def _gauge_state(grid: Grid2D, w: np.ndarray) -> GaugeState:
    """The gauge state of the sphere map whose chart is w.

    By the potential's solve only the chart, u_j, a_j and psi are alive.
    """
    (b1, b2), (m1, m2) = _chart_fields(w, grid.gradient(w))
    div_m = grid.dx(m1)
    div_m += grid.dy(m2)
    psi = grid.inverse_laplacian(div_m)
    del div_m
    phase = np.exp(1j * psi)
    u1 = phase * b1
    del b1
    u2 = phase * b2
    del b2, phase
    a1 = m1 - grid.dx(psi)
    del m1
    a2 = m2 - grid.dy(psi)
    del m2
    sign = Target.SPHERE.sign
    a0 = grid.irfft(alpha_hat(grid, u1, u2, sign))
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


def _divergence_residual(g: Grid2D, gs: GaugeState) -> float:
    d1a1, d2a2 = g.dx(gs.a1), g.dy(gs.a2)
    return _relative(g.norm2(d1a1 + d2a2), max(g.norm2(d1a1), g.norm2(d2a2)))


def _torsion_residual(g: Grid2D, gs: GaugeState) -> float:
    d1u2, d2u1 = g.dx(gs.u2), g.dy(gs.u1)
    tor_scale = max(
        g.norm2(d1u2), g.norm2(d2u1), g.norm2(gs.a1 * gs.u2), g.norm2(gs.a2 * gs.u1),
    )
    tor = (d1u2 + 1j * gs.a1 * gs.u2) - (d2u1 + 1j * gs.a2 * gs.u1)
    return _relative(g.norm2(tor), tor_scale)


def _curvature_residual(g: Grid2D, gs: GaugeState) -> float:
    d1a2, d2a1 = g.dx(gs.a2), g.dy(gs.a1)
    source = CURVATURE_COEF * gs.sign * np.imag(np.conj(gs.u1) * gs.u2)
    curv_scale = max(g.norm2(d1a2), g.norm2(d2a1), g.norm2(source))
    return _relative(g.norm2(d1a2 - d2a1 - source), curv_scale)


def verify_consistency(gs: GaugeState) -> ConsistencyReport:
    """Residuals of the divergence, torsion and curvature identities, one at a time."""
    g = gs.grid
    return ConsistencyReport(
        div_a=_divergence_residual(g, gs),
        torsion=_torsion_residual(g, gs),
        curvature=_curvature_residual(g, gs),
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
    if mf.grid.dim != 1:
        raise ValueError("hasimoto_1d expects a map on a 1-D grid")
    w = mf.stereo()
    (b,), (m,) = _chart_fields(w, mf.grid.gradient(w))
    psi = mf.grid.antiderivative_zero_mean(m)
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

    num = den = b_sq = 0.0
    rows = []
    for k in range(1, len(snapshots) - 1):
        u = snapshots[k]
        a_term = 1j * (snapshots[k + 1] - snapshots[k - 1]) / (2 * dt) + grid.laplacian(u)
        b_term = np.abs(u) ** 2 * u
        c_term = u
        cc = inner(c_term, c_term)
        if cc == 0.0:
            raise ValueError(f"the gauge field of snapshot {k} vanishes, so its phase cannot be fitted")
        # Project the span of the phase direction out of both terms.
        pa = a_term - c_term * (inner(c_term, a_term) / cc)
        pb = b_term - c_term * (inner(c_term, b_term) / cc)
        num -= inner(pb, pa)
        den += inner(pb, pb)
        b_sq += inner(b_term, b_term)
        rows.append((a_term, b_term, c_term, cc))
    # With constant modulus |u|^2 u lies along the phase direction u, and
    # only rounding is left once that direction is projected out.
    if den <= 1e-12 * b_sq:
        raise ValueError("the cubic coefficient cannot be identified: every snapshot has "
                         "constant modulus, so |u|^2 u is parallel to the phase direction")
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
    if not eta > 0:
        raise ValueError(f"soliton eta must be positive, got {eta}")
    u = eta / np.cosh(eta * (grid.x - grid.length / 2))
    resid = -(eta**2) * u + grid.laplacian(u) + NLS_CUBIC_COEF * np.abs(u) ** 2 * u
    return grid.norm2(resid) / grid.norm2(u)


def hasimoto_trajectory(traj: MapTrajectory) -> list[np.ndarray]:
    """Gauge-transform every snapshot of a 1-D map trajectory."""
    return [hasimoto_1d(m) for m in traj.maps]
