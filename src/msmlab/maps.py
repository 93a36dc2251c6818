"""Maps into the sphere or hyperbolic plane and their Schrodinger flow.

A map is stored through its embedded components ``s3`` with trailing
dimension 3.  For the sphere these satisfy ``|s3| = 1`` pointwise; for the
hyperbolic target they satisfy the Minkowski normalization
``x1^2 + x2^2 - x3^2 = -1`` with ``x3 >= 1`` (hyperboloid model, metric
``diag(+1, +1, -1)``).

The flow integrated here is

    ds/dt = LL_SIGN * (s x lap s)

with the target's cross product (Euclidean, or the Minkowski one
``diag(1,1,-1) @ (a x b)``), which in the stereographic chart
``w = (x1 + i x2) / (1 - x3)`` is ``dw/dt = i sum_j cov_j d_j w``.  See
:mod:`msmlab.conventions` for how the orientation is pinned down.

Time stepping is implicit midpoint with a fixed-point inner solve.  Because
the right-hand side is pointwise orthogonal to ``s``, the midpoint rule
preserves the pointwise normalization up to solver tolerance; a
renormalization after each step removes the residual drift.  The inner
iteration contracts only when ``dt * max|k|^2 / 2 < 1``, which gives the
grid-tied step bound enforced by :func:`max_stable_dt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conventions import LL_SIGN
from .errors import ChartUndefinedError, NoConvergenceError
from .spectral import Grid1D, Grid2D

__all__ = [
    "Target",
    "MapField",
    "MapTrajectory",
    "max_stable_dt",
    "energy",
    "energy_chart",
    "ll_rhs",
    "harmonic_residual",
    "step_geometric",
    "evolve",
]

CHART_TOL = 1e-8
_MINK = np.array([1.0, 1.0, -1.0])


class Target(Enum):
    """Target geometry; the curvature sign drives every +- in the theory."""

    SPHERE = 1
    HYPERBOLIC = -1

    @property
    def sign(self) -> float:
        return float(self.value)

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self is Target.SPHERE:
            return np.sum(a * b, axis=-1)
        return np.sum(a * b * _MINK, axis=-1)

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = np.cross(a, b)
        if self is Target.HYPERBOLIC:
            c = c * _MINK
        return c

    def normalize(self, v: np.ndarray) -> np.ndarray:
        if self is Target.SPHERE:
            return v / np.linalg.norm(v, axis=-1, keepdims=True)
        q = -self.dot(v, v)
        if np.any(q <= 0):
            raise ValueError("values cannot be scaled onto the hyperboloid")
        return v / np.sqrt(q)[..., None]

    def normalization_error(self, v: np.ndarray) -> float:
        want = 1.0 if self is Target.SPHERE else -1.0
        return float(np.max(np.abs(self.dot(v, v) - want)))


def _axes_derivatives(grid, f: np.ndarray) -> list[np.ndarray]:
    if isinstance(grid, Grid2D):
        return [grid.dx(f), grid.dy(f)]
    return [grid.dx(f)]


def _componentwise(grid, op, s3: np.ndarray) -> np.ndarray:
    return np.stack([op(s3[..., c]) for c in range(3)], axis=-1)


@dataclass(frozen=True)
class MapField:
    """A map into the target, sampled on a periodic grid."""

    grid: Grid1D | Grid2D
    s3: np.ndarray
    target: Target = Target.SPHERE

    def __post_init__(self):
        expected = tuple(getattr(self.grid, "shape", (self.grid.n,))) + (3,)
        if self.s3.shape != expected:
            raise ValueError(f"map values must have shape {expected}, got {self.s3.shape}")
        if not np.all(np.isfinite(self.s3)):
            raise ValueError("map values must be finite")
        err = self.target.normalization_error(self.s3)
        if err > 1e-9:
            raise ValueError(f"map is off the target surface by {err:.2e}")

    @classmethod
    def create(cls, grid, s3: np.ndarray, target: Target = Target.SPHERE) -> "MapField":
        """Build a map, renormalizing the given components onto the target."""
        return cls(grid, target.normalize(np.asarray(s3, dtype=float)), target)

    @classmethod
    def constant(cls, grid, point=(0.0, 0.0, -1.0), target: Target = Target.SPHERE) -> "MapField":
        shape = tuple(getattr(grid, "shape", (grid.n,)))
        s3 = np.broadcast_to(np.asarray(point, dtype=float), shape + (3,)).copy()
        return cls.create(grid, s3, target)

    @classmethod
    def from_stereo(cls, grid, w: np.ndarray) -> "MapField":
        """Inverse stereographic chart w -> s3 (sphere, w = 0 at the south pole)."""
        w = np.asarray(w, dtype=complex)
        den = 1.0 + np.abs(w) ** 2
        s3 = np.stack(
            [2.0 * w.real / den, 2.0 * w.imag / den, (np.abs(w) ** 2 - 1.0) / den],
            axis=-1,
        )
        return cls.create(grid, s3, Target.SPHERE)

    def stereo(self) -> np.ndarray:
        """Chart value w = (x1 + i x2)/(1 - x3); undefined at the north pole."""
        if self.target is not Target.SPHERE:
            raise ChartUndefinedError("stereographic chart is defined for sphere maps only")
        den = 1.0 - self.s3[..., 2]
        if np.min(den) < CHART_TOL:
            raise ChartUndefinedError(
                f"map comes within {np.min(den):.2e} of the north pole "
                f"(chart tolerance {CHART_TOL:.0e})"
            )
        return (self.s3[..., 0] + 1j * self.s3[..., 1]) / den

    def normalization_error(self) -> float:
        return self.target.normalization_error(self.s3)


@dataclass
class MapTrajectory:
    """Uniformly spaced snapshots of an evolving map."""

    times: np.ndarray
    maps: list[MapField]
    dt: float

    def __len__(self) -> int:
        return len(self.maps)


def energy(mf: MapField) -> float:
    """Dirichlet energy 1/2 int sum_j <d_j s, d_j s> in the target metric."""
    grid, s3 = mf.grid, mf.s3
    total = np.zeros(s3.shape[:-1])
    for c in range(3):
        weight = 1.0 if mf.target is Target.SPHERE else _MINK[c]
        for d in _axes_derivatives(grid, s3[..., c]):
            total += weight * d**2
    if isinstance(grid, Grid2D):
        return 0.5 * grid.integral(total)
    return 0.5 * float(np.sum(total) * grid.spacing)


def energy_chart(mf: MapField) -> float:
    """Energy through the stereographic chart: 2 int |grad w|^2 / (1+|w|^2)^2.

    The conformal factor of the chart is 2/(1+|w|^2), whence the prefactor.
    Agrees with :func:`energy` to spectral accuracy away from the pole.
    """
    w = mf.stereo()
    grid = mf.grid
    dens = (1.0 + np.abs(w) ** 2) ** 2
    total = np.zeros(w.shape)
    for d in _axes_derivatives(grid, w):
        total += np.abs(d) ** 2
    integrand = total / dens
    if isinstance(grid, Grid2D):
        return 2.0 * grid.integral(integrand)
    return 2.0 * float(np.sum(integrand) * grid.spacing)


def _ll_values(grid, target: Target, s3: np.ndarray) -> np.ndarray:
    """LL_SIGN * (s x lap s) for any array of 3-vectors, on the target or not."""
    return LL_SIGN * target.cross(s3, _componentwise(grid, grid.laplacian, s3))


def ll_rhs(mf: MapField, target: Target | None = None) -> np.ndarray:
    """Right-hand side LL_SIGN * (s x lap s); tangent to the target pointwise."""
    return _ll_values(mf.grid, target or mf.target, mf.s3)


def harmonic_residual(mf: MapField) -> np.ndarray:
    """Tension field: the tangential projection of lap s (zero iff harmonic)."""
    lap = _componentwise(mf.grid, mf.grid.laplacian, mf.s3)
    coeff = mf.target.dot(lap, mf.s3)
    if mf.target is Target.SPHERE:
        return lap - coeff[..., None] * mf.s3
    # <s, s> = -1 on the hyperboloid, so the projection adds the component.
    return lap + coeff[..., None] * mf.s3


def max_stable_dt(grid) -> float:
    """Largest step for which the midpoint fixed-point iteration contracts.

    The inner map has Lipschitz constant about max |k|^2 / 2 per unit dt,
    so we require dt * max|k|^2 / 2 <= 0.8.
    """
    if isinstance(grid, Grid2D):
        kmax2 = float(np.max(grid.k2))
    else:
        kmax2 = float(np.max(grid.k**2))
    return 1.6 / kmax2


def step_geometric(
    mf: MapField,
    dt: float,
    max_iters: int = 100,
    tol: float = 1e-12,
) -> MapField:
    """One implicit-midpoint step, renormalized onto the target."""
    limit = max_stable_dt(mf.grid)
    if dt > limit:
        raise ValueError(
            f"dt = {dt:.3e} exceeds the contraction bound {limit:.3e} "
            "for this grid; refine the step"
        )
    grid, target, s0 = mf.grid, mf.target, mf.s3
    # The midpoint iterate is off the target, so it stays a bare array.
    mid = s0 + 0.5 * dt * _ll_values(grid, target, s0)
    scale = float(np.max(np.abs(s0))) + 1e-30
    for _ in range(max_iters):
        new_mid = s0 + 0.5 * dt * _ll_values(grid, target, mid)
        delta = float(np.max(np.abs(new_mid - mid)))
        mid = new_mid
        if delta < tol * scale:
            break
    else:
        raise NoConvergenceError(
            f"midpoint iteration stalled at update {delta:.3e} after {max_iters} iterations"
        )
    s1 = target.normalize(2.0 * mid - s0)
    return MapField(grid, s1, target)


def evolve(
    mf: MapField,
    dt: float,
    n_steps: int,
    store_every: int = 1,
    max_iters: int = 100,
    tol: float = 1e-12,
) -> MapTrajectory:
    """Integrate the map flow, storing every ``store_every``-th snapshot."""
    maps = [mf]
    times = [0.0]
    current = mf
    for step in range(1, n_steps + 1):
        current = step_geometric(current, dt, max_iters=max_iters, tol=tol)
        if step % store_every == 0:
            maps.append(current)
            times.append(step * dt)
    return MapTrajectory(times=np.array(times), maps=maps, dt=dt * store_every)
