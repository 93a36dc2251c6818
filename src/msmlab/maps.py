"""Maps into the sphere or hyperbolic plane and their Schrodinger flow.

A map is stored through its embedded components ``s3`` with trailing
dimension 3.  The targets differ by one sign: in the ambient metric
``diag(1, 1, sign)`` (:attr:`Target.metric`) a map has ``<s, s> = sign``,
that is ``|s3| = 1`` on the sphere and ``x1^2 + x2^2 - x3^2 = -1`` with
``x3 >= 1`` (the upper sheet) on the hyperboloid.  Every target-dependent
formula reads the metric; only the stereographic chart is the sphere's.

The flow integrated here is

    ds/dt = LL_SIGN * (s x lap s)

with the cross product ``metric * (a x b)``, which in the stereographic
chart ``w = (x1 + i x2) / (1 - x3)`` is ``dw/dt = i sum_j cov_j d_j w``.
See :mod:`msmlab.conventions` for how the orientation is pinned down.

Time stepping is implicit midpoint with a fixed-point inner solve.  Because
the right-hand side is pointwise orthogonal to ``s``, the midpoint rule
preserves the pointwise normalization up to solver tolerance; a
renormalization after each step removes the residual drift.  The inner
iteration contracts only when ``dt * max|k|^2 / 2 < 1``, which gives the
grid-tied step bound :func:`max_stable_dt`, which :func:`check_dt` enforces.

Each right-hand side evaluation Laplaces the three stacked components in
one real transform pair (:meth:`~msmlab.spectral.PeriodicGrid.laplacian`)
and forms the cross product component by component in the layout of its
first factor.  :func:`step_geometric` copies the map once per step into
component-major memory, still indexed ``(..., 3)``: each component is then
one contiguous plane for the transforms and the pointwise work of every
inner iteration, and the step's result does not depend on the memory layout
of its input.

The map flow and the MSM solver both step through :func:`_run`, so every
solver failure, a stalled midpoint step included, names its step and t.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conventions import LL_SIGN
from .errors import ChartUndefinedError, NoConvergenceError, SolverError
from .spectral import PeriodicGrid

__all__ = [
    "Target",
    "MapField",
    "MapTrajectory",
    "max_stable_dt",
    "check_dt",
    "energy",
    "step_geometric",
    "evolve",
]

CHART_TOL = 1e-8
# Iteration budget and relative update tolerance of the implicit midpoint step.
MIDPOINT_MAX_ITERS = 100
MIDPOINT_TOL = 1e-12


class Target(Enum):
    """Target geometry: the metric diag(1, 1, sign), whose sign drives every +- in the theory."""

    SPHERE = 1
    HYPERBOLIC = -1

    @property
    def sign(self) -> float:
        return float(self.value)

    @property
    def metric(self) -> np.ndarray:
        return np.array([1.0, 1.0, self.sign])

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sum(a * b * self.metric, axis=-1)

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The target's cross product metric * (a x b), in the memory layout of ``a``."""
        c = np.empty_like(a)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.subtract(a[..., j] * b[..., k], a[..., k] * b[..., j], out=c[..., i])
        c[..., 2] *= self.sign
        return c

    def normalize(self, v: np.ndarray) -> np.ndarray:
        q = self.sign * self.dot(v, v)
        if np.any(q <= 0):
            raise ValueError(f"values cannot be scaled onto the {self.name.lower()} target")
        return v / np.sqrt(q)[..., None]

    def normalization_error(self, v: np.ndarray) -> float:
        return float(np.max(np.abs(self.dot(v, v) - self.sign)))


@dataclass(frozen=True)
class MapField:
    """A map into the target, sampled on a periodic grid."""

    grid: PeriodicGrid
    s3: np.ndarray
    target: Target = Target.SPHERE

    def __post_init__(self):
        expected = self.grid.shape + (3,)
        if self.s3.shape != expected:
            raise ValueError(f"map values must have shape {expected}, got {self.s3.shape}")
        if not np.all(np.isfinite(self.s3)):
            raise ValueError("map values must be finite")
        err = self.target.normalization_error(self.s3)
        if err > 1e-9:
            raise ValueError(f"map is off the target surface by {err:.2e}")
        if self.target.sign < 0 and np.min(self.s3[..., 2]) <= 0:
            raise ValueError("hyperbolic map values must lie on the upper sheet x3 >= 1")

    @classmethod
    def create(cls, grid, s3: np.ndarray, target: Target = Target.SPHERE) -> "MapField":
        """Build a map, renormalizing the given components onto the target."""
        return cls(grid, target.normalize(np.asarray(s3, dtype=float)), target)

    @classmethod
    def constant(cls, grid, point=None, target: Target = Target.SPHERE) -> "MapField":
        point = (0.0, 0.0, -target.sign) if point is None else point  # the base point
        s3 = np.broadcast_to(np.asarray(point, dtype=float), grid.shape + (3,)).copy()
        return cls.create(grid, s3, target)

    @classmethod
    def from_stereo(cls, grid, w: np.ndarray) -> "MapField":
        """Inverse stereographic chart w -> s3 (sphere, w = 0 at the south pole)."""
        w = np.asarray(w, dtype=complex)
        den = 1.0 + np.abs(w) ** 2
        s3 = np.empty(w.shape + (3,))
        np.divide(2.0 * w.real, den, out=s3[..., 0])
        np.divide(2.0 * w.imag, den, out=s3[..., 1])
        np.divide(np.abs(w) ** 2 - 1.0, den, out=s3[..., 2])
        del den
        s3 = Target.SPHERE.normalize(s3)  # as in create, but the raw values are freed first
        return cls(grid, s3, Target.SPHERE)

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
    for c, weight in enumerate(mf.target.metric):
        for d in grid.gradient(s3[..., c]):
            total += weight * d**2
    return 0.5 * grid.integral(total)


def _ll_values(grid, target: Target, s3: np.ndarray) -> np.ndarray:
    """LL_SIGN * (s x lap s) for any array of 3-vectors, on the target or not."""
    return LL_SIGN * target.cross(s3, grid.laplacian(s3))


def max_stable_dt(grid) -> float:
    """Largest step for which the midpoint fixed-point iteration contracts.

    The inner map has Lipschitz constant about max |k|^2 / 2 per unit dt,
    so we require dt * max|k|^2 / 2 <= 0.8.
    """
    return 1.6 / float(np.max(grid.k2))


def check_dt(grid, dt: float) -> None:
    """Refuse a step above the grid's :func:`max_stable_dt`."""
    limit = max_stable_dt(grid)
    if dt > limit:
        raise ValueError(f"dt = {dt:.3e} exceeds the midpoint contraction bound {limit:.3e} "
                         f"of the n = {grid.n} grid")


def step_geometric(mf: MapField, dt: float) -> MapField:
    """One implicit-midpoint step, renormalized onto the target."""
    check_dt(mf.grid, dt)
    grid, target = mf.grid, mf.target
    # Component-major copy (see the module docstring).
    s0 = np.moveaxis(np.moveaxis(mf.s3, -1, 0).copy(), 0, -1)
    # The midpoint iterate is off the target, so it stays a bare array.
    mid = s0 + 0.5 * dt * _ll_values(grid, target, s0)
    scale = float(np.max(np.abs(s0))) + 1e-30
    for _ in range(MIDPOINT_MAX_ITERS):
        new_mid = s0 + 0.5 * dt * _ll_values(grid, target, mid)
        delta = float(np.max(np.abs(new_mid - mid)))
        mid = new_mid
        if delta < MIDPOINT_TOL * scale:
            break
    else:
        raise NoConvergenceError(
            f"midpoint iteration stalled at update {delta:.3e} "
            f"after {MIDPOINT_MAX_ITERS} iterations"
        )
    s1 = target.normalize(2.0 * mid - s0)
    return MapField(grid, s1, target)


def _run(state, advance, n_steps: int, store_every: int, reach):
    """Yield the start state and every ``store_every``-th of ``n_steps`` states.

    A :class:`SolverError` of ``advance`` is tagged with its 1-based step k
    and the time ``reach(state, k)`` that step from ``state`` was to reach.
    """
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    yield state
    for k in range(1, n_steps + 1):
        try:
            state = advance(state)
        except SolverError as err:
            err.step, err.t = k, reach(state, k)
            raise
        if k % store_every == 0:
            yield state


def evolve(mf: MapField, dt: float, n_steps: int, store_every: int = 1) -> MapTrajectory:
    """Integrate the map flow, storing every ``store_every``-th snapshot."""
    # The lambdas read step_geometric at each call, so a rebound name sees every step.
    maps = list(_run(mf, lambda m: step_geometric(m, dt), n_steps, store_every,
                     lambda m, k: k * dt))
    times = np.arange(len(maps)) * store_every * dt
    return MapTrajectory(times=times, maps=maps, dt=dt * store_every)
