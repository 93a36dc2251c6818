"""Dispersive space-time norms and empirical estimate checks.

Fields live on the periodic box [0, L)^2 x [0, T): a spatial grid carrying
an extra time axis, smoothly windowed so the periodization in time is
honest.  The space-time transform labels time frequencies so that free
solutions of the linear flow sit on the characteristic paraboloid
tau = |xi|^2, where the weight

    <tau - |xi|^2>^b <xi>^s        (<x> = sqrt(1 + x^2))

is smallest.  The mirrored weight <tau + |xi|^2> measures the conjugate
family (complex conjugation swaps the two isometrically).

On top of the norms sit empirical ratio experiments: trilinear and
quintilinear products, a transport null form with its integration-by-parts
twin, and bilinear space-time Lebesgue embeddings.  Each experiment reports
the worst ratio over a seeded ensemble that stresses white-noise data,
data concentrated near the paraboloid, and high/low frequency-separated
pairs.  Ratios are reproducible from recorded seeds and are meant to be
compared across grid refinement, never against an absolute constant.
Every suite returns one shape: its reports, one ``RatioReport`` per ratio
it measures, and a dict of its named extra quantities (empty for the
cubic and quintic suites).

A band-limited field is its mode columns.  Its norm transforms a few rows
of them along t at a time and weighs each block against one weight row per
distinct |k|^2 of their box, so neither its whole space-time spectrum nor
a grid-shaped weight is ever held.  Every quantity a suite measures is a
box of mode columns or a sum over time slices, so the quintic, null form
and bilinear suites synthesize samples one time block at a time and never
hold all n x n x nt samples of a band-limited factor.

The last section estimates norms of multilinear convolution multipliers on
finite abelian groups (Z_N)^d: an exact slice bound from above and an
alternating maximization from below.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import TooLargeError
from .gauge import beta_hat
from .spectral import Grid2D
from .storage import write_csv

__all__ = [
    "SpaceTimeField",
    "realize_mode_field",
    "free_solution_field",
    "xsb_norm",
    "duality_pairing",
    "mixed_norm",
    "free_solution_norm_check",
    "free_solution_slope",
    "white_mode_dict",
    "paraboloid_mode_dict",
    "shell_mode_dict",
    "Trial",
    "TrialEnsemble",
    "sample_trials",
    "check_band",
    "default_index",
    "check_cubic",
    "check_weights",
    "RatioReport",
    "write_ratio_csv",
    "ratio_test_cubic",
    "ratio_test_quintic",
    "ratio_test_nullform",
    "bilinear_embedding_test",
    "MultiplierSpec",
    "multiplier_norm_bounds",
    "multiplier_suite",
    "exact_norm_k2",
    "indicator_pair_multiplier",
    "counting_bound",
]

# Enumerating the zero-sum hyperplane of a k-linear multiplier touches
# |Z|^(k-1) points; beyond this budget the estimator refuses to start.
MAX_ENUMERATION = 10**6

BOUNDARY_TOL = 1e-8

# Half-width of a realized field's time cutoff, as a fraction of the window.
DELTA_FRAC = 0.35


# -- windowed space-time fields ------------------------------------------


def _mollifier(t: np.ndarray) -> np.ndarray:
    """The C-infinity bump g(t) = exp(-1/t) for t > 0, and 0 otherwise."""
    out = np.zeros_like(t, dtype=float)
    pos = t > 0.0
    # Clip to avoid overflow in exp for tiny positive arguments.
    out[pos] = np.exp(-1.0 / np.clip(t[pos], 1e-12, None))
    return out


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone step g(t) / (g(t) + g(1 - t)): 0 for t <= 0, 1 for t >= 1."""
    num = _mollifier(t)
    return num / (num + _mollifier(1.0 - t))


def unit_window(t) -> np.ndarray:
    """Smooth characteristic function of (-1, 1), equal to 1 on |t| <= 3/4.

    Every field's time cutoff is psi((t - T/2) / delta) with psi this window.
    """
    return _smooth_step(4.0 * (1.0 - np.abs(np.asarray(t, dtype=float))))


class SpaceTimeField:
    """Complex field on (x, y, t), smoothly vanishing at the time seam.

    A field is built from its samples on its grid (``values``, n x n x nt)
    or, when band-limited, from its mode ``columns``: the time series of the
    spatial modes -B..B along each axis, in increasing order, of shape
    (2B + 1, 2B + 1, nt) with 2B < n; every other mode is zero.  The time
    axis must hold a power of two samples and the values at the first and
    last slice must be below BOUNDARY_TOL relative to the field's sup, so
    that treating the time axis as periodic is exact to rounding rather
    than an O(1) lie.

    ``band`` is B, and None for a field of samples.  A band-limited field
    derives its values from the columns on first read, and the same columns
    build it on any grid with more than 2B points a side (:func:`check_band`).
    Its checks run on the columns c_t: the seam values are at most the l1
    sum of c_t at the first and last slice, and by Parseval the sup is at
    least the largest l2 norm of a c_t, so passing with those two bounds
    implies passing on the values.
    """

    def __init__(self, grid: Grid2D, t_window: float, values: np.ndarray | None = None,
                 columns: np.ndarray | None = None):
        if (values is None) == (columns is None):
            raise ValueError("a field needs exactly one of its values or its columns")
        if values is not None and (values.ndim != 3 or values.shape[:2] != grid.shape):
            raise ValueError(f"values must have shape {grid.shape + ('nt',)}, got {values.shape}")
        if columns is not None and (columns.ndim != 3 or columns.shape[0] != columns.shape[1]
                                    or columns.shape[0] % 2 == 0):
            raise ValueError(f"columns must have shape (2B + 1, 2B + 1, nt), got {columns.shape}")
        self.grid, self.t_window, self.columns = grid, t_window, columns
        self.band = None if columns is None else columns.shape[0] // 2
        if self.band is not None:
            try:
                check_band(self.band, grid.n)
            except ValueError as err:
                raise ValueError(f"columns of shape {columns.shape}: {err}") from err
        nt = self.nt = (values if columns is None else columns).shape[2]
        if nt < 2 or nt & (nt - 1):
            raise ValueError(f"time axis must hold a power of two samples, got {nt}")
        if not t_window > 0:
            raise ValueError("t_window must be positive")
        if columns is None:
            self.values = values.astype(np.complex128, copy=False)
            top = float(np.max(np.abs(values)))
            edge = max(float(np.max(np.abs(values[:, :, 0]))),
                       float(np.max(np.abs(values[:, :, -1]))))
        else:
            mags = np.abs(columns)
            top = float(np.sqrt(np.max(np.sum(mags**2, axis=(0, 1)))))
            edge = float(np.sum(mags[:, :, [0, -1]]))
        # The sup is NaN or inf exactly when an entry is not finite.
        if not np.isfinite(top):
            raise ValueError("field contains non-finite entries")
        if edge > BOUNDARY_TOL * top:
            raise ValueError(
                f"field does not vanish at the time boundary "
                f"(relative edge value {edge / top:.2e})"
            )

    @cached_property
    def values(self) -> np.ndarray:
        """Samples on the grid, synthesized from the columns on first read."""
        return _synthesize(self.columns, self.grid.n)

    @property
    def dt(self) -> float:
        return self.t_window / self.nt

    def conjugate(self) -> "SpaceTimeField":
        """The complex conjugate; mode k of it is the conjugate of mode -k, so a
        band-limited field stays band-limited."""
        if self.columns is None:
            return SpaceTimeField(self.grid, self.t_window, values=np.conj(self.values))
        return SpaceTimeField(self.grid, self.t_window, columns=np.conj(self.columns[::-1, ::-1]))


def _tau(nt: int, t_window: float) -> np.ndarray:
    return -2.0 * np.pi * np.fft.fftfreq(nt, d=t_window / nt)


def _compatible(fields: Sequence[SpaceTimeField]) -> None:
    ref = fields[0]
    for f in fields[1:]:
        if f.grid != ref.grid or f.nt != ref.nt or f.t_window != ref.t_window:
            raise ValueError("fields live on different space-time grids")


def _box_index(band: int, n: int) -> np.ndarray:
    """Grid index of the spatial modes -band..band on an n-point axis."""
    return np.arange(-band, band + 1) % n


def _band_sum(fields: Sequence[SpaceTimeField]) -> int | None:
    """Band of the fields' product, None when any band is unknown."""
    bands = [f.band for f in fields]
    return None if None in bands else sum(bands)


def _synthesize(columns: np.ndarray, m: int) -> np.ndarray:
    """Samples on an m x m grid of the field with the given mode columns.

    The field is summed mode by mode, in two small matrix products, so its
    samples are exact on any grid; with m > 2B they also determine it.
    """
    band = columns.shape[0] // 2
    ms = np.arange(-band, band + 1)
    # e^{i 2 pi k j / m} at grid point j, with the phase reduced mod m.
    phase = np.exp((2j * np.pi / m) * (np.outer(np.arange(m), ms) % m))
    return phase @ np.tensordot(phase, columns, axes=(1, 0))


# A streamed step holds about this many grid points of each field at a time.
_BLOCK_POINTS = 2**16


def _row_blocks(count: int, points: int) -> list[slice]:
    """Consecutive slices of an axis of count rows, each row ``points``
    points, that hold about _BLOCK_POINTS points apiece."""
    step = max(1, _BLOCK_POINTS // points)
    return [slice(r, r + step) for r in range(0, count, step)]


def _samples(f: SpaceTimeField, blk: slice) -> np.ndarray:
    """The field's samples on its grid over one time block."""
    if f.columns is None:
        return f.values[:, :, blk]
    return _synthesize(f.columns[:, :, blk], f.grid.n)


def _blocks(fields: Sequence[SpaceTimeField]) -> Iterable[list[np.ndarray]]:
    """The fields' samples on their grid, one time block at a time."""
    _compatible(fields)
    for blk in _row_blocks(fields[0].nt, fields[0].grid.n**2):
        yield [_samples(f, blk) for f in fields]


def _cut(grid: Grid2D, samples: np.ndarray, band: int) -> np.ndarray:
    """Mode columns -band..band of samples of that band, with 2 band < grid.n."""
    cells = np.ix_(*[_box_index(band, grid.n)] * 2)
    return grid.fft(samples)[cells] / grid.n**2


def _assembled(grid: Grid2D, t_window: float, nt: int, band: int | None,
               block: Callable[[slice], np.ndarray]) -> SpaceTimeField:
    """The field on grid whose samples over each time block blk are block(blk).

    When its band is known and 2 band < grid.n, each block is cut to its
    mode columns and only the columns are kept; otherwise the blocks fill
    its values.
    """
    banded = band is not None and 2 * band < grid.n
    shape = (2 * band + 1, 2 * band + 1) if banded else grid.shape
    out = np.empty(shape + (nt,), dtype=np.complex128)
    for blk in _row_blocks(nt, grid.n**2):
        out[:, :, blk] = _cut(grid, block(blk), band) if banded else block(blk)
    if banded:
        return SpaceTimeField(grid, t_window, columns=out)
    return SpaceTimeField(grid, t_window, values=out)


def _product(factors: Sequence[SpaceTimeField], conj: Sequence[bool]) -> SpaceTimeField:
    _compatible(factors)
    first = factors[0]
    vals = np.conj(first.values) if conj[0] else first.values
    for f, c in zip(factors[1:], conj[1:]):
        vals = vals * (np.conj(f.values) if c else f.values)
    return SpaceTimeField(grid=first.grid, t_window=first.t_window, values=vals)


def _unaliased_grid(grid: Grid2D, bands: list[int | None],
                    bound: Callable[[list[int]], int]) -> Grid2D:
    """The smallest grid with more than bound(bands) points a side, or grid.

    The caller's ``bound``, a function of the fields' bands, makes the step
    it takes on the coarse grid unaliased.  The grid is a power of two with
    at least 8 points and more than twice every band, so the same columns
    build each field there exactly.  When a band is unknown, or no grid
    smaller than ``grid`` qualifies, it is ``grid``.
    """
    if None in bands:
        return grid
    m = 8
    while m <= max(bound(bands), 2 * max(bands)):
        m *= 2
    return grid if m >= grid.n else Grid2D(n=m, length=grid.length)


def _unaliased(fields: Sequence[SpaceTimeField],
               bound: Callable[[list[int]], int]) -> tuple[SpaceTimeField, ...]:
    """The fields built from their columns on :func:`_unaliased_grid`."""
    grid = fields[0].grid
    coarse = _unaliased_grid(grid, [f.band for f in fields], bound)
    if coarse is grid:
        return tuple(fields)
    return tuple(SpaceTimeField(grid=coarse, t_window=f.t_window, columns=f.columns)
                 for f in fields)


def realize_mode_field(
    grid: Grid2D,
    nt: int,
    t_window: float,
    modes: dict[tuple[int, int, int], complex],
) -> SpaceTimeField:
    """Sample sum of c * e^{i 2 pi (mx x + my y)/L} e^{-i 2 pi mt t/T}, windowed.

    The mode dictionary is grid-free: realizing the same dictionary on a
    refined grid samples the identical continuum field, which is what the
    grid-doubling stability studies rely on.  Mode indices must stay
    strictly inside the Nyquist box of the requested grid.

    The window acts along t only, so every occupied spatial frequency
    keeps its own windowed time series: one inverse transform along t
    gives the field's mode columns, and the field is built from them
    alone (zero outside them).  Its norm and its values on any grid are
    derived from the columns, and only when a suite reads them.
    """
    keys = np.array(list(modes), dtype=np.int64).reshape(-1, 3)
    band = int(np.abs(keys[:, :2]).max(initial=0))
    check_band(band, grid.n)
    check_band(int(np.abs(keys[:, 2]).max(initial=0)), nt)
    coefs = np.array(list(modes.values()), dtype=np.complex128)
    if not np.all(np.isfinite(coefs)):
        raise ValueError("mode coefficients must be finite")
    box = np.zeros((2 * band + 1, 2 * band + 1, nt), dtype=np.complex128)
    # Distinct keys land on distinct cells: |mt| < nt/2 keeps -mt mod nt one-to-one.
    box[keys[:, 0] + band, keys[:, 1] + band, -keys[:, 2] % nt] = coefs
    times = np.arange(nt) * (t_window / nt)
    cut = unit_window((times - t_window / 2) / (DELTA_FRAC * t_window))
    return SpaceTimeField(grid=grid, t_window=t_window,
                          columns=np.fft.ifft(box, axis=2) * (nt * cut))


def free_solution_field(
    grid: Grid2D,
    u0: np.ndarray,
    nt: int,
    t_window: float,
    delta: float,
) -> SpaceTimeField:
    """psi((t - T/2)/delta) e^{it Laplacian} u0 on the time window."""
    if not 0 < delta <= t_window / 2:
        raise ValueError("delta must lie in (0, t_window / 2] to vanish at the seam")
    u0h = grid.fft(np.asarray(u0, dtype=np.complex128))
    times = np.arange(nt) * (t_window / nt)
    cut = unit_window((times - t_window / 2) / delta)
    phases = np.exp(-1j * grid.k2[:, :, None] * times[None, None, :])
    vals = grid.ifft(phases * u0h[:, :, None]) * cut[None, None, :]
    return SpaceTimeField(grid=grid, t_window=t_window, values=vals)


# -- norms ----------------------------------------------------------------


# Squared weights, and the product of norms a ratio suite divides by, stay in [1e-300, 1e300].
_LOG_RANGE = np.log(1e300)


def _log_weights(grid: Grid2D, nt: int, t_window: float, s: float, b: float,
                 band: int) -> tuple[float, float]:
    """Bounds on log <tau -+ |xi|^2>^b <xi>^s over the modes -band..band: each
    bracket runs from 1 to its value on the Nyquist plane at the box's corner.
    Refuses a box whose squared weights or distances may leave [1e-300, 1e300]."""
    xi = 2 * np.sqrt(2) * np.pi * band / grid.length
    far = np.pi * nt / t_window + xi * xi
    logs = (b * np.log(np.hypot(1.0, far)), s * np.log(np.hypot(1.0, xi)))
    low, high = sum(min(x, 0.0) for x in logs), sum(max(x, 0.0) for x in logs)
    if 2 * low < -_LOG_RANGE or 2 * max(high, np.log(far)) > _LOG_RANGE:
        raise ValueError(f"weight <tau -+ |xi|^2>^{b:g} <xi>^{s:g} overflows or underflows")
    return low, high


@lru_cache(maxsize=8)
def _weight_sq(
    grid: Grid2D, nt: int, t_window: float, s: float, b: float, sign: int, band: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Squared weight of :func:`xsb_norm` as ``(index, table)``, read-only.

    The weight depends on the mode only through |k|^2, so ``table`` holds
    one row of nt time frequencies per distinct float |k|^2 and ``index``
    (int32) each mode's row: ``table[index]`` is the squared weight.  With a band
    the modes are -band..band, the box a band-limited field's norm reads;
    with None, the whole grid.  :func:`_log_weights` first refuses a weight
    that may overflow or underflow.
    """
    _log_weights(grid, nt, t_window, s, b, grid.n // 2 if band is None else band)
    k2 = grid.k2 if band is None else grid.k2[np.ix_(*[_box_index(band, grid.n)] * 2)]
    values, where = np.unique(k2.ravel(), return_inverse=True)
    xi2 = values[:, None]
    tau = _tau(nt, t_window)
    gap = tau[None, :] - sign * xi2
    # The single unpaired time frequency aliases +-Nyquist equally; giving
    # it the symmetric (farther) distance for both signs keeps conjugation
    # an exact isometry and the duality pairing an exact Cauchy-Schwarz,
    # instead of leaving a sign ambiguity on that plane.
    gap[:, nt // 2] = np.abs(tau[nt // 2]) + xi2[:, 0]
    bracket_tau = np.sqrt(1.0 + gap**2)
    bracket_xi = np.sqrt(1.0 + xi2)
    table = (bracket_tau**b * bracket_xi**s) ** 2
    index = where.astype(np.int32).reshape(k2.shape)
    for array in (index, table):
        array.setflags(write=False)
    return index, table


def xsb_norm(u: SpaceTimeField, s: float, b: float, sign: int = +1) -> float:
    """Weighted space-time norm with weight <tau -+ |xi|^2>^b <xi>^s.

    Summed over blocks of rows of about _BLOCK_POINTS coefficients: a
    band-limited field transforms each block of its columns along t (every
    coefficient outside its box is zero), a field of samples is transformed
    whole once and weighed block by block.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (paraboloid) or -1 (mirrored)")
    measure = u.grid.length**2 * u.t_window
    index, table = _weight_sq(u.grid, u.nt, u.t_window, s, b, sign, u.band)
    if u.columns is None:
        coef = np.fft.fftn(u.values, out=np.empty_like(u.values))
        coef /= u.values.size
    total = 0.0
    for rows in _row_blocks(index.shape[0], index.shape[1] * u.nt):
        if u.columns is None:
            block = coef[rows]
        else:
            block = np.fft.fft(u.columns[rows], axis=2)
            block /= u.nt
        total += np.sum(np.abs(block) ** 2 * table[index[rows]])
    return float(np.sqrt(measure * total))


def duality_pairing(u: SpaceTimeField, w: SpaceTimeField) -> complex:
    """Bilinear pairing  integral of u * w dx dt  (no conjugation).

    Cauchy-Schwarz against the mirrored weight is exact for it:
    |pairing| <= xsb_norm(u, s, b, +1) * xsb_norm(w, -s, -b, -1).
    """
    measure = u.grid.spacing**2 * u.dt
    return complex(measure * sum(np.sum(su * sw) for su, sw in _blocks([u, w])))


def mixed_norm(u: SpaceTimeField, p_t: float, q_x: float) -> float:
    """Lebesgue norm L^p in time of L^q in space; either index may be inf."""
    if p_t < 1 or q_x < 1:
        raise ValueError("exponents must be at least 1")
    if q_x == 2 and u.columns is not None:
        # Parseval: a slice's L^2 norm is L times the l2 norm of its mode column.
        slices = u.grid.length * np.sqrt(np.sum(np.abs(u.columns) ** 2, axis=(0, 1)))
    else:
        h2 = u.grid.spacing**2
        slices = np.concatenate([_slice_norms(su, q_x, h2) for su, in _blocks([u])])
    return _time_norm(slices, p_t, u.dt)


def _slice_norms(samples: np.ndarray, q: float, h2: float) -> np.ndarray:
    """L^q norm in space of each time slice; h2 is the area of a grid cell."""
    absu = np.abs(samples)
    if np.isinf(q):
        return np.max(absu, axis=(0, 1))
    return (h2 * np.sum(absu**q, axis=(0, 1))) ** (1.0 / q)


def _time_norm(slices: np.ndarray, p: float, dt: float) -> float:
    """L^p norm in time of per-slice values sampled dt apart."""
    if np.isinf(p):
        return float(np.max(slices))
    return float((dt * np.sum(slices**p)) ** (1.0 / p))


def free_solution_norm_check(
    grid: Grid2D,
    u0: np.ndarray,
    s: float,
    b: float,
    delta0: float,
    nt: int = 256,
    t_window: float = 4.0,
) -> float:
    """Ratio of the windowed free solution's weighted norm to ||u0||_{H^s}."""
    hs = grid.sobolev_norm(np.asarray(u0, dtype=np.complex128), s)
    if hs == 0.0:
        return 0.0
    u = free_solution_field(grid, u0, nt, t_window, delta0)
    return xsb_norm(u, s, b, +1) / hs


def free_solution_slope(
    grid: Grid2D,
    u0: np.ndarray,
    s: float,
    b: float,
    deltas: Sequence[float],
    nt: int = 256,
    t_window: float = 4.0,
) -> float:
    """Log-log slope of the free-solution ratio against the window width.

    The expected growth rate as the window shrinks is (1 - 2b)/2; at
    b = 1/2 the ratio is width-independent.
    """
    ratios = [free_solution_norm_check(grid, u0, s, b, d, nt, t_window) for d in deltas]
    if any(r <= 0 for r in ratios):
        raise ValueError("slope fit needs nonzero data")
    return float(np.polyfit(np.log(np.asarray(deltas)), np.log(ratios), 1)[0])


@lru_cache(maxsize=8)
def _sup_l2_constant(grid: Grid2D, nt: int, t_window: float, b: float) -> float:
    """Exact discrete constant in  sup_t ||u||_{L^2} <= C ||u||_{X_{0,b}}.

    C^2 is the largest over spatial frequencies of the sum over time
    frequencies of <tau - |xi|^2>^{-2b}, divided by the time extent; the
    inequality is Cauchy-Schwarz in the time frequency, so it holds
    discretely without any constant slack.
    """
    # The sum depends on the mode only through |xi|^2.
    gap = _tau(nt, t_window)[None, :] - np.unique(grid.k2)[:, None]
    s_max = float(np.max(np.sum((1.0 + gap**2) ** (-b), axis=1)))
    return float(np.sqrt(s_max / t_window))


# -- seeded ensembles -------------------------------------------------------


def _complex_coefs(rng: np.random.Generator, count: int) -> list[complex]:
    """count complex coefficients, each drawn as a (real, imaginary) pair.

    One call draws the same stream as count pairs of scalar draws.
    """
    return rng.standard_normal(2 * count).view(np.complex128).tolist()


def white_mode_dict(space_band: int, time_band: int, seed: int) -> dict:
    """Independent unit-variance coefficients on the full mode box."""
    space = range(-space_band, space_band + 1)
    keys = list(itertools.product(space, space, range(-time_band, time_band + 1)))
    return dict(zip(keys, _complex_coefs(np.random.default_rng(seed), len(keys))))


def paraboloid_mode_dict(
    space_band: int,
    time_band: int,
    length: float,
    t_window: float,
    seed: int,
) -> dict:
    """Mass only within two time modes of tau = |xi|^2: the hard regime."""
    space = range(-space_band, space_band + 1)
    coefs = iter(_complex_coefs(np.random.default_rng(seed), 3 * len(space) ** 2))
    out = {}
    for mx, my in itertools.product(space, space):
        xi2 = (2 * np.pi / length) ** 2 * (mx**2 + my**2)
        center = int(round(xi2 * t_window / (2 * np.pi)))
        for mt in range(center - 1, center + 2):
            mt_c = min(max(mt, -time_band), time_band)
            key = (mx, my, mt_c)
            out[key] = out.get(key, 0.0) + next(coefs)
    return out


def shell_mode_dict(space_band: int, time_band: int, seed: int, kind: str) -> dict:
    """Spatial frequencies confined to a high or low shell of the box."""
    if kind == "high":
        keep = lambda m: m >= max(1, int(np.ceil(0.7 * space_band)))
    elif kind == "low":
        keep = lambda m: m <= max(1, space_band // 4)
    else:
        raise ValueError(f"kind must be 'high' or 'low', got {kind!r}")
    space = range(-space_band, space_band + 1)
    keys = [
        (mx, my, mt)
        for mx, my in itertools.product(space, space) if keep(max(abs(mx), abs(my)))
        for mt in range(-time_band, time_band + 1)
    ]
    return dict(zip(keys, _complex_coefs(np.random.default_rng(seed), len(keys))))


@dataclass(frozen=True)
class Trial:
    fields: tuple[SpaceTimeField, ...]
    seed: int
    flavor: str


FLAVORS = ("white", "paraboloid", "highlow")


@dataclass(frozen=True)
class TrialEnsemble(Sequence):
    """Seeded trials, realized on demand: indexing builds one, nothing is kept."""

    grid: Grid2D
    nt: int
    t_window: float
    arity: int
    seeds: tuple[int, ...]
    space_band: int
    time_band: int

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, i: int) -> Trial:
        i = range(len(self.seeds))[i]
        mseed = self.seeds[i]
        flavor = FLAVORS[i % len(FLAVORS)]
        sb, tb = self.space_band, self.time_band
        factors = []
        for j in range(self.arity):
            fseed = mseed + 7919 * j
            if flavor == "white":
                modes = white_mode_dict(sb, tb, fseed)
            elif flavor == "paraboloid":
                modes = paraboloid_mode_dict(sb, tb, self.grid.length, self.t_window, fseed)
            else:
                modes = shell_mode_dict(sb, tb, fseed, "high" if j % 2 == 0 else "low")
            factors.append(realize_mode_field(self.grid, self.nt, self.t_window, modes))
        return Trial(fields=tuple(factors), seed=mseed, flavor=flavor)


def check_band(band: int, size: int) -> None:
    """Refuse a trial mode band that does not fit strictly inside size points."""
    if band >= size // 2:
        raise ValueError(f"mode band {band} does not fit inside the grid: it must be "
                         f"below {size} / 2")


def sample_trials(
    grid: Grid2D,
    nt: int,
    t_window: float,
    arity: int,
    n_trials: int,
    seed: int,
    space_band: int,
    time_band: int,
) -> TrialEnsemble:
    """Seeded ensemble cycling through the three stress flavors.

    Every factor of every trial is reconstructible from the recorded
    member seed alone, so a CSV row naming the argmax seed pins down the
    worst input exactly.  Trials are realized when indexed, so a caller
    holds only the trials it is working on.
    """
    if n_trials:
        check_band(space_band, grid.n)
        check_band(time_band, nt)
    member_seeds = np.random.SeedSequence(seed).generate_state(n_trials)
    return TrialEnsemble(
        grid=grid, nt=nt, t_window=t_window, arity=arity,
        seeds=tuple(int(x) for x in member_seeds),
        space_band=space_band, time_band=time_band,
    )


# -- ratio experiments -------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    test_name: str
    grid_n: int
    nt: int
    eps: float
    s: float
    ensemble_size: int
    max_ratio: float
    argmax_seed: int
    ratios: tuple[float, ...] = field(repr=False, default=())

    def csv_row(self) -> list:
        return [
            self.test_name, self.grid_n, self.nt, self.eps, self.s,
            self.ensemble_size, self.max_ratio, self.argmax_seed,
        ]


CSV_HEADER = ["test_name", "grid", "nt", "eps", "s", "ensemble_size", "max_ratio", "argmax_seed"]


def write_ratio_csv(reports: Iterable[RatioReport], path: str) -> None:
    write_csv(path, CSV_HEADER, [rep.csv_row() for rep in reports])


# What every suite returns: one report per ratio, and the named extra quantities.
_SuiteResult = tuple[list[RatioReport], dict[str, float]]


def default_index(eps: float) -> float:
    """The index s = 100 eps of the quintic and null form, and of the cubic unless set."""
    return 100 * eps


def check_cubic(s: float, eps: float) -> None:
    """Refuse a cubic index at or below the quoted smallness threshold 5 eps."""
    if not s > 5 * eps:
        raise ValueError(f"cubic ratio test requires s > 5 eps, got s={s}, eps={eps}")


def _cubic_bound(bands: list[int]) -> int:
    # The product's norm reads its spectrum, exact on a grid over twice its band.
    return 2 * sum(bands)


def check_weights(suite: str, grid: Grid2D, nt: int, t_window: float, band: int, eps: float,
                  s: float | None = None) -> None:
    """Refuse a ratio suite whose norms may overflow or underflow; no field is built.

    ``band`` bounds the factors' bands (n // 2 for fields of samples), and
    ``s`` is the cubic's index (None: :func:`default_index`).  Every box the
    suite weighs must pass :func:`_log_weights`; the cubic product weighs its
    whole unaliased grid, the quintic's its 5 band box or whole grid.  Taking
    a factor's norm between that of one unit coefficient and that of unit
    coefficients filling its box, their product must stay in [1e-300, 1e300].
    """
    s = {"cubic": default_index(eps) if s is None else s, "bilinear": 0.0}.get(
        suite, default_index(eps))
    factors = [(s, 0.5 + eps)] * {"cubic": 3, "quintic": 5, "nullform": 3, "bilinear": 2}[suite]
    # The products' boxes: the grid _unaliased builds the cubic's on, and the
    # band _assembled keeps the quintic's columns at.
    if suite == "cubic":
        box = _unaliased_grid(grid, [band] * 3, _cubic_bound).n // 2
        _log_weights(grid, nt, t_window, s, -0.5 + 2 * eps, box)
    elif suite == "quintic":
        box = 5 * band if 10 * band < grid.n else grid.n // 2
        _log_weights(grid, nt, t_window, s, -0.5 + 2 * eps, box)
    elif suite == "nullform":
        factors.append((-s, 0.5 - 2 * eps))
    log_measure = 2 * np.log(grid.length) + np.log(t_window)
    low = high = 0.0
    for index, b in factors:
        lo, hi = _log_weights(grid, nt, t_window, index, b, band)
        low += lo + 0.5 * log_measure
        high += hi + 0.5 * (log_measure + np.log((2 * band + 1) ** 2 * nt))
    if low < -_LOG_RANGE or high > _LOG_RANGE:
        raise ValueError(f"the {suite} suite's norms at s = {s:g}, eps = {eps:g} overflow or "
                         f"underflow on this grid")


def _suite(suite: str, trials: Sequence[Trial], names: Sequence[str], extras: Sequence[str],
           eps: float, s: float, fn: Callable[[Trial], Sequence[float]]) -> _SuiteResult:
    """A suite's reports and extras from fn over every trial in turn.

    :func:`check_weights` runs first, on an ensemble's own bands without
    realizing a trial: no norm of coefficients of order one then overflows
    or underflows, and a zero denominator means a zero factor.  fn returns
    one ratio per name, then one value per extra; a report names the seed
    of its largest ratio, and an extra is its largest value.  Each trial is
    realized inside ``one`` and dropped when it returns, so a lazy ensemble
    keeps one trial live at a time.
    """
    if isinstance(trials, TrialEnsemble):
        boxes = [(trials.grid, trials.nt, trials.t_window, trials.space_band)] if trials else []
    else:
        boxes = {(f[0].grid, f[0].nt, f[0].t_window,
                  max(x.grid.n // 2 if x.band is None else x.band for x in f))
                 for f in (trial.fields for trial in trials)}
    for box in boxes:
        check_weights(suite, *box, eps, s)

    def one(i: int) -> tuple:
        trial = trials[i]
        f = trial.fields[0]
        return (trial.seed, f.grid.n, f.nt, *fn(trial))

    rows = [one(i) for i in range(len(trials))]
    if not rows:
        return ([RatioReport(name, 0, 0, eps, s, 0, 0.0, 0) for name in names],
                dict.fromkeys(extras, 0.0))
    seeds, grid_ns, nts, *columns = zip(*rows)
    reports = []
    for name, values in zip(names, columns):
        i = int(np.argmax(values))
        reports.append(RatioReport(name, grid_ns[0], nts[0], eps, s, len(rows), float(values[i]),
                                   seeds[i], tuple(map(float, values))))
    return reports, {key: float(max(values)) for key, values in zip(extras, columns[len(names):])}


CUBIC_VARIANTS = {
    "cubic_conj2": (False, True, False),
    "cubic_conj23": (False, True, True),
    "cubic_plain": (False, False, False),
}


def ratio_test_cubic(trials: Sequence[Trial], s: float, eps: float) -> _SuiteResult:
    """Trilinear products measured from X_{s,1/2+eps} into X_{s,-1/2+2eps}.

    All three conjugation patterns of the last two factors are exercised;
    the quoted smallness threshold demands s > 5 eps (:func:`check_cubic`).
    """
    check_cubic(s, eps)
    b_num, b_den = -0.5 + 2 * eps, 0.5 + eps

    def one(trial: Trial) -> tuple[float, ...]:
        dens = [xsb_norm(f, s, b_den, +1) for f in trial.fields]
        den = float(np.prod(dens))
        if den == 0.0:
            return (0.0,) * len(CUBIC_VARIANTS)
        factors = _unaliased(trial.fields, _cubic_bound)
        return tuple(xsb_norm(_product(factors, conj), s, b_num, +1) / den
                     for conj in CUBIC_VARIANTS.values())

    return _suite("cubic", trials, tuple(CUBIC_VARIANTS), (), eps, s, one)


def _grad_potential(
    grid: Grid2D, pair: Sequence[SpaceTimeField]
) -> Callable[[slice], tuple[np.ndarray, np.ndarray]]:
    """Gradient on grid, one time block at a time, of the zero-mean inverse
    Laplacian of u conj(v) for the pair (u, v).

    When the pair's band is known and unaliased on the pair's grid, the
    potential's columns are cut there from the source spectrum one block
    at a time, and each block of the gradient is synthesized from them on
    grid.  Otherwise the pair lives on grid, and each block of the gradient
    comes from the potential's spectrum by two inverse transforms.
    """
    (u, v), coarse, band = pair, pair[0].grid, _band_sum(pair)
    if band is None or 2 * band >= coarse.n:
        def block(blk: slice) -> tuple[np.ndarray, np.ndarray]:
            sh = grid.fft(_samples(u, blk) * np.conj(_samples(v, blk)))
            return grid.grad_from_hat(grid.inverse_laplacian_symbol[:, :, None] * sh)
        return block
    symbol = coarse.inverse_laplacian_symbol[np.ix_(*[_box_index(band, coarse.n)] * 2)]
    cols = np.empty((2 * band + 1, 2 * band + 1, u.nt), dtype=np.complex128)
    for blk in _row_blocks(u.nt, coarse.n**2):
        cols[:, :, blk] = symbol[:, :, None] * _cut(
            coarse, _samples(u, blk) * np.conj(_samples(v, blk)), band)
    ik = (2j * np.pi / grid.length) * np.arange(-band, band + 1)
    return lambda blk: (_synthesize(ik[:, None, None] * cols[:, :, blk], grid.n),
                        _synthesize(ik[None, :, None] * cols[:, :, blk], grid.n))


def ratio_test_quintic(trials: Sequence[Trial], eps: float) -> _SuiteResult:
    """Gradient-potential pairings: grad inv-lap (u1 conj u2) . grad inv-lap (u3 conj u4) u5.

    Structurally degree five but measured exactly like the cubic products,
    with s = :func:`default_index` on both sides.
    """
    s = default_index(eps)
    b_num, b_den = -0.5 + 2 * eps, 0.5 + eps

    def one(trial: Trial) -> tuple[float]:
        u = trial.fields
        den = float(np.prod([xsb_norm(f, s, b_den, +1) for f in u]))
        if den == 0.0:
            return (0.0,)
        # The pair sources and their potentials on a grid where the sources
        # are unaliased; the band-5B product is formed one time block at a
        # time on the fine grid.
        pairs = _unaliased(u[:4], lambda b: 2 * max(b[0] + b[1], b[2] + b[3]))
        grid = u[0].grid
        g1, g2 = _grad_potential(grid, pairs[:2]), _grad_potential(grid, pairs[2:])

        def block(blk: slice) -> np.ndarray:
            # (g1x g2x + g1y g2y) u5, formed in g1x's array in that operand order.
            (g1x, g1y), (g2x, g2y) = g1(blk), g2(blk)
            np.multiply(g1x, g2x, out=g1x)
            np.add(g1x, g1y * g2y, out=g1x)
            return np.multiply(g1x, _samples(u[4], blk), out=g1x)

        prod = _assembled(grid, u[0].t_window, u[0].nt, _band_sum(u), block)
        return (xsb_norm(prod, s, b_num, +1) / den,)

    return _suite("quintic", trials, ("quintic",), (), eps, s, one)


def _nullform_values(trial: Trial) -> tuple[complex, complex]:
    """Direct and integrated-by-parts assemblies of the transport pairing."""
    # A grid sum keeps only the integrand's zero mode, exact on any grid with
    # more points than the integrand's band; the stream source (band of the
    # pair u1, u2) needs twice its band to stay unaliased.
    fields = _unaliased(trial.fields, lambda b: max(sum(b), 2 * (b[0] + b[1])))
    grid = fields[0].grid
    direct = parts = 0.0
    for u1, u2, u3, w in _blocks(fields):
        # Stream potential of the pair (u1, u2), slicewise in time.
        beta_x, beta_y = grid.real_grad_from_hat(beta_hat(grid, u1, u2, 1.0))
        u3_x, u3_y = grid.grad_from_hat(grid.fft(u3))
        w_x, w_y = grid.grad_from_hat(grid.fft(w))
        direct += np.sum(w * (beta_x * u3_y - beta_y * u3_x))
        parts += np.sum(u3 * (beta_y * w_x - beta_x * w_y))
    measure = grid.spacing**2 * fields[0].dt
    return complex(measure * direct), complex(measure * parts)


def ratio_test_nullform(trials: Sequence[Trial], eps: float) -> _SuiteResult:
    """Transport null form against the product of solution and dual norms.

    For every trial the pairing is assembled twice, before and after the
    integration by parts that the periodic setting makes boundary-free;
    the worst relative mismatch is the extra ``nullform_ibp_mismatch``.
    """
    s = default_index(eps)
    b_den = 0.5 + eps
    b_dual = 0.5 - 2 * eps

    def one(trial: Trial) -> tuple[float, float]:
        u1, u2, u3, w = trial.fields
        den = (
            xsb_norm(u1, s, b_den, +1)
            * xsb_norm(u2, s, b_den, +1)
            * xsb_norm(u3, s, b_den, +1)
            * xsb_norm(w, -s, b_dual, -1)
        )
        direct, parts = _nullform_values(trial)
        scale = max(abs(direct), abs(parts), 1e-300)
        mismatch = abs(direct - parts) / scale
        ratio = 0.0 if den == 0.0 else abs(direct) / den
        return ratio, mismatch

    return _suite("nullform", trials, ("nullform",), ("nullform_ibp_mismatch",), eps, s, one)


def bilinear_embedding_test(trials: Sequence[Trial], p: float, eps: float) -> _SuiteResult:
    """Products in L^{p'}_t L^p_x against squared dispersive norms.

    Also evaluates the diagonal single-function embedding into
    L^{2p'}_t L^{2p}_x and, independently, the following exact reduction:
    sup_t L^2 is bounded by the b > 1/2 norm with the computable discrete
    constant from :func:`_sup_l2_constant`; the extras are the largest
    ratio ``sup_l2_max_ratio`` and that constant ``sup_l2_cap``.
    """
    if not 1 <= p <= 2:
        raise ValueError("p must lie in [1, 2]")
    b = 0.5 + eps
    p_conj = np.inf if p == 1 else p / (p - 1)

    def one(trial: Trial) -> tuple[float, ...]:
        u, v = trial.fields[0], trial.fields[1]
        cap = _sup_l2_constant(u.grid, u.nt, u.t_window, b)
        nu, nv = xsb_norm(u, 0.0, b, +1), xsb_norm(v, 0.0, b, +1)
        if nu == 0.0 or nv == 0.0:
            return 0.0, 0.0, 0.0, 0.0, cap
        # Slice norms of u v and u conj(v), block by block: no product is kept whole.
        h2 = u.grid.spacing**2
        rows = [(_slice_norms(su * sv, p, h2), _slice_norms(su * np.conj(sv), p, h2))
                for su, sv in _blocks([u, v])]
        uv, ucv = (_time_norm(np.concatenate(c), p_conj, u.dt) / (nu * nv) for c in zip(*rows))
        diag = mixed_norm(u, 2 * p_conj, 2 * p) / nu
        sup = mixed_norm(u, np.inf, 2) / nu
        return uv, ucv, diag, sup, cap

    names = tuple(f"bilinear_{kind}_p{p:g}" for kind in ("uv", "uconjv", "diag"))
    return _suite("bilinear", trials, names, ("sup_l2_max_ratio", "sup_l2_cap"), eps, 0.0, one)


# -- multilinear multiplier norms on (Z_N)^d ---------------------------------


@dataclass(frozen=True)
class MultiplierSpec:
    """k-linear convolution multiplier on the zero-sum hyperplane of (Z_N)^d.

    ``m`` holds one value per point of the hyperplane, indexed by the first
    k - 1 frequencies (each axis enumerating the N^d group elements in
    mixed-radix order); the last frequency is minus their sum.
    """

    k: int
    modulus: int
    dim: int
    m: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("arity must be at least 2")
        if self.modulus < 2 or self.dim < 1:
            raise ValueError("group must be (Z_N)^d with N >= 2, d >= 1")
        size = self.modulus**self.dim
        if self.m.shape != (size,) * (self.k - 1):
            raise ValueError(
                f"m must have shape {(size,) * (self.k - 1)}, got {self.m.shape}"
            )
        if self.m.size > MAX_ENUMERATION:
            raise TooLargeError(
                f"hyperplane holds {self.m.size} points, budget is {MAX_ENUMERATION}"
            )
        if not np.all(np.isfinite(self.m)):
            raise ValueError("multiplier values must be finite")
        if self.m.dtype != np.complex128:
            object.__setattr__(self, "m", self.m.astype(np.complex128))

    @property
    def group_size(self) -> int:
        return self.modulus**self.dim


def _negated_sum_index(spec: MultiplierSpec) -> np.ndarray:
    """Flat group index of -(xi_1 + ... + xi_{k-1}) at each hyperplane point."""
    radix = (spec.modulus,) * spec.dim
    # Per-coordinate digits of every group element in mixed radix, and one
    # sparse axis per free frequency.
    digits = np.unravel_index(np.arange(spec.group_size), radix)
    axes = np.meshgrid(*[np.arange(spec.group_size)] * (spec.k - 1), indexing="ij", sparse=True)
    return np.ravel_multi_index([-sum(d[a] for a in axes) % spec.modulus for d in digits], radix)


def exact_norm_k2(spec: MultiplierSpec) -> float:
    """For k = 2 the norm is the largest |m| on the hyperplane, exactly."""
    if spec.k != 2:
        raise ValueError("closed form only holds for k = 2")
    return float(np.max(np.abs(spec.m)))


def _slice_upper_bound(spec: MultiplierSpec, neg_idx: np.ndarray) -> float:
    """Smallest over arguments of the sup-over-slices L^2 mass of m."""
    m2 = np.abs(spec.m) ** 2
    best = np.inf
    for j in range(spec.k - 1):
        axes = tuple(a for a in range(spec.k - 1) if a != j)
        best = min(best, float(np.max(np.sum(m2, axis=axes))))
    last = np.bincount(neg_idx.ravel(), weights=m2.ravel(), minlength=spec.group_size)
    best = min(best, float(np.max(last)))
    return float(np.sqrt(best))


def _alternating_lower_bound(
    spec: MultiplierSpec,
    neg_idx: np.ndarray,
    restarts: int,
    seed: int,
    sweeps: int = 400,
) -> float:
    """Best multilinear form value found by cyclic closed-form updates.

    With all arguments but one frozen, the form is a linear functional of
    the free argument, so the optimal unit vector is explicit and the form
    value equals the functional's norm; cycling is monotone, every restart
    is a valid lower bound, and the max over restarts is returned.  The
    first restart is seeded with point masses on the hyperplane point where
    |m| peaks, which already attains the exact norm when k = 2.

    The restarts advance together as the rows of one batch, drawn in the
    order a restart-by-restart loop draws them; a row leaves the batch at
    the sweep where that restart alone would stop.
    """
    size, k = spec.group_size, spec.k
    # fs[j] holds argument j of every live restart, one row each.
    fs = [np.zeros((restarts, size), dtype=np.complex128) for _ in range(k)]
    peak = np.unravel_index(int(np.argmax(np.abs(spec.m))), spec.m.shape)
    for j in range(k - 1):
        fs[j][0, peak[j]] = 1.0
    fs[k - 1][0, neg_idx[peak]] = 1.0
    draws = np.random.default_rng(seed).standard_normal((restarts - 1, k, 2, size))
    for j in range(k):
        f = draws[:, j, 0] + 1j * draws[:, j, 1]
        fs[j][1:] = f / np.linalg.norm(f, axis=1, keepdims=True)

    def along(f: np.ndarray, axis: int) -> np.ndarray:
        idx = [None] * (k - 1)
        idx[axis] = slice(None)
        return f[(slice(None), *idx)]

    m = spec.m[None]
    flat_idx = neg_idx.ravel()
    rows = np.arange(restarts)  # restart index of each live row
    value = np.zeros(restarts)
    final = np.zeros(restarts)
    for _ in range(sweeps):
        if rows.size == 0:
            break
        previous = value
        live = np.ones(rows.size, dtype=bool)  # no zero functional met this sweep
        for j in range(k):
            weighted = m * fs[k - 1][:, neg_idx] if j < k - 1 else m
            for i in range(k - 1):
                if i != j:
                    weighted = weighted * along(fs[i], i)
            if j < k - 1:
                g = np.sum(weighted, axis=tuple(a + 1 for a in range(k - 1) if a != j))
            else:
                offsets = (np.arange(rows.size)[:, None] * size + flat_idx).ravel()
                flat = weighted.reshape(-1)
                g = (
                    np.bincount(offsets, weights=flat.real, minlength=rows.size * size)
                    + 1j * np.bincount(offsets, weights=flat.imag, minlength=rows.size * size)
                ).reshape(rows.size, size)
            norm = np.linalg.norm(g, axis=1)
            live &= norm != 0.0
            fs[j][live] = np.conj(g[live]) / norm[live, None]
            value = np.where(live, norm, 0.0)
        done = (value == 0.0) | (np.abs(value - previous) <= 1e-12 * np.maximum(value, 1.0))
        final[rows[done]] = value[done]
        rows, value, fs = rows[~done], value[~done], [f[~done] for f in fs]
    final[rows] = value
    return float(np.max(final))


def multiplier_norm_bounds(
    spec: MultiplierSpec,
    restarts: int = 50,
    seed: int = 0,
) -> tuple[float, float]:
    """Bracket the multiplier norm: alternating lower, sliced upper.

    The upper bound is the smallest over arguments of the worst slice mass
    (Cauchy-Schwarz); the lower bound is attained by explicit unit vectors
    and is therefore certified.  lower <= norm <= upper always; for k = 2
    both collapse onto max |m|.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if not np.any(spec.m):
        return 0.0, 0.0
    neg_idx = _negated_sum_index(spec)
    upper = _slice_upper_bound(spec, neg_idx)
    lower = _alternating_lower_bound(spec, neg_idx, restarts, seed)
    return min(lower, upper), upper


def multiplier_suite(
    specs: Sequence[MultiplierSpec],
    restarts: int = 50,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Bounds for several multipliers, one spec after another."""
    return [multiplier_norm_bounds(sp, restarts=restarts, seed=seed) for sp in specs]


def indicator_pair_multiplier(modulus: int, set_a: Iterable[int], set_b: Iterable[int]) -> MultiplierSpec:
    """Trilinear multiplier chi_A(xi_1) chi_B(xi_2) on Z_N."""
    m = np.zeros((modulus, modulus), dtype=np.complex128)
    a = [x % modulus for x in set_a]
    b = [x % modulus for x in set_b]
    for i in a:
        for j in b:
            m[i, j] = 1.0
    return MultiplierSpec(k=3, modulus=modulus, dim=1, m=m)


def counting_bound(modulus: int, set_a: Iterable[int], set_b: Iterable[int]) -> float:
    """Exact sup over xi of sqrt(#{xi_1 in A : xi - xi_1 in B}) on Z_N."""
    a = {x % modulus for x in set_a}
    b = {x % modulus for x in set_b}
    worst = 0
    for xi in range(modulus):
        worst = max(worst, sum(1 for x in a if (xi - x) % modulus in b))
    return float(np.sqrt(worst))
