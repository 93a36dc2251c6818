"""Named initial-data families, and the type and range check of config values.

Each preset is a pure function of a grid, a parameter dictionary, and
(where randomness is involved) an explicit seed, so experiment outputs are
reproducible from their configuration alone.  :func:`check_params` checks
each preset parameter, option (``cli.OPTIONS``), grid and time value alone;
an unknown name or key, or a value of the wrong type or range, raises
:class:`~msmlab.errors.ConfigError` naming it.  Rules that tie values
together are the library's, and ``cli`` asks them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

import numpy as np

from .errors import ConfigError
from .maps import MapField
from .msm import SCHEMES, MSMState
from .spectral import Grid2D, PeriodicGrid
from .xsb import MAX_ENUMERATION, check_band

# Each preset's parameters with their defaults.  The builders below and the
# up-front config check both read these tables.
MAP_PRESETS = {
    "zero": {},
    "single_mode": {"k": 1, "amplitude": 0.3},
    "smooth_bump": {"amplitude": 0.6, "width": 0.0625},
    "near_north_pole": {"distance": 0.05, "amplitude": 0.1},
    "random_seeded": {"band": 3, "amplitude": 0.4, "real": False},
}
MSM_PRESETS = {
    "zero": {},
    "single_mode": {"k": (2, 1), "amplitude": 0.5},
    "smooth_bump": {"amplitude": 0.5, "width": 0.08},
    "random_seeded": {"band": 4, "amplitude": 0.5},
}

_BIG = sys.float_info.max
_TINY = math.ulp(0.0)  # the least positive float: a range from it is open at zero
_MODULUS = math.isqrt(MAX_ENUMERATION)

# Values with a range narrower than their default's type, as (least,
# greatest, description), both ends included.  A bump width divides a
# length, the eta = 0 soliton vanishes, a ratio suite's eps is the margin of
# b = 1/2 + eps above 1/2 and keeps the numerator's b = -1/2 + 2 eps below
# zero, and a pole distance is a height on the unit sphere, whose south pole
# is 2.  Each set of a multiplier pair draws up to half of Z_N, and its N^2
# values must fit the enumeration budget.
# The oracle's centered differences need the three snapshots of two steps.
_RANGES = {
    **dict.fromkeys(("width", "length", "dt", "t_final", "dt0", "t_window", "soliton_length",
                     "eta"), (_TINY, _BIG, "a finite positive number")),
    "eps": (_TINY, math.nextafter(0.25, 0.0), "a number in (0, 1/4)"),
    **dict.fromkeys(("store_every", "rungs", "restarts"), (1, math.inf, "a positive integer")),
    "steps": (2, math.inf, "an integer >= 2"),
    "distance": (_TINY, 2.0, "a number in (0, 2]"),
    "p": (1.0, 2.0, "a number in [1, 2]"),
    "modulus": (2, _MODULUS, f"an integer in [2, {_MODULUS}]"),
}
_SIZES = {"n", "nt", "soliton_n"}  # grid sizes: the powers of two spectral.PeriodicGrid takes
# Values chosen by name from a fixed tuple.  An option whose default is a
# tuple takes a list drawn from that tuple instead.
_CHOICES = {"scheme": SCHEMES}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(key: str, value, default, dim: int) -> tuple[bool, str]:
    """Whether ``value`` fits ``default``'s type and ``key``'s range, and what fits."""
    if key == "k":  # a preset's mode may be a pair in 2-D
        ok = _is_int(value) or (dim == 2 and isinstance(value, (list, tuple))
                                and len(value) == 2 and all(map(_is_int, value)))
        return ok, "an integer or a pair of integers" if dim == 2 else "an integer"
    if key in _SIZES:
        return _is_int(value) and value >= 8 and not value & (value - 1), "a power of two >= 8"
    if isinstance(default, bool):
        return isinstance(value, bool), "true or false"
    if isinstance(default, str):
        return value in _CHOICES[key], f"one of {_CHOICES[key]}"
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(v in default for v in value)
        return ok, f"a list drawn from {default}"
    if isinstance(default, int):
        lo, hi, want = _RANGES.get(key, (0, math.inf, "a nonnegative integer"))
        return _is_int(value) and lo <= value <= hi, want
    # A float; a None default marks a value worked out when unset, or a grid or time value.
    lo, hi, want = _RANGES.get(key, (-_BIG, _BIG, "a finite number"))
    # The comparison also refuses NaN, infinities and ints beyond a float.
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and lo <= value <= hi
    return ok, want


def check_params(defaults: dict, params: dict | None, what: Callable[[str], str],
                 dim: int = 2) -> dict:
    """``defaults`` merged with ``params``, each value checked against the type of
    its default and the range of its key; ``what(key)`` names a key in messages."""
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ConfigError(f"{what(key)} is unknown (allowed: {sorted(defaults)})")
        ok, want = _fits(key, value, defaults[key], dim)
        if not ok:
            raise ConfigError(f"{what(key)} must be {want}, got {value!r}")
    return {**defaults, **(params or {})}


def _check_band(band: int, n: int) -> None:
    """The mode box |m_j| <= band must fit the grid without aliasing a mode (:func:`check_band`)."""
    try:
        check_band(band, n)
    except ValueError as err:
        raise ConfigError(f"parameter 'band' = {band} on a grid of n = {n}: {err}") from err


def preset_params(table: dict, name: str, params: dict | None, dim: int,
                  n: int | None = None) -> dict:
    """A preset's defaults merged with ``params``; rejects unknown names, keys and values.

    With ``n``, the smallest grid the preset will be built on, a
    ``random_seeded`` band is also checked against that grid.
    """
    if name not in table:
        raise ConfigError(f"unknown preset {name!r} (available: {sorted(table)})")
    merged = check_params(table[name], params,
                          lambda key: f"parameter {key!r} of preset {name!r}", dim)
    if n is not None and "band" in merged:
        _check_band(merged["band"], n)
    return merged


def _mode_phase(grid: PeriodicGrid, k) -> np.ndarray:
    """exp(i k.x) for the integer mode k; a scalar k lies along the first axis."""
    phase = sum(m * x for m, x in zip(np.atleast_1d(k), grid.coords))
    return np.exp(2j * np.pi * phase / grid.length)


def _bump_envelope(grid: Grid2D, width: float) -> np.ndarray:
    c = grid.length / 2
    r2 = sum((x - c) ** 2 for x in grid.coords) / (width * grid.length) ** 2
    return np.exp(-0.5 * r2)


def _random_chart(grid: PeriodicGrid, band: int, amplitude: float, seed: int) -> np.ndarray:
    """Gaussian coefficients on the mode box |m_j| <= band, scaled to sup ``amplitude``.

    One draw fills the box in row-major order, real then imaginary part per mode.
    """
    _check_band(band, grid.n)
    rng = np.random.default_rng(seed)
    side = 2 * band + 1
    draw = rng.standard_normal(2 * side**grid.dim).reshape((side,) * grid.dim + (2,))
    coef = np.zeros(grid.shape, dtype=complex)
    box = np.arange(-band, band + 1)
    coef[np.ix_(*[box] * grid.dim)] = draw[..., 0] + 1j * draw[..., 1]
    w = grid.ifft(coef)
    del coef
    top = float(np.max(np.abs(w)))
    if top > 0:
        w *= amplitude / top
    return w


def map_preset(grid, name: str, params: dict | None = None, seed: int = 0) -> MapField:
    """Build a named initial map on the given periodic grid."""
    p = preset_params(MAP_PRESETS, name, params, grid.dim)
    if name == "zero":
        return MapField.constant(grid)
    if name == "single_mode":
        return MapField.from_stereo(grid, p["amplitude"] * _mode_phase(grid, p["k"]))
    if name == "smooth_bump":
        c = grid.length / 2
        z = sum(e * (x - c) for e, x in zip((1, 1j), grid.coords)) / (p["width"] * grid.length)
        w = p["amplitude"] * z * np.exp(-0.5 * np.abs(z) ** 2) * np.exp(0.7j * np.real(z))
        return MapField.from_stereo(grid, w)
    if name == "near_north_pole":
        # Chart value of size sqrt(2/distance - 1) places the map a
        # geodesic-height ``distance`` below the pole where the chart fails.
        radius = np.sqrt(2.0 / p["distance"] - 1.0)
        w = radius * (1.0 + p["amplitude"] * np.real(_mode_phase(grid, 1)))
        return MapField.from_stereo(grid, w + 0j)
    # random_seeded: chart-real data keeps the conserved in-plane connection
    # constant at zero, which the 1-D cubic-coefficient fit relies on.
    w = _random_chart(grid, p["band"], p["amplitude"], seed)
    if p["real"]:
        top = float(np.max(np.abs(w.real)))
        w = (p["amplitude"] / top if top > 0 else 0.0) * w.real + 0j
    return MapField.from_stereo(grid, w)


def msm_preset(grid: Grid2D, name: str, params: dict | None = None, seed: int = 0) -> MSMState:
    """Build a named derivative-field pair on a 2-D grid."""
    p = preset_params(MSM_PRESETS, name, params, grid.dim)
    if name == "zero":
        return MSMState.zero(grid)
    if name == "single_mode":
        phase = _mode_phase(grid, p["k"])
        return MSMState(grid=grid, u1=p["amplitude"] * phase,
                        u2=0.8 * p["amplitude"] * np.conj(phase))
    if name == "smooth_bump":
        env = _bump_envelope(grid, p["width"])
        phase = _mode_phase(grid, (2, 1))
        return MSMState(grid=grid, u1=p["amplitude"] * env * phase,
                        u2=0.8 * p["amplitude"] * env * np.conj(phase))
    # random_seeded
    u1 = _random_chart(grid, p["band"], p["amplitude"], seed)
    u2 = _random_chart(grid, p["band"], p["amplitude"], seed + 1)
    return MSMState(grid=grid, u1=u1, u2=u2)
