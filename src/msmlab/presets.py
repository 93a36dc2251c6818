"""Named initial-data families shared by the CLI and the test suite.

Each preset is a pure function of a grid, a parameter dictionary, and
(where randomness is involved) an explicit seed, so experiment outputs are
reproducible from their configuration alone.  Unknown preset names or
parameters raise :class:`~msmlab.errors.ConfigError` naming the offender.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .maps import MapField
from .msm import MSMState
from .spectral import Grid1D, Grid2D

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


def preset_params(table: dict, name: str, params: dict | None = None) -> dict:
    """A preset's defaults merged with ``params``, rejecting unknown names and keys."""
    if name not in table:
        raise ConfigError(f"unknown preset {name!r} (available: {sorted(table)})")
    extra = set(params or {}) - set(table[name])
    if extra:
        raise ConfigError(
            f"unknown parameter {sorted(extra)[0]!r} for preset {name!r} "
            f"(allowed: {sorted(table[name])})"
        )
    return {**table[name], **(params or {})}


def _mode_phase(grid, k) -> np.ndarray:
    if isinstance(grid, Grid1D):
        return np.exp(2j * np.pi * int(k) * grid.x / grid.length)
    kx, ky = (int(k[0]), int(k[1])) if np.iterable(k) else (int(k), 0)
    return np.exp(2j * np.pi * (kx * grid.x + ky * grid.y) / grid.length)


def _bump_envelope(grid, width: float) -> np.ndarray:
    c = grid.length / 2
    if isinstance(grid, Grid1D):
        r2 = ((grid.x - c) / (width * grid.length)) ** 2
    else:
        r2 = (((grid.x - c) ** 2) + (grid.y - c) ** 2) / (width * grid.length) ** 2
    return np.exp(-0.5 * r2)


def _random_chart(grid, band: int, amplitude: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if isinstance(grid, Grid1D):
        coef = np.zeros(grid.n, dtype=complex)
        for m in range(-band, band + 1):
            coef[m] = rng.standard_normal() + 1j * rng.standard_normal()
        w = np.fft.ifft(coef) * grid.n
    else:
        coef = np.zeros(grid.shape, dtype=complex)
        for mx in range(-band, band + 1):
            for my in range(-band, band + 1):
                coef[mx, my] = rng.standard_normal() + 1j * rng.standard_normal()
        w = grid.ifft(coef)
    top = float(np.max(np.abs(w)))
    return w * (amplitude / top) if top > 0 else w


def map_preset(grid, name: str, params: dict | None = None, seed: int = 0) -> MapField:
    """Build a named initial map on the given periodic grid."""
    p = preset_params(MAP_PRESETS, name, params)
    if name == "zero":
        return MapField.constant(grid)
    if name == "single_mode":
        return MapField.from_stereo(grid, p["amplitude"] * _mode_phase(grid, p["k"]))
    if name == "smooth_bump":
        c = grid.length / 2
        if isinstance(grid, Grid1D):
            z = (grid.x - c) / (p["width"] * grid.length) + 0j
        else:
            z = ((grid.x - c) + 1j * (grid.y - c)) / (p["width"] * grid.length)
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
        w = (p["amplitude"] / top) * w.real + 0j
    return MapField.from_stereo(grid, w)


def msm_preset(grid: Grid2D, name: str, params: dict | None = None, seed: int = 0) -> MSMState:
    """Build a named derivative-field pair on a 2-D grid."""
    p = preset_params(MSM_PRESETS, name, params)
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
