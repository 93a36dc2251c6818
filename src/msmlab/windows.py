"""Smooth cutoff functions built from a single C-infinity bump.

Everything here derives from the standard mollifier g(t) = exp(-1/t) for
t > 0 (and 0 otherwise).  The monotone step

    step(t) = g(t) / (g(t) + g(1 - t))

is 0 for t <= 0, 1 for t >= 1 and smooth in between.  From it we build:

* ``high_cut(t)``: 1 for t <= 1, 0 for t >= PLATEAU_EDGE, used for the
  frequency-space Littlewood-Paley windows,
* ``unit_window(t)``: a smooth characteristic function of (-1, 1) with
  plateau |t| <= 3/4, used as the time cutoff psi(t / delta).

The dyadic partition of unity on frequency space is

    low(r) = high_cut(2 r),    annulus(r, R) = high_cut(r/R) - high_cut(2r/R)

for dyadic R >= 1, which telescopes so that low + sum of annuli is exactly 1
once R exceeds the largest frequency present.  The annulus at height R is
supported on R/2 < r < R * PLATEAU_EDGE and equals 1 on
[R * PLATEAU_EDGE / 2, R].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PLATEAU_EDGE",
    "smooth_step",
    "high_cut",
    "lp_low_window",
    "lp_annulus_window",
    "unit_window",
]

# Upper edge of the transition region of ``high_cut``.  Any value in (1, 2]
# yields a valid partition; 1.5 leaves each annulus a genuine plateau.
PLATEAU_EDGE = 1.5


def _mollifier(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    pos = t > 0.0
    # Clip to avoid overflow in exp for tiny positive arguments.
    tt = np.clip(t[pos], 1e-12, None)
    out[pos] = np.exp(-1.0 / tt)
    return out


def smooth_step(t) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    num = _mollifier(t)
    den = num + _mollifier(1.0 - t)
    return num / den


def high_cut(t, edge: float = PLATEAU_EDGE) -> np.ndarray:
    """Smooth cutoff equal to 1 for t <= 1 and 0 for t >= ``edge``."""
    t = np.asarray(t, dtype=float)
    return smooth_step((edge - t) / (edge - 1.0))


def lp_low_window(r) -> np.ndarray:
    """Low-frequency window: 1 for r <= 1/2, 0 for r >= PLATEAU_EDGE / 2."""
    return high_cut(2.0 * np.asarray(r, dtype=float))


def lp_annulus_window(r, level: float) -> np.ndarray:
    """Dyadic annulus window at height ``level`` (a power of two >= 1)."""
    r = np.asarray(r, dtype=float)
    return high_cut(r / level) - high_cut(2.0 * r / level)


def unit_window(t) -> np.ndarray:
    """Smooth characteristic function of (-1, 1), equal to 1 on |t| <= 3/4."""
    t = np.asarray(t, dtype=float)
    return smooth_step(4.0 * (1.0 - np.abs(t)))

