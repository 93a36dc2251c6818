"""Workload config documents, each a pure function of the benchmark seed.

Every experiment in a document takes the benchmark seed as its own seed,
and every map or field preset is ``random_seeded``, so a new seed gives new
inputs while the same seed gives the same document.
"""

from __future__ import annotations

import math

CONFIG_VERSION = 1


def msm_large(seed: int) -> list[dict]:
    # One n=256 pair stepped by both schemes: the stage arrays exceed L2, so
    # the spectral layer is bandwidth bound.  Maps, gauge and xsb are bypassed.
    common = {
        "kind": "msm_run", "seed": seed,
        "grid": {"n": 256, "length": 1.0},
        "time": {"dt": 2.0e-4, "t_final": 2.0e-3},
        "preset": {"name": "random_seeded", "params": {"band": 6, "amplitude": 0.5}},
    }
    return [
        {**common, "name": "msm-etdrk4", "options": {"scheme": "etd_rk4", "store_every": 5}},
        {**common, "name": "msm-strang", "options": {"scheme": "strang_split", "store_every": 5}},
    ]


def map_side(seed: int) -> list[dict]:
    # Transforms of 64^2 to 256^2 points sit inside L2, so per-call overhead
    # dominates.  msm.nonlinearity and xsb are bypassed.
    preset = {"name": "random_seeded", "params": {"band": 3, "amplitude": 0.4}}
    return [
        {
            # dt = 1.5e-5 is 0.76 of max_stable_dt at n=64, inside the
            # contraction bound of the midpoint iteration.
            "kind": "evolve_map", "name": "map-flow", "seed": seed,
            "grid": {"n": 64, "length": 1.0},
            "time": {"dt": 1.5e-5, "t_final": 4.5e-3},
            "preset": preset,
            "options": {"store_every": 20},
        },
        {
            "kind": "gauge_check", "name": "gauge-ladder", "seed": seed,
            "grid": {"sizes": [64, 128, 256], "length": 1.0},
            "preset": preset,
        },
        {
            "kind": "msm_oracle", "name": "oracle-ladder", "seed": seed,
            "grid": {"n": 32, "length": 1.0},
            "preset": preset,
            "options": {"rungs": 3, "steps": 4},
        },
        {
            # The CLI's built-in hasimoto default, seeded.
            "kind": "hasimoto_1d", "name": "hasimoto-line", "seed": seed,
            "grid": {"n": 256, "length": 2.0 * math.pi},
            "time": {"dt": 4.8e-5, "t_final": 2.88e-3},
            "preset": {"name": "random_seeded",
                       "params": {"band": 2, "amplitude": 0.4, "real": True}},
            "options": {"n_data": 3, "eta": 1.0, "soliton_n": 512, "soliton_length": 50.0},
        },
    ]


def ensemble(seed: int) -> list[dict]:
    # 8 MiB space-time fields: fftn traffic and the Python loops of the
    # ensemble and multiplier code dominate.  msm, maps and gauge are bypassed.
    return [
        {
            "kind": "ratio_suite", "name": "ratio-suite", "seed": seed,
            "grid": {"n": 64, "length": 4.0 * math.pi},
            "options": {"nt": 128, "t_window": 4.0, "eps": 0.01, "s": 1.0, "n_trials": 6,
                        "suites": ["cubic", "quintic", "nullform", "bilinear"]},
        },
        {
            "kind": "multiplier_suite", "name": "multiplier-bounds", "seed": seed,
            "options": {"modulus": 8, "n_pairs": 20, "restarts": 50},
        },
    ]


WORKLOADS = {"msm-large": msm_large, "map-side": map_side, "ensemble": ensemble}


def document(workload: str, seed: int) -> dict:
    """The run config document of one workload at one seed."""
    return {"version": CONFIG_VERSION, "experiments": WORKLOADS[workload](seed)}
