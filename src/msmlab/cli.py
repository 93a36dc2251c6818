"""Command-line experiment harness.

A run is described by a JSON document with a schema version and a list of
experiments; every experiment names its kind, grid, time stepping, data
preset, and RNG seed.  Outputs are deterministic functions of the config
(CSV tables and binary snapshots under one directory, listed with SHA-256
checksums in ``manifest.json``), so rerunning a config reproduces every
artifact byte for byte.  The environment variable ``MSMLAB_THREADS`` caps
the worker pool used by the ensemble suites.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import xsb
from .conventions import NLS_CUBIC_COEF
from .errors import ConfigError, MsmLabError
from .gauge import (
    build_gauge_state,
    fit_nls_coefficient,
    hasimoto_trajectory,
    soliton_nls_residual,
    verify_consistency,
)
from .maps import energy, evolve as evolve_map, max_stable_dt
from .msm import (
    ALL_TERMS,
    SolverConfig,
    evolve as evolve_msm,
    hk_norm,
    mass,
    msm_residual_of_gauge_trajectory,
)
from .presets import MAP_PRESETS, MSM_PRESETS, map_preset, msm_preset, preset_params
from .spectral import Grid1D, Grid2D, _validate_size
from .storage import save_map_field, save_msm_state, write_csv, write_manifest

CONFIG_VERSION = 1

COMMAND_KINDS = {
    "evolve": "evolve_map",
    "gauge-check": "gauge_check",
    "msm": "msm_run",
    "oracle": "msm_oracle",
    "ratios": "ratio_suite",
    "multipliers": "multiplier_suite",
    "hasimoto": "hasimoto_1d",
}

KINDS = tuple(COMMAND_KINDS.values())

_SECTION_KEYS = {"kind", "name", "seed", "grid", "time", "preset", "options"}
_REQUIRED_SECTIONS = {
    "evolve_map": ("grid", "time", "preset"),
    "gauge_check": ("grid", "preset"),
    "msm_run": ("grid", "time", "preset"),
    "msm_oracle": ("grid", "preset"),
    "ratio_suite": ("grid",),
    "multiplier_suite": (),
    "hasimoto_1d": ("grid", "time", "preset"),
}
_GRID_KEYS = {
    "gauge_check": {"sizes", "length"},
}
_OPTION_KEYS = {
    "evolve_map": {"store_every"},
    "gauge_check": set(),
    "msm_run": {"scheme", "dealias", "store_every", "terms"},
    "msm_oracle": {"rungs", "steps", "dt0"},
    "ratio_suite": {"eps", "s", "n_trials", "space_band", "time_band",
                    "nt", "t_window", "suites", "p"},
    "multiplier_suite": {"modulus", "n_pairs", "restarts"},
    "hasimoto_1d": {"n_data", "eta", "store_every", "soliton_n", "soliton_length"},
}

RATIO_SUITES = ("cubic", "quintic", "nullform", "bilinear")

# Kinds that step the map flow at the configured dt, with the grid they use.
_MAP_FLOW_GRIDS = {"evolve_map": Grid2D, "hasimoto_1d": Grid1D}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment from a run config."""

    kind: str
    name: str
    seed: int = 0
    grid: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)
    preset: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} (allowed: {sorted(allowed)})")


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return value


def _positive_float(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{where} must be a positive number, got {value!r}")
    return float(value)


def _grid_size(value, where: str) -> None:
    try:
        _validate_size(_positive_int(value, where))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _validate_grid(kind: str, grid: dict, where: str) -> None:
    keys = _GRID_KEYS.get(kind, {"n", "length"})
    _check_keys(grid, keys, f"{where}.grid")
    if "sizes" in keys:
        sizes = grid.get("sizes")
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError(f"{where}.grid.sizes must be a nonempty list")
        for n in sizes:
            _grid_size(n, f"{where}.grid.sizes entry")
    else:
        _grid_size(grid.get("n"), f"{where}.grid.n")
    _positive_float(grid.get("length"), f"{where}.grid.length")


def _validate_experiment(raw: dict, index: int) -> ExperimentConfig:
    where = f"experiment {index}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(raw, _SECTION_KEYS, where)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r} (one of {sorted(KINDS)})")
    name = raw.get("name", f"{kind}-{index}")
    if not isinstance(name, str) or not name or "/" in name:
        raise ConfigError(f"{where}.name must be a nonempty string without '/'")
    where = f"experiment {index} ({name})"
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{where}.seed must be a nonnegative integer")

    for section in _REQUIRED_SECTIONS[kind]:
        if section not in raw:
            raise ConfigError(f"{where} needs a {section!r} section")
    for section in ("grid", "time", "preset"):
        if section in raw and section not in _REQUIRED_SECTIONS[kind]:
            raise ConfigError(f"{where}: kind {kind!r} takes no {section!r} section")

    grid = dict(raw.get("grid", {}))
    if "grid" in raw:
        _validate_grid(kind, grid, where)
    time = dict(raw.get("time", {}))
    if "time" in raw:
        _check_keys(time, {"dt", "t_final"}, f"{where}.time")
        _positive_float(time.get("dt"), f"{where}.time.dt")
        _positive_float(time.get("t_final"), f"{where}.time.t_final")
    preset = dict(raw.get("preset", {}))
    if "preset" in raw:
        _check_keys(preset, {"name", "params"}, f"{where}.preset")
        if not isinstance(preset.get("name"), str):
            raise ConfigError(f"{where}.preset.name must be a string")
        if not isinstance(preset.get("params", {}), dict):
            raise ConfigError(f"{where}.preset.params must be an object")
        table = MSM_PRESETS if kind == "msm_run" else MAP_PRESETS
        try:
            preset_params(table, preset["name"], preset.get("params"))
        except ConfigError as err:
            raise ConfigError(f"{where}.preset: {err}") from err
    options = dict(raw.get("options", {}))
    _check_keys(options, _OPTION_KEYS[kind], f"{where}.options")
    if "soliton_n" in options:
        _grid_size(options["soliton_n"], f"{where}.options.soliton_n")
    for suite in options.get("suites", []):
        if suite not in RATIO_SUITES:
            raise ConfigError(
                f"{where}.options.suites: unknown suite {suite!r} (one of {RATIO_SUITES})"
            )

    if kind in _MAP_FLOW_GRIDS:
        limit = max_stable_dt(_MAP_FLOW_GRIDS[kind](n=grid["n"], length=grid["length"]))
        if time["dt"] > limit:
            raise ConfigError(
                f"{where}.time.dt = {time['dt']:.3e} exceeds the midpoint contraction "
                f"bound {limit:.3e} for this grid"
            )

    exp = ExperimentConfig(
        kind=kind, name=name, seed=seed,
        grid=grid, time=time, preset=preset, options=options,
    )
    if kind == "msm_run":
        try:
            _solver_config(exp)
        except (ConfigError, TypeError) as err:  # TypeError: terms not a list of names
            raise ConfigError(f"{where}.options: {err}") from err
    return exp


def parse_config(raw: dict) -> list[ExperimentConfig]:
    """Validate a whole run document before any compute starts."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, {"version", "experiments"}, "config root")
    version = raw.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}, expected {CONFIG_VERSION}")
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("'experiments' must be a list")
    parsed = [_validate_experiment(e, i) for i, e in enumerate(experiments)]
    names = [e.name for e in parsed]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"duplicate experiment name {name!r}")
    return parsed


# -- experiment runners -------------------------------------------------------


def _run_evolve_map(exp: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid2D(n=exp.grid["n"], length=exp.grid["length"])
    mf = map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)
    dt, t_final = exp.time["dt"], exp.time["t_final"]
    traj = evolve_map(mf, dt, int(round(t_final / dt)),
                      store_every=exp.options.get("store_every", 1))
    rows = [
        [i, t, energy(m), m.normalization_error()]
        for i, (t, m) in enumerate(zip(traj.times, traj.maps))
    ]
    write_csv(out / "trajectory.csv", ["index", "time", "energy", "normalization_error"], rows)
    save_map_field(out / "final_map.msmf", traj.maps[-1])
    return ["trajectory.csv", "final_map.msmf"]


def _run_gauge_check(exp: ExperimentConfig, out: Path) -> list[str]:
    rows = []
    for n in exp.grid["sizes"]:
        grid = Grid2D(n=n, length=exp.grid["length"])
        mf = map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)
        report = verify_consistency(build_gauge_state(mf))
        rows.append([n, report.div_a, report.torsion, report.curvature,
                     report.harmonic_means[0], report.harmonic_means[1]])
    write_csv(out / "gauge_residuals.csv",
              ["n", "div_a", "torsion", "curvature", "mean_a1", "mean_a2"], rows)
    return ["gauge_residuals.csv"]


def _solver_config(exp: ExperimentConfig) -> SolverConfig:
    return SolverConfig(
        dt=exp.time["dt"], t_final=exp.time["t_final"],
        scheme=exp.options.get("scheme", "strang_split"),
        dealias=exp.options.get("dealias", True),
        terms=tuple(exp.options.get("terms", ALL_TERMS)),
    )


def _run_msm(exp: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid2D(n=exp.grid["n"], length=exp.grid["length"])
    state = msm_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)
    cfg = _solver_config(exp)
    states = evolve_msm(state, cfg, store_every=exp.options.get("store_every", 1))
    rows = [[i, st.t, mass(st), hk_norm(st, 1.0)] for i, st in enumerate(states)]
    write_csv(out / "trace.csv", ["index", "time", "mass", "h1_norm"], rows)
    save_msm_state(out / "final_state.msmf", states[-1])
    return ["trace.csv", "final_state.msmf"]


def _run_oracle(exp: ExperimentConfig, out: Path) -> list[str]:
    n0, length = exp.grid["n"], exp.grid["length"]
    rungs = exp.options.get("rungs", 3)
    steps = exp.options.get("steps", 4)
    # Choose the base step so the finest rung, after halving it rungs - 1
    # times, still sits safely inside the midpoint contraction bound.
    finest = Grid2D(n=n0 * 2 ** (rungs - 1), length=length)
    dt0 = exp.options.get("dt0", 0.8 * max_stable_dt(finest) * 2 ** (rungs - 1))
    rows = []
    for r in range(rungs):
        grid = Grid2D(n=n0 * 2**r, length=length)
        dt = dt0 / 2**r
        mf = map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)
        report = msm_residual_of_gauge_trajectory(evolve_map(mf, dt, steps))
        rows.append([r, grid.n, dt,
                     float(np.max(report.residuals_raw)),
                     float(np.max(report.alpha_identity)),
                     report.max_residual()])
    write_csv(out / "oracle_ladder.csv",
              ["rung", "n", "dt", "max_raw_residual", "max_alpha_identity", "max_residual"],
              rows)
    return ["oracle_ladder.csv"]


def _run_ratios(exp: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid2D(n=exp.grid["n"], length=exp.grid["length"])
    opt = exp.options
    nt = opt.get("nt", 64)
    t_window = opt.get("t_window", 4.0)
    eps = opt.get("eps", 0.01)
    s = opt.get("s", 100 * eps)
    n_trials = opt.get("n_trials", 6)
    bands = dict(space_band=opt.get("space_band", 5), time_band=opt.get("time_band", 10))
    suites = opt.get("suites", list(RATIO_SUITES))

    def trials(arity, offset):
        return xsb.sample_trials(grid, nt, t_window, arity, n_trials, exp.seed + offset, **bands)

    reports = []
    extras = []
    if "cubic" in suites:
        reports.extend(xsb.ratio_test_cubic(trials(3, 0), s, eps))
    if "quintic" in suites:
        reports.append(xsb.ratio_test_quintic(trials(5, 1), eps))
    if "nullform" in suites:
        nf = xsb.ratio_test_nullform(trials(4, 2), eps)
        reports.append(nf.ratio)
        extras.append(["nullform_ibp_mismatch", nf.max_assembly_mismatch])
    if "bilinear" in suites:
        bl = xsb.bilinear_embedding_test(trials(2, 3), opt.get("p", 1.0), eps)
        reports.extend([bl.uv, bl.u_conj_v, bl.diagonal])
        extras.append(["sup_l2_max_ratio", bl.sup_l2_max_ratio])
        extras.append(["sup_l2_cap", bl.sup_l2_cap])
    xsb.write_ratio_csv(reports, out / "ratios.csv")
    written = ["ratios.csv"]
    if extras:
        write_csv(out / "ratio_extras.csv", ["quantity", "value"], extras)
        written.append("ratio_extras.csv")
    return written


def _run_multipliers(exp: ExperimentConfig, out: Path) -> list[str]:
    opt = exp.options
    modulus = opt.get("modulus", 8)
    n_pairs = opt.get("n_pairs", 20)
    restarts = opt.get("restarts", 50)
    rng = np.random.default_rng(exp.seed)
    pairs = []
    for _ in range(n_pairs):
        a = sorted(int(x) for x in rng.choice(modulus, size=rng.integers(1, modulus // 2 + 1),
                                              replace=False))
        b = sorted(int(x) for x in rng.choice(modulus, size=rng.integers(1, modulus // 2 + 1),
                                              replace=False))
        pairs.append((a, b))
    specs = [xsb.indicator_pair_multiplier(modulus, a, b) for a, b in pairs]
    bounds = xsb.multiplier_suite(specs, restarts=restarts, seed=exp.seed)
    rows = [
        [i, modulus, 3, 1, "|".join(map(str, a)), "|".join(map(str, b)),
         lo, up, xsb.counting_bound(modulus, a, b)]
        for i, ((a, b), (lo, up)) in enumerate(zip(pairs, bounds))
    ]
    write_csv(out / "multipliers.csv",
              ["index", "modulus", "k", "dim", "set_a", "set_b",
               "lower", "upper", "counting_bound"], rows)
    return ["multipliers.csv"]


def _run_hasimoto(exp: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid1D(n=exp.grid["n"], length=exp.grid["length"])
    dt, t_final = exp.time["dt"], exp.time["t_final"]
    n_steps = int(round(t_final / dt))
    store_every = exp.options.get("store_every", 1)
    rows = []
    for i in range(exp.options.get("n_data", 3)):
        mf = map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed + i)
        traj = evolve_map(mf, dt, n_steps, store_every=store_every)
        fit = fit_nls_coefficient(hasimoto_trajectory(traj), traj.dt, grid)
        rows.append([f"data-{i}", fit.c, fit.residual])
    # Residual of the closed-form soliton, on a box wide enough that its
    # exponential tail clears the periodic seam.
    soliton_grid = Grid1D(n=exp.options.get("soliton_n", 512),
                          length=exp.options.get("soliton_length", 50.0))
    eta = exp.options.get("eta", 1.0)
    rows.append(["soliton", NLS_CUBIC_COEF, soliton_nls_residual(soliton_grid, eta)])
    write_csv(out / "hasimoto.csv", ["label", "cubic_coefficient", "residual"], rows)
    return ["hasimoto.csv"]


_RUNNERS = {
    "evolve_map": _run_evolve_map,
    "gauge_check": _run_gauge_check,
    "msm_run": _run_msm,
    "msm_oracle": _run_oracle,
    "ratio_suite": _run_ratios,
    "multiplier_suite": _run_multipliers,
    "hasimoto_1d": _run_hasimoto,
}


def run_experiments(experiments: list[ExperimentConfig], out_dir) -> Path:
    """Run every experiment, then write the checksum manifest.

    Returns the manifest path.  An empty experiment list still succeeds
    and produces a manifest with an empty artifact list.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    for exp in experiments:
        sub = out / exp.name
        sub.mkdir(parents=True, exist_ok=True)
        try:
            written = _RUNNERS[exp.kind](exp, sub)
        except ConfigError:
            raise
        except (ValueError, MsmLabError) as err:
            raise MsmLabError(f"experiment {exp.name!r} ({exp.kind}) failed: {err}") from err
        artifacts.extend(f"{exp.name}/{name}" for name in written)
    return write_manifest(out, artifacts)


# -- defaults and entry point -------------------------------------------------

DEFAULT_EXPERIMENTS = {
    "evolve_map": {
        "kind": "evolve_map", "name": "evolve-smooth-bump",
        "grid": {"n": 64, "length": 1.0},
        "time": {"dt": 1.0e-5, "t_final": 5.0e-4},
        "preset": {"name": "smooth_bump", "params": {"amplitude": 0.6}},
        "options": {"store_every": 5},
    },
    "gauge_check": {
        "kind": "gauge_check", "name": "gauge-consistency",
        "grid": {"sizes": [64, 128], "length": 1.0},
        # Amplitude small enough that the chart's nonlinear harmonics are
        # resolved already at n = 64; the identities then converge 10-fold
        # or better on refinement instead of drowning in aliasing.
        "preset": {"name": "smooth_bump", "params": {"amplitude": 0.1, "width": 0.07}},
    },
    "msm_run": {
        "kind": "msm_run", "name": "msm-smooth-bump",
        "grid": {"n": 64, "length": 1.0},
        "time": {"dt": 1.0e-3, "t_final": 0.05},
        "preset": {"name": "smooth_bump", "params": {"amplitude": 0.5}},
    },
    "msm_oracle": {
        "kind": "msm_oracle", "name": "gauge-oracle-ladder",
        "grid": {"n": 32, "length": 1.0},
        "preset": {"name": "smooth_bump", "params": {"amplitude": 0.6}},
        "options": {"rungs": 3, "steps": 4},
    },
    "ratio_suite": {
        "kind": "ratio_suite", "name": "ratio-suite",
        "grid": {"n": 32, "length": 12.566370614359172},
        "options": {"nt": 64, "t_window": 4.0, "eps": 0.01, "s": 1.0, "n_trials": 6},
    },
    "multiplier_suite": {
        "kind": "multiplier_suite", "name": "multiplier-bounds",
        "options": {"modulus": 8, "n_pairs": 20, "restarts": 50},
    },
    "hasimoto_1d": {
        "kind": "hasimoto_1d", "name": "hasimoto-line",
        "grid": {"n": 256, "length": 6.283185307179586},
        "time": {"dt": 4.8e-5, "t_final": 2.88e-3},
        "preset": {"name": "random_seeded",
                   "params": {"band": 2, "amplitude": 0.4, "real": True}},
        "options": {"n_data": 3, "eta": 1.0, "soliton_n": 512, "soliton_length": 50.0},
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmlab",
        description="Experiment harness for Schrodinger-map dynamics, gauge "
                    "transforms, dispersive norms, and multiplier bounds.",
        epilog="MSMLAB_THREADS caps the worker pool of the ensemble suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "evolve": "integrate a map flow and record energy diagnostics",
        "gauge-check": "kinematic gauge identities across grid sizes",
        "msm": "evolve the gauged derivative-field system",
        "oracle": "residual ladder of gauge-transformed map trajectories",
        "ratios": "ensemble ratio experiments for the space-time estimates",
        "multipliers": "bracket multilinear multiplier norms on cyclic groups",
        "hasimoto": "1-D gauge transform: cubic-coefficient fits and soliton residual",
    }
    for command, kind in COMMAND_KINDS.items():
        p = sub.add_parser(command, help=help_lines[command])
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run config; defaults to a built-in experiment")
        p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed of every experiment")
        p.add_argument("--out", type=Path, default=Path("msmlab-out"),
                       help="output directory (default: msmlab-out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = COMMAND_KINDS[args.command]
    try:
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text())
            except OSError as err:
                raise ConfigError(f"cannot read config: {err}") from err
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
            experiments = parse_config(raw)
            selected = [e for e in experiments if e.kind == kind]
            skipped = len(experiments) - len(selected)
            if skipped:
                print(f"skipping {skipped} experiment(s) of other kinds")
        else:
            selected = parse_config({
                "version": CONFIG_VERSION,
                "experiments": [DEFAULT_EXPERIMENTS[kind]],
            })
        if args.seed is not None:
            selected = [replace(e, seed=args.seed) for e in selected]
        manifest = run_experiments(selected, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MsmLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"ran {len(selected)} experiment(s); manifest at {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
