"""Command-line experiment harness.

A run is described by a JSON document with a schema version and a list of
experiments; every experiment names its kind, grid, time stepping, data
preset, RNG seed and options.  ``OPTIONS`` holds each kind's options with
their defaults; :func:`parse_config` checks every value against it and
the preset tables, and asks the library's checks about the rules that
tie values together, before any experiment runs; the runners read the
resolved options by name.
Outputs are deterministic functions of the config (CSV tables and binary
snapshots under one directory, listed with SHA-256 checksums in
``manifest.json``), so rerunning a config reproduces every artifact byte
for byte.
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
from .errors import ChartUndefinedError, ConfigError, MsmLabError
from .gauge import (
    build_gauge_state,
    fit_nls_coefficient,
    hasimoto_1d,
    hasimoto_trajectory,
    soliton_nls_residual,
    verify_consistency,
)
from .maps import check_dt, energy, evolve as evolve_map, max_stable_dt
from .msm import (
    SolverConfig,
    _stored_states,
    hk_norm,
    mass,
    msm_residual_of_gauge_trajectory,
)
from .presets import MAP_PRESETS, MSM_PRESETS, check_params, map_preset, msm_preset, preset_params
from .spectral import Grid1D, Grid2D
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

# Each ratio suite's arity and its run on (trials, resolved options).  A suite's
# trials are seeded at the experiment's seed plus its position here.
_RATIO_RUNS = {
    "cubic": (3, lambda t, opt: xsb.ratio_test_cubic(t, _ratio_s(opt), opt["eps"])),
    "quintic": (5, lambda t, opt: xsb.ratio_test_quintic(t, opt["eps"])),
    "nullform": (4, lambda t, opt: xsb.ratio_test_nullform(t, opt["eps"])),
    "bilinear": (2, lambda t, opt: xsb.bilinear_embedding_test(t, opt["p"], opt["eps"])),
}
RATIO_SUITES = tuple(_RATIO_RUNS)

# Each kind's options with their defaults.  None marks a value worked out when
# unset: an oracle's dt0 from the finest rung's bound, a ratio suite's s as 100 eps.
OPTIONS = {
    "evolve_map": {"store_every": 1},
    "gauge_check": {},
    "msm_run": {"scheme": "strang_split", "store_every": 1},
    "msm_oracle": {"rungs": 3, "steps": 4, "dt0": None},
    "ratio_suite": {"nt": 64, "t_window": 4.0, "eps": 0.01, "s": None, "n_trials": 6,
                    "space_band": 5, "time_band": 10, "suites": RATIO_SUITES, "p": 1.0},
    "multiplier_suite": {"modulus": 8, "n_pairs": 20, "restarts": 50},
    "hasimoto_1d": {"n_data": 3, "eta": 1.0, "store_every": 1,
                    "soliton_n": 512, "soliton_length": 50.0},
}

# A time section must hold a whole number of steps to this relative
# tolerance; the runners step round(t_final / dt) times.
_STEP_COUNT_RTOL = 1e-9

# Kinds that step the map flow at the configured dt, with the grid they use.
_MAP_FLOW_GRIDS = {"evolve_map": Grid2D, "hasimoto_1d": Grid1D}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment; an option it does not set holds its OPTIONS default."""

    kind: str
    name: str
    seed: int = 0
    grid: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)
    preset: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "options", {**OPTIONS[self.kind], **self.options})


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} (allowed: {sorted(allowed)})")


def _check_section(section: dict, keys: tuple, where: str) -> None:
    """The section sets each of ``keys`` and no other: a missing key reads as None, refused."""
    check_params(dict.fromkeys(keys), {**dict.fromkeys(keys), **section},
                 lambda key: f"{where}.{key}")


def _validate_grid(kind: str, grid: dict, where: str) -> None:
    if kind != "gauge_check":
        _check_section(grid, ("n", "length"), where)
        return
    sizes = grid.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError(f"{where}.sizes must be a nonempty list")
    for n in sizes:
        check_params({"n": None}, {"n": n}, lambda key: f"{where}.sizes entry")
    _check_section({k: v for k, v in grid.items() if k != "sizes"}, ("length",), where)


def _ratio_s(options: dict) -> float:
    """The cubic suite's Sobolev index: ``s``, or xsb.default_index when not set."""
    return xsb.default_index(options["eps"]) if options["s"] is None else options["s"]


def _oracle_dt0_bound(grid: dict, rungs: int) -> float:
    """Largest oracle dt0: each rung halves dt and doubles n, and the midpoint
    bound falls as 1/n^2, so the finest rung's bound, scaled up exactly, binds."""
    scale = 2 ** (rungs - 1)
    return max_stable_dt(Grid2D(n=grid["n"] * scale, length=grid["length"])) * scale


def _ask(location: str, check, *args) -> None:
    """Run a library check on config values; its ValueError is a ConfigError at location."""
    try:
        check(*args)
    except ValueError as err:
        raise ConfigError(f"{location}: {err}") from err


def _validate_experiment(raw: dict, index: int) -> ExperimentConfig:
    where = f"experiment {index}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(raw, _SECTION_KEYS, where)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r} (one of {sorted(KINDS)})")
    name = raw.get("name", f"{kind}-{index}")
    if (not isinstance(name, str) or name in ("", ".", "..", "manifest.json")
            or any(c in name for c in "/\\\0")):
        raise ConfigError(f"{where}.name must be one plain path component other than "
                          f"'manifest.json', got {name!r}")
    where = f"experiment {index} ({name})"
    seed = raw.get("seed", 0)
    check_params({"seed": 0}, {"seed": seed}, lambda key: f"{where}.seed")

    for section in _REQUIRED_SECTIONS[kind]:
        if section not in raw:
            raise ConfigError(f"{where} needs a {section!r} section")
    for section in ("grid", "time", "preset"):
        if section in raw and section not in _REQUIRED_SECTIONS[kind]:
            raise ConfigError(f"{where}: kind {kind!r} takes no {section!r} section")

    for section in ("grid", "time", "preset", "options"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"{where}.{section} must be an object")
    grid = dict(raw.get("grid", {}))
    if "grid" in raw:
        _validate_grid(kind, grid, f"{where}.grid")
    time = dict(raw.get("time", {}))
    if "time" in raw:
        _check_section(time, ("dt", "t_final"), f"{where}.time")
        steps = time["t_final"] / time["dt"]
        if abs(steps - round(steps)) > _STEP_COUNT_RTOL * steps:
            raise ConfigError(
                f"{where}.time: t_final / dt = {steps:.12g} is not a whole number of steps"
            )
        steps = round(steps)
    preset = dict(raw.get("preset", {}))
    if "preset" in raw:
        _check_keys(preset, {"name", "params"}, f"{where}.preset")
        if not isinstance(preset.get("name"), str):
            raise ConfigError(f"{where}.preset.name must be a string")
        if not isinstance(preset.get("params", {}), dict):
            raise ConfigError(f"{where}.preset.params must be an object")
        table = MSM_PRESETS if kind == "msm_run" else MAP_PRESETS
        dim = _MAP_FLOW_GRIDS.get(kind, Grid2D).dim
        # A random band must fit the smallest grid the preset is built on:
        # the least of a gauge check's sizes, an oracle ladder's first rung.
        smallest = min(grid["sizes"]) if "sizes" in grid else grid["n"]
        try:
            preset_params(table, preset["name"], preset.get("params"), dim, n=smallest)
        except ConfigError as err:
            raise ConfigError(f"{where}.preset: {err}") from err
    check_params(OPTIONS[kind], raw.get("options"), lambda key: f"{where}.options.{key}")
    exp = ExperimentConfig(kind=kind, name=name, seed=seed, grid=grid, time=time,
                           preset=preset, options=dict(raw.get("options", {})))
    opt = exp.options

    if kind in _MAP_FLOW_GRIDS:
        _ask(f"{where}.time.dt", check_dt,
             _MAP_FLOW_GRIDS[kind](n=grid["n"], length=grid["length"]), time["dt"])
    # The last stored state is the run's "final" artifact, so it must be t_final's.
    if kind in ("msm_run", "evolve_map") and steps % opt["store_every"]:
        raise ConfigError(f"{where}.options.store_every = {opt['store_every']} does not divide "
                          f"the {steps} steps, so the final state would not be stored")
    if kind == "hasimoto_1d" and steps // opt["store_every"] < 2:
        raise ConfigError(f"{where}.options.store_every = {opt['store_every']} keeps fewer "
                          f"than the three snapshots a centered fit needs")
    if kind == "hasimoto_1d" and opt["n_data"] > 0:
        first = map_preset(Grid1D(n=grid["n"], length=grid["length"]), preset["name"],
                           preset.get("params"), seed=seed)
        try:
            mod_sq = np.abs(hasimoto_1d(first)) ** 2
        except ChartUndefinedError as err:
            raise ConfigError(f"{where}.preset: {err}") from err
        # A constant map has the gauge field u = 0, so this also refuses it.
        if np.ptp(mod_sq) <= 1e-12 * np.max(mod_sq):
            raise ConfigError(f"{where}.options.n_data = {opt['n_data']} asks for cubic fits of "
                              f"a gauge field of constant modulus, where the cubic coefficient "
                              f"cannot be identified")
    if kind == "msm_oracle" and opt["dt0"] is not None:
        scale = 2 ** (opt["rungs"] - 1)
        _ask(f"{where}.options.dt0 = {opt['dt0']:.3e} on the finest rung", check_dt,
             Grid2D(n=grid["n"] * scale, length=grid["length"]), opt["dt0"] / scale)
    if kind == "ratio_suite" and "cubic" in opt["suites"]:
        _ask(f"{where}.options.s", xsb.check_cubic, _ratio_s(opt), opt["eps"])
    if kind == "ratio_suite" and opt["n_trials"]:
        for key, size in (("space_band", grid["n"]), ("time_band", opt["nt"])):
            _ask(f"{where}.options.{key}", xsb.check_band, opt[key], size)
        ratio_grid = Grid2D(n=grid["n"], length=grid["length"])
        for suite in opt["suites"]:
            key = "s" if suite == "cubic" and opt["s"] is not None else "eps"
            _ask(f"{where}.options.{key}", xsb.check_weights, suite, ratio_grid, opt["nt"],
                 opt["t_window"], opt["space_band"], opt["eps"], opt["s"])
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
                      store_every=exp.options["store_every"])
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
        # The map is a temporary, freed once its gauge state exists.
        report = verify_consistency(build_gauge_state(
            map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)))
        rows.append([n, report.div_a, report.torsion, report.curvature,
                     report.harmonic_means[0], report.harmonic_means[1]])
    write_csv(out / "gauge_residuals.csv",
              ["n", "div_a", "torsion", "curvature", "mean_a1", "mean_a2"], rows)
    return ["gauge_residuals.csv"]


def _run_msm(exp: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid2D(n=exp.grid["n"], length=exp.grid["length"])
    state = msm_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed)
    opt = exp.options
    cfg = SolverConfig(dt=exp.time["dt"], t_final=exp.time["t_final"], scheme=opt["scheme"])
    # Each snapshot becomes its trace row, and the last one the saved state,
    # as it comes; dropping it before the run steps on leaves only the state
    # being stepped from alive.
    last = cfg.n_steps // opt["store_every"]
    rows = []
    for state in _stored_states(state, cfg, opt["store_every"]):
        rows.append([len(rows), state.t, mass(state), hk_norm(state, 1.0)])
        if len(rows) > last:
            save_msm_state(out / "final_state.msmf", state)
        del state
    write_csv(out / "trace.csv", ["index", "time", "mass", "h1_norm"], rows)
    return ["trace.csv", "final_state.msmf"]


def _run_oracle(exp: ExperimentConfig, out: Path) -> list[str]:
    n0, length = exp.grid["n"], exp.grid["length"]
    rungs, steps, dt0 = exp.options["rungs"], exp.options["steps"], exp.options["dt0"]
    if dt0 is None:
        dt0 = 0.8 * _oracle_dt0_bound(exp.grid, rungs)
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
    reports, extras = [], {}
    for offset, (suite, (arity, run)) in enumerate(_RATIO_RUNS.items()):
        if suite in opt["suites"]:
            trials = xsb.sample_trials(grid, opt["nt"], opt["t_window"], arity, opt["n_trials"],
                                       exp.seed + offset, opt["space_band"], opt["time_band"])
            suite_reports, suite_extras = run(trials, opt)
            reports += suite_reports
            extras.update(suite_extras)
    xsb.write_ratio_csv(reports, out / "ratios.csv")
    written = ["ratios.csv"]
    if extras:
        write_csv(out / "ratio_extras.csv", ["quantity", "value"], extras.items())
        written.append("ratio_extras.csv")
    return written


def _run_multipliers(exp: ExperimentConfig, out: Path) -> list[str]:
    opt = exp.options
    modulus, n_pairs, restarts = opt["modulus"], opt["n_pairs"], opt["restarts"]
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
    opt = exp.options
    rows = []
    for i in range(opt["n_data"]):
        mf = map_preset(grid, exp.preset["name"], exp.preset.get("params"), seed=exp.seed + i)
        traj = evolve_map(mf, dt, n_steps, store_every=opt["store_every"])
        fit = fit_nls_coefficient(hasimoto_trajectory(traj), traj.dt, grid)
        rows.append([f"data-{i}", fit.c, fit.residual])
    # Residual of the closed-form soliton, on a box wide enough that its
    # exponential tail clears the periodic seam.
    soliton_grid = Grid1D(n=opt["soliton_n"], length=opt["soliton_length"])
    rows.append(["soliton", NLS_CUBIC_COEF, soliton_nls_residual(soliton_grid, opt["eta"])])
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
        except ConfigError as err:
            raise ConfigError(f"experiment {exp.name!r} ({exp.kind}): {err}") from err
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
    },
    "ratio_suite": {
        "kind": "ratio_suite", "name": "ratio-suite",
        "grid": {"n": 32, "length": 12.566370614359172},
        "options": {"s": 1.0},
    },
    "multiplier_suite": {
        "kind": "multiplier_suite", "name": "multiplier-bounds",
    },
    "hasimoto_1d": {
        "kind": "hasimoto_1d", "name": "hasimoto-line",
        "grid": {"n": 256, "length": 6.283185307179586},
        "time": {"dt": 4.8e-5, "t_final": 2.88e-3},
        "preset": {"name": "random_seeded",
                   "params": {"band": 2, "amplitude": 0.4, "real": True}},
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmlab",
        description="Experiment harness for Schrodinger-map dynamics, gauge "
                    "transforms, dispersive norms, and multiplier bounds.",
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
            except (OSError, UnicodeDecodeError) as err:
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
            check_params({"seed": 0}, {"seed": args.seed}, lambda key: "--seed")
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
