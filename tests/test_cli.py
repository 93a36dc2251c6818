"""Config validation, experiment orchestration, and the command line."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from msmlab.cli import (
    COMMAND_KINDS,
    CONFIG_VERSION,
    DEFAULT_EXPERIMENTS,
    KINDS,
    OPTIONS,
    ExperimentConfig,
    main,
    parse_config,
    run_experiments,
)
from msmlab import msm, xsb
from msmlab.errors import ConfigError
from msmlab.maps import evolve as evolve_map, max_stable_dt
from msmlab.msm import SolverConfig, evolve, hk_norm, mass
from msmlab.presets import map_preset, msm_preset
from msmlab.spectral import Grid1D, Grid2D
from msmlab.storage import load_msm_state, write_csv
from memtrace import traced_peak


def wrap(*experiments):
    return {"version": CONFIG_VERSION, "experiments": list(experiments)}


TINY_MSM = {
    "kind": "msm_run", "name": "tiny-msm", "seed": 1,
    "grid": {"n": 16, "length": 1.0},
    "time": {"dt": 1e-3, "t_final": 3e-3},
    "preset": {"name": "random_seeded", "params": {"band": 2, "amplitude": 0.3}},
}

TINY_MULT = {
    "kind": "multiplier_suite", "name": "tiny-mult", "seed": 2,
    "options": {"modulus": 6, "n_pairs": 3, "restarts": 5},
}

TINY_RATIO = {
    "kind": "ratio_suite", "name": "tiny-ratio",
    "grid": {"n": 16, "length": 4.0},
    "options": {"nt": 32, "n_trials": 1, "suites": ["cubic"]},
}

TINY_EVOLVE = dict(DEFAULT_EXPERIMENTS["evolve_map"], grid={"n": 16, "length": 1.0},
                   time={"dt": 1e-4, "t_final": 4e-4}, options={"store_every": 2})

TINY_LINE = dict(DEFAULT_EXPERIMENTS["hasimoto_1d"], grid={"n": 32, "length": 6.28},
                 time={"dt": 1e-3, "t_final": 4e-3},
                 options={"n_data": 1, "soliton_n": 64, "soliton_length": 50.0})

TINY_ORACLE = dict(DEFAULT_EXPERIMENTS["msm_oracle"], grid={"n": 16, "length": 1.0})

CONSTANT_LINE = dict(TINY_LINE, preset={"name": "zero"},
                     options={**TINY_LINE["options"], "n_data": 0})
ZERO_RANDOM_LINE = {"name": "random_seeded", "params": {"band": 2, "amplitude": 0.0, "real": True}}

COMMANDS = {kind: command for command, kind in COMMAND_KINDS.items()}


def with_options(exp, **options):
    """exp with options set over its own."""
    return dict(exp, options={**exp.get("options", {}), **options})


# Boxes small enough in length that the 100 eps weights of the quintic and the
# null form overflow at the largest eps below.
QUINTIC_BOX = with_options(dict(TINY_RATIO, grid={"n": 16, "length": 0.01}), suites=["quintic"])
NULLFORM_BOX = with_options(dict(TINY_RATIO, grid={"n": 16, "length": 0.001}),
                            suites=["nullform"])
# n = 64 with bands (2, 4): the cubic product is formed on a 16-point grid, so
# that grid's corner, not the 64-point one's, sets its largest weight.
WIDE_RATIO = with_options(dict(TINY_RATIO, grid={"n": 64, "length": 4.0}),
                          space_band=2, time_band=4)


class TestParseConfig:
    def test_version_required_and_checked(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config({"experiments": []})
        with pytest.raises(ConfigError, match="version"):
            parse_config({"version": 99, "experiments": []})

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="despair"):
            parse_config({"version": 1, "experiments": [], "despair": True})
        exp = dict(TINY_MSM, extra_knob=1)
        with pytest.raises(ConfigError, match="extra_knob"):
            parse_config(wrap(exp))
        exp = dict(TINY_MSM, options={"turbo": True})
        with pytest.raises(ConfigError, match="turbo"):
            parse_config(wrap(exp))
        bad_grid = dict(TINY_MSM, grid={"n": 16, "length": 1.0, "warp": 2})
        with pytest.raises(ConfigError, match="warp"):
            parse_config(wrap(bad_grid))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="teleport"):
            parse_config(wrap({"kind": "teleport"}))

    def test_required_sections_enforced(self):
        missing_time = {k: v for k, v in TINY_MSM.items() if k != "time"}
        with pytest.raises(ConfigError, match="'time'"):
            parse_config(wrap(missing_time))

    def test_sections_forbidden_where_meaningless(self):
        exp = dict(TINY_MULT, time={"dt": 0.1, "t_final": 1.0})
        with pytest.raises(ConfigError, match="takes no 'time'"):
            parse_config(wrap(exp))

    def test_numeric_validation(self):
        bad_dt = dict(TINY_MSM, time={"dt": -1e-3, "t_final": 1.0})
        with pytest.raises(ConfigError, match="dt"):
            parse_config(wrap(bad_dt))
        bad_n = dict(TINY_MSM, grid={"n": 0, "length": 1.0})
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(wrap(bad_n))
        not_pow2 = dict(TINY_MSM, grid={"n": 48, "length": 1.0})
        with pytest.raises(ConfigError, match="grid.n.*power of two"):
            parse_config(wrap(not_pow2))
        gauge = {
            "kind": "gauge_check", "name": "g",
            "grid": {"sizes": [64, 48], "length": 1.0},
            "preset": {"name": "smooth_bump"},
        }
        with pytest.raises(ConfigError, match="sizes entry.*power of two"):
            parse_config(wrap(gauge))
        line = dict(DEFAULT_EXPERIMENTS["hasimoto_1d"], options={"soliton_n": 48})
        with pytest.raises(ConfigError, match="soliton_n.*power of two"):
            parse_config(wrap(line))
        bad_seed = dict(TINY_MSM, seed=-4)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(wrap(bad_seed))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(wrap(TINY_MSM, dict(TINY_MSM)))

    def test_gauge_check_uses_size_list(self):
        exp = {
            "kind": "gauge_check", "name": "g",
            "grid": {"sizes": [16, 32], "length": 1.0},
            "preset": {"name": "smooth_bump"},
        }
        cfg = parse_config(wrap(exp))[0]
        assert cfg.grid["sizes"] == [16, 32]
        with pytest.raises(ConfigError, match="sizes"):
            parse_config(wrap(dict(exp, grid={"sizes": [], "length": 1.0})))

    def test_unknown_ratio_suite_named(self):
        exp = {
            "kind": "ratio_suite", "name": "r",
            "grid": {"n": 16, "length": 4.0},
            "options": {"suites": ["cubic", "septic"]},
        }
        with pytest.raises(ConfigError, match="septic"):
            parse_config(wrap(exp))

    def test_time_must_hold_whole_steps(self):
        uneven = dict(TINY_MSM, time={"dt": 1e-3, "t_final": 2.5e-3})
        with pytest.raises(ConfigError, match="whole number of steps"):
            parse_config(wrap(uneven))
        # Rounding in t_final / dt (299.99999999999994 here) is not unevenness.
        assert 4.5e-3 / 1.5e-5 != 300
        parse_config(wrap(dict(TINY_MSM, time={"dt": 1.5e-5, "t_final": 4.5e-3})))

    def test_oracle_ladder_options_checked(self):
        oracle = dict(DEFAULT_EXPERIMENTS["msm_oracle"], grid={"n": 16, "length": 1.0})
        for options, message in (({"rungs": "3"}, "rungs"), ({"steps": 0}, "steps"),
                                 ({"dt0": -1.0}, "dt0"), ({"dt0": 0.5}, "dt0.*n = 64")):
            with pytest.raises(ConfigError, match=message):
                parse_config(wrap(dict(oracle, options=options)))
        # The finest rung, n = 64 at dt0 / 4, binds: dt0 may sit above the
        # coarse rung's own bound only by less than the factor 4 / 16.
        from msmlab.maps import max_stable_dt
        from msmlab.spectral import Grid2D

        limit = max_stable_dt(Grid2D(n=64, length=1.0))
        parse_config(wrap(dict(oracle, options={"dt0": 4 * limit})))
        with pytest.raises(ConfigError, match="dt0"):
            parse_config(wrap(dict(oracle, options={"dt0": 4.01 * limit})))

    def test_defaults_are_valid(self):
        for kind, exp in DEFAULT_EXPERIMENTS.items():
            cfg = parse_config(wrap(exp))[0]
            assert cfg.kind == kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_unset_options_resolve_to_the_table(self, kind):
        exp = {k: v for k, v in DEFAULT_EXPERIMENTS[kind].items() if k != "options"}
        assert parse_config(wrap(exp))[0].options == OPTIONS[kind]
        # A config built directly takes its defaults from the same table.
        direct = ExperimentConfig(kind=kind, name="direct", options={})
        assert direct.options == OPTIONS[kind]

    def test_default_experiments_restate_no_default(self):
        for kind, exp in DEFAULT_EXPERIMENTS.items():
            for key, value in exp.get("options", {}).items():
                assert value != OPTIONS[kind][key], (kind, key)

    def test_benchmark_workloads_parse(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for seed in range(16):
                parsed = parse_config(workloads.document(name, seed))
                assert parsed and all(e.seed == seed for e in parsed)

    @pytest.mark.parametrize("exp,resolved", [
        (dict(TINY_RATIO, options={"suites": ["bilinear"], "p": 1}), {"p": 1}),
        (dict(TINY_RATIO, options={"suites": ["bilinear"], "p": 2}), {"p": 2}),
        (dict(TINY_RATIO, options={"n_trials": 0}), {"n_trials": 0}),
        (TINY_RATIO, {"s": None, "eps": 0.01}),
        (dict(DEFAULT_EXPERIMENTS["msm_oracle"], grid={"n": 16, "length": 1.0}),
         {"dt0": None, "rungs": 3}),
    ], ids=["p-1", "p-2", "no-trials", "s-omitted", "dt0-omitted"])
    def test_option_boundaries_parse(self, exp, resolved):
        options = parse_config(wrap(exp))[0].options
        assert {key: options[key] for key in resolved} == resolved

    def test_name_defaults_to_kind_and_index(self):
        cfg = parse_config(wrap({k: v for k, v in TINY_MULT.items() if k != "name"}))[0]
        assert cfg.name == "multiplier_suite-0"


class TestRunExperiments:
    def test_empty_list_succeeds_with_empty_manifest(self, tmp_path):
        manifest_path = run_experiments([], tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["artifacts"] == []

    def test_msm_run_artifacts(self, tmp_path):
        cfg = parse_config(wrap(TINY_MSM))[0]
        manifest = json.loads(run_experiments([cfg], tmp_path).read_text())
        paths = [e["path"] for e in manifest["artifacts"]]
        assert paths == ["tiny-msm/final_state.msmf", "tiny-msm/trace.csv"]
        final = load_msm_state(tmp_path / "tiny-msm" / "final_state.msmf")
        assert final.t == pytest.approx(3e-3)
        trace = (tmp_path / "tiny-msm" / "trace.csv").read_text().splitlines()
        assert trace[0] == "index,time,mass,h1_norm"
        assert len(trace) == 5

    def test_msm_run_streams_its_trace(self, tmp_path):
        # The trace is built as the run yields its snapshots; it must match
        # the rows of msm.evolve's list.  Measured 17.2 fields; holding all
        # 9 stored states to the end reads 31.2.
        doc = dict(TINY_MSM, grid={"n": 128, "length": 1.0},
                   time={"dt": 1e-4, "t_final": 8e-4}, options={"store_every": 1})
        exps = parse_config(wrap(doc))
        run_experiments(exps, tmp_path / "warm")  # builds the cached propagator tables
        peak = traced_peak(lambda: run_experiments(exps, tmp_path / "run"))
        assert peak < 22 * 128**2 * np.dtype(complex).itemsize

        exp = exps[0]
        state = msm_preset(Grid2D(n=128, length=1.0), exp.preset["name"],
                           exp.preset["params"], seed=exp.seed)
        states = evolve(state, SolverConfig(dt=1e-4, t_final=8e-4))
        assert len(states) == 9
        write_csv(tmp_path / "expected.csv", ["index", "time", "mass", "h1_norm"],
                  [[i, st.t, mass(st), hk_norm(st, 1.0)] for i, st in enumerate(states)])
        trace = tmp_path / "run" / "tiny-msm" / "trace.csv"
        assert trace.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4"])
    def test_cold_msm_run_peak_in_complex_fields(self, tmp_path, scheme):
        # A cold run builds the propagator tables, and with store_every 4 a
        # runner that held each stored snapshot while stepping on would
        # hold one more pair.  Measured 16.5 (Strang) and 20.5 (ETDRK4)
        # fields; the tables built in one block of every |k|^2 and the held
        # snapshot read 22.2 and 24.7.
        doc = dict(TINY_MSM, grid={"n": 128, "length": 1.0}, time={"dt": 1e-4, "t_final": 8e-4},
                   options={"store_every": 4, "scheme": scheme})
        exps = parse_config(wrap(doc))
        msm._propagator_tables.cache_clear()
        peak = traced_peak(lambda: run_experiments(exps, tmp_path))
        assert peak < 22 * 128**2 * np.dtype(complex).itemsize

    def test_oracle_ladder_residual_decreases(self, tmp_path):
        cfg = ExperimentConfig(
            kind="msm_oracle", name="ladder", seed=0,
            grid={"n": 16, "length": 1.0},
            preset={"name": "smooth_bump", "params": {"amplitude": 0.4, "width": 0.09}},
            options={"rungs": 2, "steps": 2},
        )
        run_experiments([cfg], tmp_path)
        rows = (tmp_path / "ladder" / "oracle_ladder.csv").read_text().splitlines()[1:]
        final_column = [float(r.split(",")[-1]) for r in rows]
        assert len(final_column) == 2
        assert final_column[1] < final_column[0]

    def test_module_errors_carry_experiment_context(self, tmp_path):
        # parse_config rejects this preset, so build the experiment directly
        # to reach the run-time path.
        cfg = ExperimentConfig(
            kind="msm_run", name="tiny-msm", seed=1,
            grid={"n": 16, "length": 1.0},
            time={"dt": 1e-3, "t_final": 3e-3},
            preset={"name": "nonexistent"},
        )
        with pytest.raises(ConfigError, match="'tiny-msm' \\(msm_run\\).*nonexistent"):
            run_experiments([cfg], tmp_path)

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = parse_config(wrap(TINY_MSM, TINY_MULT))
        run_experiments(cfg, tmp_path / "a")
        run_experiments(cfg, tmp_path / "b")
        for rel in ("tiny-msm/trace.csv", "tiny-msm/final_state.msmf",
                    "tiny-mult/multipliers.csv", "manifest.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_map_flow_reruns_byte_identical(self, tmp_path):
        cfg = parse_config(wrap(TINY_EVOLVE, TINY_LINE))
        manifest = run_experiments(cfg, tmp_path / "a").read_bytes()
        assert run_experiments(cfg, tmp_path / "b").read_bytes() == manifest
        paths = [e["path"] for e in json.loads(manifest)["artifacts"]]
        assert paths == ["evolve-smooth-bump/final_map.msmf", "evolve-smooth-bump/trajectory.csv",
                         "hasimoto-line/hasimoto.csv"]
        for rel in paths:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_multiplier_bounds_ordered(self, tmp_path):
        cfg = parse_config(wrap(TINY_MULT))[0]
        run_experiments([cfg], tmp_path)
        rows = (tmp_path / "tiny-mult" / "multipliers.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            cells = row.split(",")
            lower, upper, counting = map(float, cells[-3:])
            assert lower <= upper + 1e-12
            assert upper <= counting + 1e-12

    def test_ratio_tables_keep_the_suite_order(self, tmp_path):
        # Suites run in their fixed order whatever order the config lists
        # them in, so both tables come out the same, byte for byte.
        for suites in (["cubic", "quintic", "nullform", "bilinear"],
                       ["bilinear", "cubic", "nullform", "quintic"]):
            options = {"nt": 32, "n_trials": 2, "suites": suites}
            run_experiments(parse_config(wrap(dict(TINY_RATIO, options=options))),
                            tmp_path / suites[0])
        a, b = tmp_path / "cubic" / "tiny-ratio", tmp_path / "bilinear" / "tiny-ratio"
        for name in ("ratios.csv", "ratio_extras.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        with open(a / "ratios.csv", newline="") as fh:
            assert [row["test_name"] for row in csv.DictReader(fh)] == [
                "cubic_conj2", "cubic_conj23", "cubic_plain", "quintic", "nullform",
                "bilinear_uv_p1", "bilinear_uconjv_p1", "bilinear_diag_p1"]
        with open(a / "ratio_extras.csv", newline="") as fh:
            extras = {row["quantity"]: float(row["value"]) for row in csv.DictReader(fh)}
        assert list(extras) == ["nullform_ibp_mismatch", "sup_l2_max_ratio", "sup_l2_cap"]
        assert extras["sup_l2_max_ratio"] <= extras["sup_l2_cap"]


# The cubic's s across its weight limit on two grids, and the quintic and null
# form across theirs on small boxes.
RATIO_LADDER = (
    [with_options(TINY_RATIO, s=s) for s in (20, 60, 90, 92, 100, 118, 124)]
    + [with_options(WIDE_RATIO, s=s) for s in (60, 100, 118, 120, 124)]
    + [with_options(exp, eps=eps)
       for exp in (QUINTIC_BOX, NULLFORM_BOX) for eps in (0.1, 0.15, 0.2, 0.24)]
)


def ladder_id(exp):
    opt = exp["options"]
    value = f"s{opt['s']}" if "s" in opt else f"eps{opt['eps']}"
    return f"{opt['suites'][0]}-n{exp['grid']['n']}-L{exp['grid']['length']}-{value}"


class TestParseAndRunAgree:
    @pytest.mark.parametrize("exp", RATIO_LADDER, ids=map(ladder_id, RATIO_LADDER))
    def test_parsed_ratio_config_writes_finite_positive_maxima(self, tmp_path, exp):
        # Refused before compute, or every max_ratio is finite and positive with
        # warnings as errors: a norm that overflowed or underflowed writes 0 or nan.
        try:
            exps = parse_config(wrap(exp))
        except ConfigError:
            return
        run_experiments(exps, tmp_path)
        with open(tmp_path / exp["name"] / "ratios.csv", newline="") as fh:
            maxima = [float(row["max_ratio"]) for row in csv.DictReader(fh)]
        assert maxima and all(0 < m < np.inf for m in maxima)

    def test_weights_are_judged_on_the_boxes_the_suite_weighs(self):
        # The library runs this to a cubic maximum of 5.4e-91; the grid's own
        # corner, which the cubic never weighs, would overflow at s = 100.
        parse_config(wrap(with_options(WIDE_RATIO, s=100)))


RATIO_GRID = Grid2D(n=16, length=4.0)  # TINY_RATIO's


def cubic_on_ratio_grid(s):
    trials = xsb.sample_trials(RATIO_GRID, 32, 4.0, 3, 1, 0, 5, 10)
    return xsb.ratio_test_cubic(trials, s, 0.01)


def map_flow_step(grid, exp, scale=1):
    """One step of the map flow at dt / scale from exp's preset on grid."""
    return lambda dt: evolve_map(
        map_preset(grid, exp["preset"]["name"], exp["preset"].get("params")), dt / scale, 1)


def time_section(exp):
    """exp stepped four times at dt."""
    return lambda dt: dict(exp, time={"dt": dt, "t_final": 4 * dt})


EVOLVE_LIMIT = max_stable_dt(Grid2D(n=16, length=1.0))
LINE_LIMIT = max_stable_dt(Grid1D(n=32, length=6.28))
FINEST_LIMIT = max_stable_dt(Grid2D(n=64, length=1.0))  # TINY_ORACLE's third rung

# Each moved rule: the config at a value, the library's own entry point at that
# value, the value refused and the one just inside.
ONE_RULE_CASES = {
    "cubic-s": (lambda s: with_options(TINY_RATIO, s=s), cubic_on_ratio_grid,
                5 * 0.01, np.nextafter(5 * 0.01, 1.0)),
    "space-band": (lambda band: with_options(TINY_RATIO, space_band=band),
                   lambda band: xsb.sample_trials(RATIO_GRID, 32, 4.0, 3, 1, 0, band, 10), 8, 7),
    "map-dt-2d": (time_section(TINY_EVOLVE), map_flow_step(Grid2D(n=16, length=1.0), TINY_EVOLVE),
                  1.01 * EVOLVE_LIMIT, EVOLVE_LIMIT),
    "map-dt-1d": (time_section(TINY_LINE), map_flow_step(Grid1D(n=32, length=6.28), TINY_LINE),
                  1.01 * LINE_LIMIT, LINE_LIMIT),
    "oracle-dt0": (lambda dt0: with_options(TINY_ORACLE, dt0=dt0),
                   map_flow_step(Grid2D(n=64, length=1.0), TINY_ORACLE, scale=4),
                   4.01 * FINEST_LIMIT, 4 * FINEST_LIMIT),
    "weights": (lambda s: with_options(TINY_RATIO, s=s), cubic_on_ratio_grid, 100.0, 90.0),
}


@pytest.mark.parametrize("rule", list(ONE_RULE_CASES))
def test_library_and_parse_config_refuse_the_same_value(rule):
    config, library, refused, inside = ONE_RULE_CASES[rule]
    with pytest.raises(ValueError):
        library(refused)
    with pytest.raises(ConfigError):
        parse_config(wrap(config(refused)))
    library(inside)
    parse_config(wrap(config(inside)))


class TestMain:
    def test_runs_config_and_reports(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(TINY_MSM)))
        code = main(["msm", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "1 experiment" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_filters_other_kinds(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(TINY_MSM, TINY_MULT)))
        code = main(["multipliers", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping 1 experiment" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert all(e["path"].startswith("tiny-mult/") for e in manifest["artifacts"])

    def test_seed_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(TINY_MULT)))
        main(["multipliers", "--config", str(cfgfile), "--out", str(tmp_path / "a"),
              "--seed", "7"])
        main(["multipliers", "--config", str(cfgfile), "--out", str(tmp_path / "b"),
              "--seed", "7"])
        main(["multipliers", "--config", str(cfgfile), "--out", str(tmp_path / "c"),
              "--seed", "8"])
        rel = "tiny-mult/multipliers.csv"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert (tmp_path / "a" / rel).read_bytes() != (tmp_path / "c" / rel).read_bytes()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        missing = main(["msm", "--config", str(tmp_path / "nope.json")])
        assert missing == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["msm", "--config", str(bad)]) == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 3, "experiments": []}))
        assert main(["msm", "--config", str(wrong)]) == 2
        undecodable = tmp_path / "utf16.json"
        undecodable.write_bytes(b"\xff\xfe{}")
        assert main(["msm", "--config", str(undecodable)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["multipliers", "ratios"])
    def test_negative_seed_flag_exits_2_before_compute(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert "config error: --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", [".", "..", "manifest.json", "a/b", "a\\b", "a\0b"],
                             ids=["dot", "dot-dot", "manifest", "slash", "backslash", "nul"])
    def test_name_not_one_plain_component_exits_2_before_compute(self, tmp_path, capsys, name):
        # The run directory holds only the config: nothing is written in or above --out.
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(dict(TINY_MULT, name=name))))
        assert main(["multipliers", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and ".name must be one plain path component" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_bad_grid_in_later_experiment_exits_2_before_compute(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        second = dict(TINY_MSM, name="second", grid={"n": 48, "length": 1.0})
        cfgfile.write_text(json.dumps(wrap(TINY_MSM, second)))
        out = tmp_path / "out"
        assert main(["msm", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "power of two" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("options,message", [
        ({"scheme": "rk45"}, "scheme"),
        ({"scheme": "picard_duhamel"}, "one of ('strang_split', 'etd_rk4')"),
        # A step evaluates all four terms under the 2/3 rule, so neither
        # key is an option, whatever its value.
        ({"terms": ["null", "septic"]}, "terms"),
        ({"terms": "null"}, "options.terms is unknown"),
        ({"terms": ["null"]}, "options.terms is unknown"),
        ({"dealias": "yes"}, "options.dealias is unknown"),
        ({"dealias": False}, "options.dealias is unknown"),
    ])
    def test_bad_solver_options_exit_2_before_compute(self, tmp_path, capsys, options, message):
        cfgfile = tmp_path / "run.json"
        second = dict(TINY_MSM, name="second", options=options)
        cfgfile.write_text(json.dumps(wrap(TINY_MSM, second)))
        out = tmp_path / "out"
        assert main(["msm", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err and "second" in err
        assert not out.exists()

    @pytest.mark.parametrize("first,bad,key", [
        (TINY_EVOLVE, {"store_every": 0}, "store_every"),
        (TINY_MSM, {"store_every": 0}, "store_every"),
        (TINY_RATIO, {"eps": "x"}, "eps"),
        (TINY_RATIO, {"eps": 0}, "eps"),
        (dict(TINY_RATIO, options={"suites": ["quintic", "bilinear"]}), {"eps": -0.01}, "eps"),
        # At eps >= 1/4 the numerator's b = -1/2 + 2 eps is no longer negative.
        (TINY_RATIO, {"eps": 0.25}, "eps"),
        (TINY_RATIO, {"eps": 0.3}, "eps"),
        (dict(TINY_RATIO, options={"suites": ["quintic", "bilinear"]}), {"eps": 1e307}, "eps"),
        # <xi>^2s overflows on the factors' own mode box at n = 16.
        (TINY_RATIO, {"s": 1000}, "s"),
        # Finite factor norms whose product overflows: the cubic's three are
        # about 5e107 each, and the quintic's and null form's 100 eps weights
        # are large on boxes this short.
        (TINY_RATIO, {"s": 100}, "s"),
        (QUINTIC_BOX, {"eps": 0.2}, "eps"),
        (NULLFORM_BOX, {"eps": 0.24}, "eps"),
        (TINY_LINE, {"eta": "a"}, "eta"),
        (TINY_LINE, {"eta": 0}, "eta"),
        (TINY_RATIO, {"nt": 48}, "nt"),
        (TINY_RATIO, {"s": 0.01}, "s"),
        (TINY_RATIO, {"suites": ["bilinear"], "p": 3}, "p"),
        (TINY_RATIO, {"space_band": 9}, "space_band"),
        (TINY_RATIO, {"time_band": 20}, "time_band"),
        (TINY_MULT, {"restarts": 0}, "restarts"),
        (TINY_MULT, {"modulus": 1}, "modulus"),
        (TINY_MULT, {"modulus": 2000}, "modulus"),
        (TINY_LINE, {"soliton_length": -1}, "soliton_length"),
        # Too few stored snapshots for the centered differences.
        (DEFAULT_EXPERIMENTS["msm_oracle"], {"steps": 1}, "steps"),
        (TINY_LINE, {"store_every": 3}, "store_every"),
        # Cubic fits of a constant map; without data the soliton row alone runs.
        (CONSTANT_LINE, {"n_data": 1}, "n_data"),
        (dict(CONSTANT_LINE, preset={"name": "single_mode", "params": {"amplitude": 0.0}}),
         {"n_data": 2}, "n_data"),
        (dict(CONSTANT_LINE, preset=ZERO_RANDOM_LINE), {"n_data": 1}, "n_data"),
        # A single mode is a plane-wave gauge field: constant modulus, no cubic fit.
        (dict(CONSTANT_LINE, preset={"name": "single_mode"}), {"n_data": 1}, "n_data"),
    ], ids=["evolve-store-every", "msm-store-every", "ratio-eps-text", "ratio-eps-zero",
            "ratio-eps-negative", "ratio-eps-quarter", "ratio-eps-above-quarter",
            "ratio-eps-huge", "ratio-s-overflow", "ratio-cubic-norms-overflow",
            "ratio-quintic-norms-overflow", "ratio-nullform-norms-overflow", "hasimoto-eta-text",
            "hasimoto-eta-zero", "ratio-nt", "ratio-cubic-s", "ratio-p", "ratio-space-band",
            "ratio-time-band", "mult-restarts", "mult-modulus-1", "mult-modulus-2000",
            "hasimoto-soliton-length", "oracle-steps-1", "hasimoto-two-snapshots",
            "hasimoto-zero-preset", "hasimoto-zero-amplitude", "hasimoto-zero-real-chart",
            "hasimoto-single-mode"])
    def test_bad_option_exits_2_before_compute(self, tmp_path, capsys, first, bad, key):
        cfgfile = tmp_path / "run.json"
        second = dict(first, name="second", options={**first.get("options", {}), **bad})
        cfgfile.write_text(json.dumps(wrap(dict(first, name="first"), second)))
        out = tmp_path / "out"
        assert main([COMMANDS[first["kind"]], "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"options.{key}" in err and "second" in err
        assert not out.exists()

    @pytest.mark.parametrize("first,store_every", [(TINY_MSM, 2), (TINY_EVOLVE, 3)],
                             ids=["msm", "evolve"])
    def test_store_every_must_reach_t_final(self, tmp_path, capsys, first, store_every):
        # A stride that skips the last step would store an earlier state as the final one.
        steps = round(first["time"]["t_final"] / first["time"]["dt"])
        second = dict(first, name="second", options={"store_every": store_every})
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(dict(first, name="first"), second)))
        out = tmp_path / "out"
        assert main([COMMANDS[first["kind"]], "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"options.store_every = {store_every}" in err and f"the {steps} steps" in err
        assert "second" in err and not out.exists()

    @pytest.mark.parametrize("second,message", [
        (dict(TINY_MSM, preset={"name": "nope"}), "nope"),
        (dict(TINY_MSM, preset={"name": "smooth_bump", "params": {"wdth": 0.1}}), "wdth"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"],
              preset={"name": "smooth_bump", "params": {"wdth": 0.1}}), "wdth"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"], time={"dt": 0.5, "t_final": 1.0}),
         "contraction bound"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"], time={"dt": 1e-3, "t_final": 2e-3}),
         "contraction bound"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "single_mode", "params": {"k": [1, 2]}}), "'k'"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "single_mode", "params": {"amplitude": "big"}}), "'amplitude'"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "random_seeded", "params": {"band": 300}}), "'band' = 300"),
        (dict(TINY_MSM, preset={"name": "random_seeded", "params": {"band": 8}}),
         "'band' = 8"),
        (dict(DEFAULT_EXPERIMENTS["gauge_check"], grid={"sizes": [64, 16], "length": 1.0},
              preset={"name": "random_seeded", "params": {"band": 8}}), "n = 16"),
        (dict(DEFAULT_EXPERIMENTS["msm_oracle"],
              preset={"name": "random_seeded", "params": {"band": 16}}), "n = 32"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"],
              preset={"name": "smooth_bump", "params": {"width": 0}}), "'width'"),
        (dict(TINY_MSM, preset={"name": "smooth_bump", "params": {"width": -0.1}}), "'width'"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "near_north_pole", "params": {"distance": -1}}), "'distance'"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "near_north_pole", "params": {"distance": 2.5}}), "'distance'"),
        # The cubic fits need the chart of the first map, which fails at the pole.
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"],
              preset={"name": "near_north_pole", "params": {"distance": 1e-14}}), "north pole"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"],
              preset={"name": "smooth_bump", "params": {"amplitude": float("nan")}}),
         "'amplitude'"),
        (dict(TINY_MSM, preset={"name": "single_mode", "params": {"amplitude": float("inf")}}),
         "'amplitude'"),
    ], ids=["msm-preset", "msm-param", "evolve-param", "evolve-dt", "hasimoto-dt",
            "hasimoto-k-pair", "hasimoto-amplitude-text", "hasimoto-band", "msm-band",
            "gauge-band-smallest-size", "oracle-band-first-rung", "evolve-width-zero",
            "msm-width-negative", "hasimoto-distance-negative", "hasimoto-distance-past-pole",
            "hasimoto-chart-at-pole", "evolve-amplitude-nan", "msm-amplitude-inf"])
    def test_bad_preset_or_map_dt_exits_2_before_compute(self, tmp_path, capsys,
                                                         second, message):
        cfgfile = tmp_path / "run.json"
        first = dict(DEFAULT_EXPERIMENTS[second["kind"]], name="first")
        cfgfile.write_text(json.dumps(wrap(first, dict(second, name="second"))))
        out = tmp_path / "out"
        command = {"msm_run": "msm", "evolve_map": "evolve", "hasimoto_1d": "hasimoto",
                   "gauge_check": "gauge-check", "msm_oracle": "oracle"}
        assert main([command[second["kind"]], "--config", str(cfgfile),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err and "second" in err
        assert not out.exists()

    def test_oracle_dt0_above_finest_bound_exits_2_before_compute(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        first = dict(DEFAULT_EXPERIMENTS["msm_oracle"], name="first")
        second = dict(first, name="second", grid={"n": 16, "length": 1.0},
                      options={"dt0": 0.5})
        cfgfile.write_text(json.dumps(wrap(first, second)))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dt0" in err and "second" in err
        assert not out.exists()

    def test_uneven_steps_exit_2_before_compute(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        second = dict(TINY_MSM, name="second", time={"dt": 1e-3, "t_final": 2.5e-3})
        cfgfile.write_text(json.dumps(wrap(TINY_MSM, second)))
        out = tmp_path / "out"
        assert main(["msm", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "whole number of steps" in err and "second" in err
        assert not out.exists()

    def test_thread_variable_is_not_read(self, tmp_path, monkeypatch):
        # The suites run serially; a value that once named a worker count changes nothing.
        assert main(["multipliers", "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("MSMLAB_THREADS", "two")
        assert main(["multipliers", "--out", str(tmp_path / "set")]) == 0
        manifest = (tmp_path / "plain" / "manifest.json").read_bytes()
        assert (tmp_path / "set" / "manifest.json").read_bytes() == manifest

    def test_module_failures_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        # Data far too large for ETDRK4 to stay finite at this dt.
        bad = dict(TINY_MSM, name="unstable", options={"scheme": "etd_rk4"},
                   preset={"name": "random_seeded",
                           "params": {"band": 2, "amplitude": 300.0}})
        cfgfile.write_text(json.dumps(wrap(bad)))
        code = main(["msm", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'unstable'" in err and "at step 1, t=0.001" in err

    def test_blowup_exits_1_naming_experiment_and_step(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        hot = dict(TINY_MSM, name="hot", time={"dt": 0.01, "t_final": 1.0},
                   preset={"name": "random_seeded", "params": {"band": 3, "amplitude": 300.0}})
        cfgfile.write_text(json.dumps(wrap(hot)))
        assert main(["msm", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'hot'" in err and "blew up at step" in err

    @pytest.mark.parametrize("exp", [TINY_EVOLVE, TINY_LINE, TINY_ORACLE],
                             ids=["evolve", "hasimoto", "oracle"])
    def test_stalled_midpoint_exits_1_naming_experiment_and_step(self, tmp_path, capsys,
                                                                 monkeypatch, exp):
        import msmlab.maps as maps
        from msmlab.cli import _oracle_dt0_bound

        monkeypatch.setattr(maps, "MIDPOINT_MAX_ITERS", 1)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap(exp)))
        out = tmp_path / "out"
        assert main([COMMANDS[exp["kind"]], "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        rungs = OPTIONS["msm_oracle"]["rungs"]
        dt = exp["time"]["dt"] if "time" in exp else 0.8 * _oracle_dt0_bound(exp["grid"], rungs)
        assert f"'{exp['name']}'" in err and "midpoint iteration stalled" in err
        assert f"at step 1, t={dt:.6g}\n" in err

    def test_empty_config_succeeds(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(wrap()))
        code = main(["ratios", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["artifacts"] == []


class TestHasimotoExperiment:
    def test_fit_rows_and_soliton_row(self, tmp_path):
        cfg = ExperimentConfig(
            kind="hasimoto_1d", name="line", seed=3,
            grid={"n": 64, "length": float(2 * np.pi)},
            time={"dt": 4e-4, "t_final": 8e-3},
            preset={"name": "random_seeded",
                    "params": {"band": 1, "amplitude": 0.3, "real": True}},
            options={"n_data": 2, "eta": 1.0, "soliton_n": 256, "soliton_length": 50.0},
        )
        run_experiments([cfg], tmp_path)
        rows = (tmp_path / "line" / "hasimoto.csv").read_text().splitlines()
        assert rows[0] == "label,cubic_coefficient,residual"
        body = [r.split(",") for r in rows[1:]]
        assert [r[0] for r in body] == ["data-0", "data-1", "soliton"]
        for label, c, resid in body[:2]:
            assert float(c) == pytest.approx(2.0, abs=0.05)
        assert float(body[2][2]) < 1e-8
