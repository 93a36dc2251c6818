"""Config validation, experiment orchestration, and the command line."""

import json

import numpy as np
import pytest

from msmlab.cli import (
    CONFIG_VERSION,
    DEFAULT_EXPERIMENTS,
    ExperimentConfig,
    main,
    parse_config,
    run_experiments,
)
from msmlab.errors import ConfigError
from msmlab.storage import load_msm_state


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

    def test_defaults_are_valid(self):
        for kind, exp in DEFAULT_EXPERIMENTS.items():
            cfg = parse_config(wrap(exp))[0]
            assert cfg.kind == kind

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
        with pytest.raises(ConfigError, match="nonexistent"):
            run_experiments([cfg], tmp_path)

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = parse_config(wrap(TINY_MSM, TINY_MULT))
        run_experiments(cfg, tmp_path / "a")
        run_experiments(cfg, tmp_path / "b")
        for rel in ("tiny-msm/trace.csv", "tiny-msm/final_state.msmf",
                    "tiny-mult/multipliers.csv", "manifest.json"):
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
        assert "config error" in capsys.readouterr().err

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
        ({"terms": ["null", "septic"]}, "septic"),
        ({"terms": "null"}, "terms"),
        ({"dealias": "yes"}, "dealias"),
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

    @pytest.mark.parametrize("second,message", [
        (dict(TINY_MSM, preset={"name": "nope"}), "nope"),
        (dict(TINY_MSM, preset={"name": "smooth_bump", "params": {"wdth": 0.1}}), "wdth"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"],
              preset={"name": "smooth_bump", "params": {"wdth": 0.1}}), "wdth"),
        (dict(DEFAULT_EXPERIMENTS["evolve_map"], time={"dt": 0.5, "t_final": 1.0}),
         "contraction bound"),
        (dict(DEFAULT_EXPERIMENTS["hasimoto_1d"], time={"dt": 1e-3, "t_final": 2e-3}),
         "contraction bound"),
    ], ids=["msm-preset", "msm-param", "evolve-param", "evolve-dt", "hasimoto-dt"])
    def test_bad_preset_or_map_dt_exits_2_before_compute(self, tmp_path, capsys,
                                                         second, message):
        cfgfile = tmp_path / "run.json"
        first = dict(DEFAULT_EXPERIMENTS[second["kind"]], name="first")
        cfgfile.write_text(json.dumps(wrap(first, dict(second, name="second"))))
        out = tmp_path / "out"
        command = {"msm_run": "msm", "evolve_map": "evolve", "hasimoto_1d": "hasimoto"}
        assert main([command[second["kind"]], "--config", str(cfgfile),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err and "second" in err
        assert not out.exists()

    def test_module_failures_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        # Data far too large for the Picard iteration to contract at this dt.
        bad = dict(TINY_MSM, name="unstable", options={"scheme": "picard_duhamel"},
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
