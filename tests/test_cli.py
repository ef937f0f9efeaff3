import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ddrobust import (
    CeLqrMap,
    TrainingData,
    bounds,
    cli,
    collect,
    ctrlmaps,
    fd_jacobian,
    random_support,
)


FAST_CONFIG = {
    "system": {"name": "vehicle", "ts": 0.1},
    "t_steps": 60,
    "map": {"name": "ce-lqr"},
    "support": {"k": 8},
    "sigma": {"grid": [1e-4, 1e-2]},
    "trials": 30,
    "mode": "first-order",
    "seed": 7,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run(argv):
    return cli.main(argv)


class TestArgumentParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["-h"])
        assert excinfo.value.code == 0
        assert "fig1: Bounds-versus-Monte-Carlo sweep" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        assert run([]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["collect", "--bogus"], ["mc", "--trials", "abc"],
        ["bounds", "--sigma", "abc"], ["mc", "--mode", "bogus"],
        ["jacobian", "--b-source", "bogus"],
    ], ids=["no-command", "unknown-command", "unknown-flag", "trials-abc", "sigma-abc",
            "mode-bogus", "b-source-bogus"])
    def test_usage_error_exits_2_with_one_line(self, tmp_path, capsys, argv):
        # Every usage error takes the one failure path of every command.
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ddrobust: error: ConfigError: ")
        assert not (tmp_path / "o").exists()

    def test_a_flag_holds_for_its_call_only(self, tmp_path, monkeypatch):
        # One parser serves every call of the process.
        trials = []
        load = cli.load_config
        monkeypatch.setattr(cli, "load_config",
                            lambda args: trials.append(args.trials) or load(args))
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = str(tmp_path / "o")
        assert run(["collect", "--config", cfg, "--out", out, "--trials", "5"]) == 0
        assert run(["collect", "--config", cfg, "--out", out]) == 0
        assert trials == [5, None]
        assert cli.build_parser() is cli.build_parser()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"sigmas": {"value": 1.0}})
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "sigmas" in err

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"trials": 0})
        assert run(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["collect", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "config must be a JSON object"),
        (json.dumps({"system": {"name": "cartpole"}}), "unknown builtin system 'cartpole'"),
        (json.dumps({"map": {"name": "ce-lqr", "hyperparameters": {"q": [[1.0]]}}}),
         "config key map: ce-lqr needs both q and r when weights are given"),
    ], ids=["not-object", "builtin-system", "q-without-r"])
    def test_config_refusal_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        path.write_text(content)
        assert run(["collect", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"ddrobust: error: ConfigError: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_built_in_code_checks_the_mode(self):
        # A config built in code is checked as one read from JSON.
        with pytest.raises(cli.ConfigError, match="^mode must be exact or first-order, "
                                                  "got 'bogus'$"):
            cli.ExperimentConfig(mode="bogus")

    def test_config_refuses_the_mc_name_of_a_mode(self):
        # first_order, the mode as mc.csv writes it, is not a config spelling,
        # and it is refused once.
        with pytest.raises(cli.ConfigError, match="^mode must be exact or first-order, "
                                                  "got 'first_order'$"):
            cli.ExperimentConfig(mode="first_order")

    @pytest.mark.parametrize("mode", ["exact", "first-order"])
    def test_config_holds_the_mode_as_spelt(self, mode):
        cfg = cli.ExperimentConfig(mode=mode)
        assert cfg.mode == mode
        assert cli.ExperimentConfig.from_json({"mode": mode}) == cfg
        assert replace(cfg, trials=7).mode == mode
        assert replace(cli.ExperimentConfig(), mode=mode) == cfg

    def test_unknown_map_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"map": {"name": "sdp"}})
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: config key map: unknown controller map 'sdp'\n")

    @pytest.mark.parametrize("override", [
        {"system": 5}, {"trials": None}, {"sigma": {"grid": 5}}, {"t_list": 5},
        {"support": {"k": None}}, {"trials": 2.5}, {"seed": "3"}, {"trials": True},
        {"map": {"hyperparameters": {"q": "abc"}}},
    ], ids=["system", "trials", "sigma-grid", "t-list", "support-k", "float-trials",
            "string-seed", "bool-trials", "string-weights"])
    def test_mistyped_value_exits_2_with_one_line(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # The message names the dotted key, e.g. support.k.
        key, value = next(iter(override.items()))
        while isinstance(value, dict):
            subkey, value = next(iter(value.items()))
            key = f"{key}.{subkey}"
        assert err.startswith(f"ddrobust: error: TypeError: config key {key} must be ")

    @pytest.mark.parametrize("override, flags", [({"seed": -1}, []), ({}, ["--seed", "-1"])],
                             ids=["key", "flag"])
    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys, override, flags):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: config key seed must be >= 0, got -1\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, key", [
        ({"sigma": {"log_range": [1]}}, "sigma.log_range"),
        ({"sigma": {"log_range": [1e-3, 0.1, 1.0]}}, "sigma.log_range"),
        ({"system": {"a": [[0.5, 0.1], [0.2]], "b": [[0.0], [1.0]]}}, "system.a"),
        ({"system": {"a": [[0.5, 0.1], [0.2, 0.3]], "b": [[0.0], [1.0, 0.0]]}}, "system.b"),
        ({"system": {"a": [], "b": [[1.0]]}}, "system.a"),
        ({"system": {"a": [[]], "b": [[]]}}, "system.a"),
        ({"system": {"a": [[0.5]], "b": [[]]}}, "system.b"),
        ({"sigma": {"value": math.nan}}, "sigma.value"),
        ({"sigma": {"grid": [0.1, math.inf]}}, "sigma.grid"),
        ({"sigma": {"log_range": [1e-3, math.inf]}}, "sigma.log_range"),
        ({"system": {"name": "vehicle", "ts": math.nan}}, "system.ts"),
        ({"system": {"a": [[-math.inf]], "b": [[1.0]]}}, "system.a"),
        ({"map": {"hyperparameters": {"q": [[math.nan]], "r": [[1.0]]}}},
         "map.hyperparameters.q"),
        ({"map": {"hyperparameters": {"q": [[1.0]], "r": [[1.0], [2.0, 3.0]]}}},
         "map.hyperparameters.r"),
    ], ids=["short-log-range", "long-log-range", "ragged-a", "ragged-b", "empty-a",
            "empty-rows", "empty-b-rows", "nan-sigma-value", "inf-sigma-grid",
            "inf-log-range", "nan-ts", "inf-a", "nan-weights", "ragged-weights"])
    def test_misshapen_value_exits_2_with_one_line(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ddrobust: error: ConfigError: config key {key} must ")

    @pytest.mark.parametrize("override, message", [
        ({"sigma": {"log_range": [1, 0.1]}},
         "sigma.log_range must have 0 < lo < hi, got [1.0, 0.1]"),
        ({"sigma": {"log_range": [0.1, 1], "points": 1}}, "sigma.points must be >= 2, got 1"),
        ({"sigma": {"grid": [0.1, 0]}},
         "sigma.grid must be nonempty, positive and finite, got [0.1, 0.0]"),
        ({"sigma": {"grid": []}}, "sigma.grid must be nonempty, positive and finite, got []"),
        # A single value is checked as the one-point grid it becomes.
        ({"sigma": {"value": -1}},
         "sigma.grid must be nonempty, positive and finite, got [-1.0]"),
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"fig2_trials": 0}, "fig2_trials must be >= 1, got 0"),
        ({"t_steps": 0}, "t_steps must be >= 1, got 0"),
        ({"n_experiments": 0}, "n_experiments must be >= 1, got 0"),
        ({"support": {}}, "support needs exactly one of k or indices, got none"),
        ({"support": {"k": 3, "indices": [1]}},
         "support needs exactly one of k or indices, got k, indices"),
        ({"support": {"k": 0}}, "support.k must be >= 1, got 0"),
        # The support rule and its messages are lti.as_support's.
        ({"support": {"indices": [3, 3]}},
         "support.indices: support indices must be distinct, got [3, 3]"),
        ({"support": {"indices": [-1]}},
         "support.indices: support indices must index vec(X), got [-1]"),
        ({"support": {"indices": []}}, "support.indices: perturbation support must be nonempty"),
        ({"t_list": [100, 0]}, "t_list must be nonempty positive integers, got [100, 0]"),
    ], ids=["log-range-order", "points", "sigma-grid", "empty-sigma-grid", "sigma-value",
            "trials", "fig2-trials", "t-steps", "n-experiments", "support-none",
            "support-both", "support-k", "support-indices-repeated",
            "support-indices-negative", "support-indices-empty", "t-list"])
    def test_range_error_names_its_key(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: config key {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sigma, got", [
        ({"grid": [0.1], "points": 5}, "grid, points"),
        ({"value": 0.2, "grid": [0.1, 0.3]}, "grid, value"),
        ({"log_range": [0.01, 1], "value": 0.5}, "log_range, value"),
    ], ids=["grid-points", "value-grid", "log-range-value"])
    def test_sigma_of_two_forms_exits_2_with_one_line(self, tmp_path, capsys, sigma, got):
        cfg = write_config(tmp_path, FAST_CONFIG | {"sigma": sigma})
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: config key sigma needs one of grid, log_range "
            f"(with optional points) or value, got {got}\n")

    @pytest.mark.parametrize("override, flags", [
        ({"mode": "first_order"}, []), ({}, ["--mode", "first_order"])], ids=["key", "flag"])
    def test_mode_has_one_spelling(self, tmp_path, capsys, override, flags):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: mode must be exact or first-order, "
            "got 'first_order'\n")

    @pytest.mark.parametrize("command", ["collect", "design"])
    @pytest.mark.parametrize("system, message", [
        ({"name": "vehicle", "ts": 0}, "sampling time must be positive"),
        ({"a": [[0.5, 0.1, 0.0], [0.2, 0.3, 0.0]], "b": [[1.0], [0.0]]},
         "A must be square, got (2, 3)"),
        ({"a": [[0.5]], "b": [[1.0], [0.0]]}, "B has 2 rows but A is 1x1"),
    ], ids=["zero-ts", "non-square-a", "b-rows"])
    def test_malformed_plant_exits_2_at_load(self, tmp_path, capsys, command, system,
                                             message):
        # Refused with the config, before design looks for data.json.
        cfg = write_config(tmp_path, {"system": system})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: config key system: {message}\n")
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command, support, message", [
        ("jacobian", {"k": 500},
         "support.k: cannot pick 500 distinct indices out of vec(X) of length 240"),
        ("jacobian", {"indices": [0, 999]},
         "support.indices: support indices must index vec(X) of length 240, got [0, 999]"),
        ("fig2", {"k": 500},
         "support.k: cannot pick 500 distinct indices out of vec(X) of length 80"),
        ("fig2", {"indices": list(range(81))}, "support.indices: support indices must index "
         f"vec(X) of length 80, got {list(range(81))}"),
    ], ids=["k", "indices", "fig2-k", "fig2-indices"])
    def test_support_outside_vec_x_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                         support, message):
        doc = FAST_CONFIG | {"support": support, "t_list": [20], "fig2_trials": 1}
        cfg, out = write_config(tmp_path, doc), str(tmp_path / "o")
        assert run(["collect", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: config key {message}\n")


def test_csv_cells_are_str_at_full_precision(tmp_path):
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ["cells"], [[
        np.float64(0.1), 0.1, 1e16, 2.2e-16, -0.0, math.nan, math.inf,
        np.bool_(True), True, np.int64(5), 7, "first_order"]])
    assert path.read_text(encoding="utf-8") == (
        "cells\n0.1,0.1,1e+16,2.2e-16,-0.0,nan,inf,True,True,5,7,first_order\n")


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [[1.0], []], [[1.0], 2.0], [1.0, [2.0, 3.0]], [[[1.0]]], [[], []],
    [[1.0, 2.0], [3.0]], math.nan, [math.nan, math.inf, -math.inf], [[math.inf], [-0.0]],
    -0.0, 1e-300, [-0.0, 1e-300, 5e-324, 1.7976931348623157e308], [1, -2, 10**20],
    [True, False, None, 0, 1.5], [[1, True], [None, 2.5]], (1.0, (2.0, 3.0)),
    ["a, b", "[", "]", '"', "x], [y", "tempér ✓ 日本"], [["a, b"], ["c"]],
    [{"b": 1.0, "a": [1.0, 2.0]}, {}, {"c": [[1.0], [2.0, 3.0]]}],
    {"u": [[0.25, -1.5]], "nested": {"deeper": [[[1.0, 2.0]], []]}, "é": "ü"},
], ids=repr)
def test_write_json_is_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    cli._write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_write_json_refuses_a_key_that_is_not_str(tmp_path):
    with pytest.raises(TypeError, match="keys must be strings, got 1"):
        cli._write_json(tmp_path / "doc.json", {"rows": [{1: 2.0}]})
    assert not (tmp_path / "doc.json").exists()


def test_eps_floor_value():
    assert cli.EPS_FLOOR == 2.2e-16


def run_stages(cfg, out):
    for command in ("collect", "design", "jacobian", "bounds", "mc"):
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
    return out


class TestCommandChain:
    @pytest.fixture()
    def out(self, tmp_path):
        return run_stages(write_config(tmp_path, FAST_CONFIG), tmp_path / "run")

    def test_rerun_is_byte_identical_in_one_json_format(self, tmp_path):
        # A first-order chain, an exact one, and an exact one on a record of two experiments.
        for run_name, override in (("first-order", {}), ("exact", {"mode": "exact"}), (
                "two-experiments",
                {"n_experiments": 2, "t_steps": 30, "support": {"k": 6}, "mode": "exact"})):
            cfg = write_config(tmp_path, FAST_CONFIG | override, f"{run_name}.json")
            first, second = (run_stages(cfg, tmp_path / run_name / rep) for rep in "ab")
            names = sorted(path.name for path in first.iterdir())
            assert names == sorted(path.name for path in second.iterdir())
            assert sum(name.endswith(".json") for name in names) == 5
            for name in names:
                text = (first / name).read_bytes()
                assert text == (second / name).read_bytes(), (run_name, name)
                if name.endswith(".json"):
                    doc = json.loads(text)
                    assert text.decode() == (
                        json.dumps(doc, indent=2, sort_keys=True) + "\n"), (run_name, name)

    def test_artifacts_exist(self, out):
        for name in ("data.json", "collect.csv", "controller.json", "design.csv",
                     "jacobian.json", "jacobian.csv", "bounds.json", "bounds.csv",
                     "mc.json", "mc.csv"):
            assert (out / name).exists()

    def test_collect_summary(self, out):
        rows = read_csv(out / "collect.csv")
        assert rows[0] == ["t_steps", "n_experiments", "n", "m", "p", "seed"]
        assert rows[1] == ["60", "1", "4", "2", "240", "7"]

    def test_design_reports_stable_loop(self, out):
        rows = read_csv(out / "design.csv")
        assert rows[0] == ["map", "rho", "stable", "rank_deficient"]
        assert rows[1][0] == "ce-lqr"
        assert rows[1][2] == "True"
        doc = json.loads((out / "controller.json").read_text())
        assert doc["stable"] is True
        assert len(doc["k"]) == 2 and len(doc["k"][0]) == 4

    def test_jacobian_summary(self, out):
        rows = read_csv(out / "jacobian.csv")
        assert rows[0] == ["k", "j_max", "b_source", "failed_columns"]
        assert rows[1][0] == "8"
        assert float(rows[1][1]) > 0.0
        assert rows[1][2] == "true"
        assert rows[1][3] == "0"

    def test_bounds_rows(self, out):
        rows = read_csv(out / "bounds.csv")
        assert rows[0] == ["sigma_scale", "v_bar", "v_lower", "kappa", "mu",
                           "rho", "lower", "upper_raw", "upper_clamped"]
        assert len(rows) == 3  # header + one row per sigma
        for row in rows[1:]:
            assert 0.0 <= float(row[8]) <= 1.0
            assert float(row[5]) < 1.0

    def test_mc_rows(self, out):
        rows = read_csv(out / "mc.csv")
        assert rows[0] == ["sigma_scale", "trials", "p_hat", "ci_low",
                           "ci_high", "mode", "seed"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[1] == "30"
            assert row[5] == "first_order"
            assert 0.0 <= float(row[2]) <= 1.0

    @pytest.mark.parametrize("r", [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]], ids=["r-1x1", "r-2x2"])
    def test_design_rejects_weights_that_do_not_fit(self, tmp_path, capsys, r):
        weights = {"name": "ce-lqr", "hyperparameters": {"q": [[1.0]], "r": r}}
        cfg = write_config(tmp_path, FAST_CONFIG | {"map": weights})
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["design", "--config", cfg, "--out", str(out)]) == 2
        shape = np.shape(r)
        assert capsys.readouterr().err == (
            f"ddrobust: error: ValueError: LQR weights Q (1, 1) and R {shape} "
            f"do not fit n = 4, m = 2\n")

    @pytest.mark.parametrize("map_name", ["pinv", "ce-lqr"])
    @pytest.mark.parametrize("t_steps, deficient", [(3, True), (None, False)],
                             ids=["t-3", "default-t"])
    def test_design_reports_rank_deficiency(self, tmp_path, map_name, t_steps, deficient):
        # Three snapshots cannot span the n = 4 states (pinv) or the n + m = 6
        # regressors (ce-lqr); the default record of 200 steps spans both.
        doc = {k: v for k, v in FAST_CONFIG.items() if k != "t_steps"}
        doc |= {"map": {"name": map_name}} | ({"t_steps": t_steps} if t_steps else {})
        cfg, out = write_config(tmp_path, doc), str(tmp_path / "run")
        assert run(["collect", "--config", cfg, "--out", out]) == 0
        assert run(["design", "--config", cfg, "--out", out]) == 0
        assert read_csv(tmp_path / "run" / "design.csv")[1][3] == str(deficient)
        doc = json.loads((tmp_path / "run" / "controller.json").read_text())
        assert doc["rank_deficient"] is deficient

    def test_design_without_data_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert run(["design", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err and "data.json" in err

    def test_design_riccati_failure_exits_2_with_one_line(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        # The nominal design's Riccati residual (~1e-15 of max|P|) fails this gate.
        monkeypatch.setattr(ctrlmaps, "_DARE_RESIDUAL_RTOL", 1e-300)
        assert run(["design", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: DareError: Riccati doubling iteration diverged, did not "
            "converge in 100 steps or failed its residual gate\n")


class TestMalformedArtifacts:
    @pytest.mark.parametrize("command, name, content, expected", [
        ("design", "data.json", '{"n": 4}', "training record lacks key(s): u, x"),
        ("bounds", "jacobian.json", '{"support": [1, 2]}',
         "Jacobian bundle lacks key(s): columns"),
        ("mc", "jacobian.json", "[1, 2]", "Jacobian bundle must be a JSON object"),
    ], ids=["data-missing-keys", "jacobian-missing-keys", "jacobian-not-object"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, name, content,
                                   expected):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        (out / name).write_text(content)
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ddrobust: error: ValueError: {out / name}: {expected}")

    @pytest.mark.parametrize("name, field, value, expected", [
        ("data.json", "seed", "abc", "training record has a malformed field: 'seed' must be "
                                     "an integer, got 'abc'"),
        ("data.json", "seed", -3, "training record has a malformed field: 'seed' must be null "
                                  "or an integer >= 0, got -3"),
        ("data.json", "t", True, "training record has a malformed field: 't' must be an "
                                 "integer, got True"),
        ("jacobian.json", "n", True, "Jacobian bundle has a malformed field: 'n' must be an "
                                     "integer, got True"),
    ], ids=["seed-string", "seed-negative", "t-bool", "n-bool"])
    def test_malformed_field_exits_2_naming_the_file(self, tmp_path, capsys, name, field,
                                                     value, expected):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        for stage in ("collect", "jacobian"):
            assert run([stage, "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        (out / name).write_text(json.dumps(doc | {field: value}))
        capsys.readouterr()
        assert run(["bounds", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ddrobust: error: ValueError: {out / name}: {expected}\n"

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    def test_stale_jacobian_exits_2_with_one_line(self, tmp_path, capsys, command):
        # A bundle saved for another support must not answer for this one.
        old = write_config(tmp_path, FAST_CONFIG | {"support": {"indices": [0, 5, 9]}}, "old.json")
        new = write_config(tmp_path, FAST_CONFIG | {"support": {"indices": [100, 120, 140, 160]}},
                           "new.json")
        out = tmp_path / "run"
        for stage in ("collect", "jacobian"):
            assert run([stage, "--config", old, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run([command, "--config", new, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: {out / 'jacobian.json'} is for support [0, 5, 9], "
            "but the config gives [100, 120, 140, 160]; rerun jacobian\n")

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    @pytest.mark.parametrize("recollect", [True, False], ids=["other-record", "no-record"])
    def test_jacobian_of_another_record_exits_2_with_one_line(self, tmp_path, capsys,
                                                              command, recollect):
        # A bundle of the seed-0 record must not answer for a re-collected
        # seed-1 record on the same map and support, nor one that names no record.
        cfg = write_config(tmp_path, {"support": {"indices": [0, 5, 9, 40, 77]},
                                      "mode": "first-order", "sigma": {"value": 3.0}})
        out = tmp_path / "run"

        def stage(name, seed):
            return run([name, "--config", cfg, "--seed", str(seed), "--out", str(out)])

        assert stage("collect", 0) == 0 and stage("jacobian", 0) == 0
        saved = hashlib.sha256((out / "data.json").read_bytes()).hexdigest()
        if recollect:
            assert stage("collect", 1) == 0
        else:
            doc = json.loads((out / "jacobian.json").read_text())
            (out / "jacobian.json").write_text(json.dumps({k: v for k, v in doc.items()
                                                           if k != "record"}))
            saved = None
        record = hashlib.sha256((out / "data.json").read_bytes()).hexdigest()
        capsys.readouterr()
        assert stage(command, 1 if recollect else 0) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: {out / 'jacobian.json'} is for record "
            f"{json.dumps(saved)}, but {out / 'data.json'} is \"{record}\"; rerun jacobian\n")

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    @pytest.mark.parametrize("saved", ["pinv", None], ids=["other-map", "no-map"])
    def test_jacobian_of_another_map_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                           saved):
        # A bundle of another map, or of an unknown one, must not answer for this map.
        cfg = write_config(tmp_path, FAST_CONFIG | {"support": {"indices": [5, 17, 40]}})
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        if saved:
            other = write_config(tmp_path, FAST_CONFIG | {"support": {"indices": [5, 17, 40]},
                                                          "map": {"name": saved}}, "other.json")
            assert run(["jacobian", "--config", other, "--out", str(out)]) == 0
        else:
            assert run(["jacobian", "--config", cfg, "--out", str(out)]) == 0
            doc = json.loads((out / "jacobian.json").read_text())
            (out / "jacobian.json").write_text(json.dumps({k: v for k, v in doc.items()
                                                           if k != "map"}))
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        saved_map = json.dumps(saved and {"hyperparameters": {}, "name": saved})
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: {out / 'jacobian.json'} is for map {saved_map}, "
            'but the config gives {"hyperparameters": {}, "name": "ce-lqr"}; rerun jacobian\n')


class TestWeightedCeLqr:
    WEIGHTS = {"q": np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), "r": [[1.0, 0.0], [0.0, 0.5]]}

    @staticmethod
    def config(tmp_path, weights, name="config.json"):
        return write_config(tmp_path, FAST_CONFIG | {
            "map": {"name": "ce-lqr", "hyperparameters": weights}}, name)

    @pytest.fixture()
    def out(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.config(tmp_path, self.WEIGHTS)
        for command in ("collect", "jacobian"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        return out

    def test_jacobian_records_both_weights(self, out):
        doc = json.loads((out / "jacobian.json").read_text())
        assert doc["map"] == {"name": "ce-lqr", "hyperparameters": self.WEIGHTS}

    def test_bounds_takes_the_bundle_of_its_weights(self, tmp_path, out):
        assert run(["bounds", "--config", self.config(tmp_path, self.WEIGHTS),
                    "--out", str(out)]) == 0
        assert len(read_csv(out / "bounds.csv")) == 1 + len(FAST_CONFIG["sigma"]["grid"])

    def test_bounds_refuses_the_bundle_of_other_weights(self, tmp_path, capsys, out):
        other = self.WEIGHTS | {"r": [[2.0, 0.0], [0.0, 0.5]]}
        capsys.readouterr()
        assert run(["bounds", "--config", self.config(tmp_path, other, "other.json"),
                    "--out", str(out)]) == 2

        def descriptor(weights):
            return json.dumps({"hyperparameters": weights, "name": "ce-lqr"}, sort_keys=True)

        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: {out / 'jacobian.json'} is for map "
            f"{descriptor(self.WEIGHTS)}, but the config gives {descriptor(other)}; "
            "rerun jacobian\n")


class TestOverrides:
    def test_sigma_override_collapses_grid(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        assert run(["bounds", "--config", cfg, "--out", str(out),
                    "--sigma", "0.5"]) == 0
        rows = read_csv(out / "bounds.csv")
        assert len(rows) == 2
        assert rows[1][0] == "0.5"

    @pytest.mark.parametrize("command, sigma", [("bounds", "inf"), ("mc", "nan")])
    def test_non_finite_sigma_override_exits_2_with_one_line(self, tmp_path, capsys,
                                                            command, sigma):
        out = str(tmp_path / "run")
        assert run([command, "--config", write_config(tmp_path, FAST_CONFIG), "--out", out,
                    "--sigma", sigma]) == 2
        assert capsys.readouterr().err == (
            f"ddrobust: error: ConfigError: config key sigma.value must be finite, got {sigma}\n")

    def test_trials_and_mode_override(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        assert run(["mc", "--config", cfg, "--out", str(out),
                    "--trials", "5", "--mode", "exact", "--sigma", "1e-3"]) == 0
        rows = read_csv(out / "mc.csv")
        assert rows[1][1] == "5"
        assert rows[1][5] == "exact"

    def test_fig1_takes_sigma_and_trials(self, tmp_path):
        # One row at sigma 3, estimated from 7 trials: the row of mc with the
        # same flags, which reports its trial count.
        cfg = write_config(tmp_path, FAST_CONFIG)
        flags = ["--config", cfg, "--sigma", "3", "--trials", "7"]
        stages, sweep = tmp_path / "stages", tmp_path / "sweep"
        for command in ("collect", "jacobian", "mc"):
            assert run([command, *flags, "--out", str(stages)]) == 0
        assert run(["fig1", *flags, "--out", str(sweep)]) == 0
        [mc] = read_csv(stages / "mc.csv")[1:]
        [row] = read_csv(sweep / "fig1.csv")[1:]
        assert mc[:2] == ["3.0", "7"]
        assert row[0] == "3.0" and row[2:5] == mc[2:5]

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        assert run(["collect", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["collect", "--config", cfg, "--out", str(out_b)]) == 0
        assert run(["collect", "--config", cfg, "--out", str(out_c),
                    "--seed", "8"]) == 0
        same = (out_a / "data.json").read_bytes()
        assert same == (out_b / "data.json").read_bytes()
        assert same != (out_c / "data.json").read_bytes()

    def test_b_source_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        assert run(["jacobian", "--config", cfg, "--out", str(out),
                    "--b-source", "identified"]) == 0
        assert read_csv(out / "jacobian.csv")[1][2] == "identified"

    def test_b_source_in_every_bounds_and_mc_row(self, tmp_path):
        # The label of the B in the bundle; exact mc uses no bundle.
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        flags = ["--config", cfg, "--out", str(out), "--mode", "first-order",
                 "--b-source", "identified"]
        for command in ("collect", "jacobian", "bounds", "mc"):
            assert run([command, *flags]) == 0
        for name in ("bounds.json", "mc.json"):
            rows = json.loads((out / name).read_text())
            assert len(rows) == 2 and all(row["b_source"] == "identified" for row in rows)
        assert run(["mc", "--config", cfg, "--out", str(out), "--mode", "exact"]) == 0
        rows = json.loads((out / "mc.json").read_text())
        assert len(rows) == 2 and all(row["b_source"] is None for row in rows)


class TestCustomSystem:
    def test_scalar_system_runs(self, tmp_path):
        doc = {
            "system": {"a": [[0.5]], "b": [[1.0]]},
            "t_steps": 5,
            "map": {"name": "pinv"},
            "support": {"k": 1},
            "sigma": {"value": 0.01},
            "trials": 10,
            "seed": 2,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "design.csv")
        assert rows[1][0] == "pinv"
        assert read_csv(out / "collect.csv")[1][2] == "1"  # n = 1

    @pytest.mark.parametrize("command, t_list", [("collect", None), ("fig2", [1200])])
    def test_diverging_record_exits_2_with_one_line(self, tmp_path, capsys, command, t_list):
        # x(t) = 2 x(t-1) + u(t-1) overflows to inf within 1200 steps.
        doc = {"system": {"a": [[2.0]], "b": [[1.0]]}, "t_steps": 1200, "support": {"k": 2}}
        doc |= {"t_list": t_list, "fig2_trials": 2} if t_list else {}
        cfg = write_config(tmp_path, doc)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ValueError: X contains non-finite entries\n")

    def test_custom_system_needs_both_matrices(self, tmp_path, capsys):
        doc = FAST_CONFIG | {"system": {"a": [[0.5]]}}
        cfg = write_config(tmp_path, doc)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigError" in capsys.readouterr().err


class TestFigures:
    def test_fig1_columns_and_floor(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["fig1", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "fig1.csv")
        assert rows[0] == ["sigma", "lower", "p_hat", "ci_low", "ci_high",
                           "upper_clamped"]
        assert len(rows) == 3
        # Both sigmas are tiny for this loop: analytic bounds floor at
        # 2.2e-16 while the empirical estimate stays an exact zero.
        for row in rows[1:]:
            assert row[1] == "2.2e-16"
            assert row[2] == "0.0"
            assert float(row[5]) >= 2.2e-16

    def test_bounds_report_what_fig1_floors(self, tmp_path):
        # On the default config at sigma 0.1 the upper bound is about 2.3e-20:
        # bounds.csv keeps it as computed, and fig1 plots the floor.
        out, sweep = str(tmp_path / "run"), str(tmp_path / "sweep")
        assert run(["collect", "--out", out]) == 0
        assert run(["bounds", "--out", out, "--sigma", "0.1"]) == 0
        [row] = read_csv(tmp_path / "run" / "bounds.csv")[1:]
        assert all(0 < float(cell) < 2.2e-16 for cell in row[7:9])
        assert run(["fig1", "--out", sweep, "--sigma", "0.1", "--trials", "100"]) == 0
        [row] = read_csv(tmp_path / "sweep" / "fig1.csv")[1:]
        assert row[5] == "2.2e-16"

    @pytest.mark.parametrize("overrides", [
        {"mode": "exact"},
        {"b_source": "identified"},
        {"n_experiments": 2},
    ], ids=["exact", "first-order-identified-b", "two-experiments"])
    def test_fig1_joins_bounds_and_mc_stages(self, tmp_path, overrides):
        # fig1 runs the same stages in memory: each row is the bounds row
        # (bound columns floored at 2.2e-16) joined with the mc row.
        doc = FAST_CONFIG | {"sigma": {"grid": [0.01, 3.0, 30.0]}} | overrides
        cfg = write_config(tmp_path, doc)
        stages, sweep = tmp_path / "stages", tmp_path / "sweep"
        for command in ("collect", "design", "jacobian", "bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(stages)]) == 0
        assert run(["fig1", "--config", cfg, "--out", str(sweep)]) == 0
        bounds = read_csv(stages / "bounds.csv")[1:]
        mc = read_csv(stages / "mc.csv")[1:]
        fig1 = read_csv(sweep / "fig1.csv")[1:]
        assert len(fig1) == len(bounds) == len(mc) == 3

        def floored(cell):
            return repr(max(float(cell), 2.2e-16))

        for row, b, m in zip(fig1, bounds, mc):
            assert row == [b[0], floored(b[6]), m[2], m[3], m[4], floored(b[8])]
        assert float(fig1[-1][1]) > 0.1 and float(fig1[-1][2]) > 0.5

    def test_fig1_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["fig1", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["fig1", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "fig1.csv").read_bytes() == (out_b / "fig1.csv").read_bytes()

    def test_fig1_refuses_unstable_nominal(self, tmp_path, capsys):
        doc = FAST_CONFIG | {"map": {"name": "pinv"}, "t_steps": 200, "seed": 0}
        cfg = write_config(tmp_path, doc)
        assert run(["fig1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "StabilityError" in capsys.readouterr().err

    def test_fig1_refuses_unstable_nominal_after_one_stacked_evaluation(self, tmp_path, capsys,
                                                                       monkeypatch):
        # The nominal gain is the first probe of the FD stack, so the refusal
        # comes after that one evaluation and before any Monte Carlo trial.
        calls, trials = [], []
        fd = cli.fd_jacobian
        monkeypatch.setattr(cli, "fd_jacobian", lambda *args: calls.append(args) or fd(*args))
        monkeypatch.setattr(cli, "estimate_instability",
                            lambda *args, **kwargs: trials.append(args))
        doc = FAST_CONFIG | {"map": {"name": "pinv"}, "t_steps": 200, "seed": 0}
        out = tmp_path / "o"
        assert run(["fig1", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ddrobust: error: StabilityError: nominal closed loop is not "
                              "stable: rho = ")
        assert len(calls) == 1 and trials == []
        assert not (out / "fig1.csv").exists()

    def test_exact_fig1_evaluates_one_stack_per_bundle_and_sigma(self, tmp_path, monkeypatch):
        # One stack of 2k + 1 probes gives the bundle and the nominal gain, and
        # each sigma's trials are one more; the map is never evaluated alone.
        stacks, alone = [], []
        original = CeLqrMap._evaluate_finite
        monkeypatch.setattr(CeLqrMap, "_evaluate_finite",
                            lambda self, *args: stacks.append(args) or original(self, *args))
        monkeypatch.setattr(CeLqrMap, "evaluate", lambda self, data: alone.append(data))
        grid = [1e-4, 1e-3, 1e-2]
        doc = FAST_CONFIG | {"mode": "exact", "sigma": {"grid": grid}}
        out = tmp_path / "run"
        assert run(["fig1", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len(stacks) == 1 + len(grid) and alone == []
        assert [len(args[2]) for args in stacks] == [2 * 8 + 1] + [30] * len(grid)

    def test_exact_fig1_makes_one_svd_per_run(self, tmp_path, monkeypatch):
        # The FD stack fits the record once; every sigma's stack reuses that fit.
        svds, original = [], ctrlmaps.pseudoinverse
        monkeypatch.setattr(ctrlmaps, "pseudoinverse", lambda w: svds.append(w) or original(w))
        doc = FAST_CONFIG | {"mode": "exact", "sigma": {"grid": [1e-4, 1e-3, 1e-2]}}
        out = tmp_path / "run"
        assert run(["fig1", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len(svds) == 1

    @pytest.mark.parametrize("mode, given", [("exact", False), ("first-order", True)])
    def test_fig1_hands_mc_the_bundle_in_first_order_mode_only(self, tmp_path, monkeypatch,
                                                               mode, given):
        # estimate_instability reads its mode off the bundle it is given.
        bundles = []
        original = cli.estimate_instability
        monkeypatch.setattr(cli, "estimate_instability", lambda *args, bundle, **kwargs: (
            bundles.append(bundle) or original(*args, bundle=bundle, **kwargs)))
        out = tmp_path / "run"
        doc = FAST_CONFIG | {"mode": mode}
        assert run(["fig1", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert [bundle is not None for bundle in bundles] == [given, given]

    def test_fig1_failed_nominal_probe_ends_with_the_map_error(self, tmp_path, capsys,
                                                               monkeypatch):
        original = CeLqrMap.evaluate_deltas

        def evaluate_deltas(self, data, support, deltas):
            k = original(self, data, support, deltas)
            k[~deltas.any(axis=1)] = np.nan
            return k

        def evaluate(self, data):
            raise ctrlmaps.DareError("Riccati solve failed on the nominal record")

        monkeypatch.setattr(CeLqrMap, "evaluate_deltas", evaluate_deltas)
        monkeypatch.setattr(CeLqrMap, "evaluate", evaluate)
        out = tmp_path / "o"
        assert run(["fig1", "--config", write_config(tmp_path, FAST_CONFIG),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: DareError: Riccati solve failed on the nominal record\n")
        assert not (out / "fig1.csv").exists()

    def test_mc_and_bounds_refuse_unstable_nominal_alike(self, tmp_path, capsys):
        doc = FAST_CONFIG | {"map": {"name": "pinv"}, "t_steps": 200, "seed": 0}
        cfg, out = write_config(tmp_path, doc), str(tmp_path / "o")
        assert run(["collect", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        errs = []
        for command in ("bounds", "mc"):
            assert run([command, "--config", cfg, "--out", out]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("ddrobust: error: StabilityError: nominal closed loop is not "
                                  "stable: rho = ")

    def test_fig2_columns_and_rerun(self, tmp_path):
        doc = FAST_CONFIG | {"t_list": [20, 40], "fig2_trials": 3,
                             "map": {"name": "pinv"}}
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["fig2", "--config", cfg, "--out", str(out_a)]) == 0
        rows = read_csv(out_a / "fig2.csv")
        assert rows[0] == ["t_steps", "j_max_mean", "j_max_std"]
        assert [row[0] for row in rows[1:]] == ["20", "40"]
        assert all(float(row[1]) > 0.0 for row in rows[1:])
        assert run(["fig2", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "fig2.csv").read_bytes() == (out_b / "fig2.csv").read_bytes()

    def test_fig2_uses_the_configured_indices(self, tmp_path):
        doc = FAST_CONFIG | {"t_list": [20, 40], "fig2_trials": 3, "map": {"name": "pinv"}}
        written = []
        for name, support in (("indices", {"indices": [2, 0, 1]}), ("k", {"k": 3})):
            cfg = write_config(tmp_path, doc | {"support": support}, name=f"{name}.json")
            assert run(["fig2", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "fig2.csv").read_bytes())
        assert written[0] != written[1]
        # Each record as collect makes it alone, with the FD bundle on entries
        # 0, 1 and 2, or on support.k entries drawn from the record's own seed.
        cfg = cli.ExperimentConfig.from_json(doc)
        system, cmap = cfg.build_system(), cfg.build_map()
        for name in ("indices", "k"):
            rows = []
            for t_idx, t_steps in enumerate(cfg.t_list):
                j_maxes = []
                for trial in range(3):
                    seed = cli._child_seed(cfg.seed, cli._DOM_FIG2, t_idx, trial, 0)
                    data = collect(system, 1, t_steps, seed=seed)
                    rng = np.random.default_rng(
                        cli._child_seed(cfg.seed, cli._DOM_FIG2, t_idx, trial, 1))
                    support = (np.array([0, 1, 2]) if name == "indices"
                               else random_support(data.x.size, 3, rng))
                    bundle = fd_jacobian(cmap, data, support)
                    j_maxes.append(bounds.j_max(bundle.with_b(system.b, cli.B_SOURCE_TRUE)))
                rows.append([str(t_steps), str(float(np.mean(j_maxes))),
                             str(float(np.std(j_maxes, ddof=1)))])
            assert read_csv(tmp_path / name / "fig2.csv")[1:] == rows

    def test_fig2_refuses_oversized_support_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch):
        # The 20-step records hold 80 entries of vec(X), the 40-step ones 160.
        calls = []
        fd = cli.fd_jacobian
        monkeypatch.setattr(cli, "fd_jacobian", lambda *args: calls.append(args) or fd(*args))
        doc = FAST_CONFIG | {"support": {"k": 100}, "t_list": [40, 20], "fig2_trials": 1}
        out = tmp_path / "o"
        assert run(["fig2", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ddrobust: error: ConfigError: config key support.k: cannot pick 100 distinct "
            "indices out of vec(X) of length 80\n")
        assert calls == []
        assert not (out / "fig2.csv").exists()


class TestSavedNominalGain:
    """``bounds`` and first-order ``mc`` take the nominal gain from jacobian.json."""

    @pytest.fixture
    def stages(self, tmp_path):
        cfg, out = write_config(tmp_path, FAST_CONFIG), tmp_path / "run"
        for command in ("collect", "jacobian", "bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        return cfg, out

    @staticmethod
    def edit_bundle(out, edit):
        path = out / "jacobian.json"
        doc = json.loads(path.read_text())
        edit(doc)
        cli._write_json(path, doc)
        return path

    def test_no_riccati_solve(self, stages, monkeypatch):
        cfg, out = stages
        solves = []
        original = ctrlmaps.dare_solve
        monkeypatch.setattr(ctrlmaps, "dare_solve",
                            lambda *args, **kwargs: solves.append(args) or original(*args, **kwargs))
        for command in ("bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        assert solves == []
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        assert len(solves) == 1  # the spy sees the solve of the map's own evaluation

    def test_failed_nominal_probe_falls_back_to_the_map(self, stages, capsys, monkeypatch):
        cfg, out = stages
        written = {name: (out / name).read_bytes() for name in ("bounds.csv", "mc.csv")}

        def fail(doc):
            doc["gain"] = [[math.nan] * 4] * 2

        self.edit_bundle(out, fail)
        for command in ("bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in written} == written

        def evaluate(self, data):
            raise ctrlmaps.DareError("Riccati solve failed on the nominal record")

        monkeypatch.setattr(CeLqrMap, "evaluate", evaluate)
        capsys.readouterr()
        for command in ("bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "ddrobust: error: DareError: Riccati solve failed on the nominal record\n")

    def test_bundle_without_gain_exits_2(self, stages, capsys):
        cfg, out = stages
        path = self.edit_bundle(out, lambda doc: doc.pop("gain"))
        capsys.readouterr()
        for command in ("bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"ddrobust: error: ValueError: {path}: Jacobian bundle lacks key(s): gain\n")


class TestEveryTrialFailed:
    """A sigma at which every Monte Carlo trial fails has no estimate."""

    @pytest.fixture(autouse=True)
    def fails_far_from_nominal(self, monkeypatch):
        # The ce-lqr map fails numerically on every record with an entry
        # more than 1 away from the nominal one.
        original = CeLqrMap.evaluate_deltas

        def evaluate_deltas(self, data, support, deltas):
            k = original(self, data, support, deltas)
            k[np.abs(deltas).max(axis=1) > 1.0] = np.nan
            return k

        monkeypatch.setattr(CeLqrMap, "evaluate_deltas", evaluate_deltas)

    def test_mc_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"mode": "exact",
                                                    "sigma": {"value": 30.0}})
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["mc", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ddrobust: error: NoEstimateError: every trial failed")

    def test_fig1_writes_a_nan_row_and_goes_on(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"mode": "exact",
                                                    "sigma": {"grid": [1e-4, 30.0, 1e-3]}})
        out = tmp_path / "run"
        assert run(["fig1", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "fig1.csv")[1:]
        assert [row[0] for row in rows] == ["0.0001", "30.0", "0.001"]
        assert rows[0][2] == rows[2][2] == "0.0"
        assert rows[1][1:] == ["nan"] * 5
        assert "sigma=30 failed: NoEstimateError" in capsys.readouterr().err


def test_fig1_map_bug_exits_2(tmp_path, capsys, monkeypatch):
    # A TypeError, ValueError or ZeroDivisionError raised inside a map is a
    # bug, not a failed grid point: fig1 stops with one line instead of
    # writing a NaN row.
    original = CeLqrMap.evaluate_deltas
    cfg = write_config(tmp_path, FAST_CONFIG | {"mode": "exact",
                                                "sigma": {"grid": [1e-4, 30.0, 1e-3]}})
    for error in (TypeError, ValueError, ZeroDivisionError):
        def evaluate_deltas(self, data, support, deltas):
            if np.abs(deltas).max() > 1.0:
                raise error("operands could not be broadcast together")
            return original(self, data, support, deltas)

        monkeypatch.setattr(CeLqrMap, "evaluate_deltas", evaluate_deltas)
        out = tmp_path / error.__name__
        assert run(["fig1", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"ddrobust: error: {error.__name__}: "
                       "operands could not be broadcast together\n")
        assert not (out / "fig1.csv").exists()


def test_fig1_violated_envelope_exits_2(tmp_path, capsys, monkeypatch):
    # The envelope depends only on the bundle, so a violation is no NaN row
    # at one sigma: fig1 stops with one line and writes nothing.
    original = bounds.variance_params

    def inflated(bundle, sigmas):
        v_bar, v_lower = original(bundle, sigmas)
        return 1e6 * v_bar, v_lower

    monkeypatch.setattr(bounds, "variance_params", inflated)
    out = tmp_path / "run"
    assert run(["fig1", "--config", write_config(tmp_path, FAST_CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ddrobust: error: EnvelopeError: envelope violated")
    assert not (out / "fig1.csv").exists()


def test_one_entry_support_at_large_sigma(tmp_path):
    # With one support entry v_bar equals the variance envelope in exact
    # arithmetic; at sigma up to 1e6 they differ by rounding, which is no
    # violation of the envelope.
    cfg = write_config(tmp_path, {"t_steps": 60, "support": {"indices": [100]},
                                  "sigma": {"grid": [100, 1e4, 1e5, 1e6]}, "trials": 20})
    out = tmp_path / "run"
    assert run(["fig1", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "fig1.csv")[1:]
    assert len(rows) == 4 and all(math.isfinite(float(v)) for row in rows for v in row)
    assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
    assert run(["bounds", "--config", cfg, "--out", str(out)]) == 0


def test_badly_scaled_trials_pass_the_riccati_gate(tmp_path):
    # At sigma = 1e5 on entry 100 of a T = 60 record the identified A has
    # entries up to 1.7e4, and A'PA exceeds P by up to 8e5. Every trial's
    # Riccati solution agrees with scipy's to 2e-13 and passes the gate
    # scaled by the terms of the equation; scaled by max|P| alone, the gate
    # skipped 14 of the 20 trials and reported p_hat = 1/6.
    cfg = write_config(tmp_path, {"t_steps": 60, "support": {"indices": [100]}, "trials": 20})
    out = tmp_path / "run"
    assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
    assert run(["mc", "--config", cfg, "--out", str(out), "--sigma", "1e5"]) == 0
    [report] = json.loads((out / "mc.json").read_text())
    assert (report["skipped"], report["unstable_count"], report["trials"]) == (0, 6, 20)


def test_shipped_maps_never_reach_the_per_record_fallback(tmp_path, monkeypatch):
    # The base-class fallback builds one TrainingData per record through
    # with_x_vec; both shipped maps evaluate every stack without it.
    def refuse(self, v):
        raise AssertionError("per-record fallback reached")

    monkeypatch.setattr(TrainingData, "with_x_vec", refuse)
    pinv = write_config(tmp_path, FAST_CONFIG | {"map": {"name": "pinv"}, "t_list": [20, 40],
                                                 "fig2_trials": 2}, name="pinv.json")
    assert run(["fig2", "--config", pinv, "--out", str(tmp_path / "fig2")]) == 0
    exact = write_config(tmp_path, FAST_CONFIG | {"mode": "exact"}, name="exact.json")
    assert run(["fig1", "--config", exact, "--out", str(tmp_path / "fig1")]) == 0


@pytest.mark.skipif(shutil.which("ddrobust") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAST_CONFIG))
    result = subprocess.run(
        ["ddrobust", "collect", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "wrote" in result.stdout
    assert (tmp_path / "o" / "data.json").exists()
