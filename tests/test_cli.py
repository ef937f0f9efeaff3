import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ddrobust import CeLqrMap, TrainingData, bounds, cli, ctrlmaps


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

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            run([])
        assert excinfo.value.code == 2

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

    def test_unknown_map_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG | {"map": {"name": "sdp"}})
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"system": 5}, {"trials": None}, {"sigma": {"grid": 5}}, {"t_list": 5},
        {"support": {"k": None}}, {"trials": 2.5}, {"seed": "3"}, {"trials": True},
    ], ids=["system", "trials", "sigma-grid", "t-list", "support-k", "float-trials",
            "string-seed", "bool-trials"])
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
    ], ids=["short-log-range", "long-log-range", "ragged-a", "ragged-b", "empty-a",
            "empty-rows", "empty-b-rows", "nan-sigma-value", "inf-sigma-grid",
            "inf-log-range", "nan-ts", "inf-a"])
    def test_misshapen_value_exits_2_with_one_line(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path, FAST_CONFIG | override)
        assert run(["collect", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ddrobust: error: ConfigError: config key {key} must ")


    @pytest.mark.parametrize("command, support, key, length", [
        ("jacobian", {"k": 500}, "support.k", 240),
        ("jacobian", {"indices": [0, 999]}, "support.indices", 240),
        ("fig2", {"k": 500}, "support.k", 80),
        ("fig2", {"indices": list(range(81))}, "support.indices", 80),
    ], ids=["k", "indices", "fig2-k", "fig2-indices"])
    def test_support_outside_vec_x_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                         support, key, length):
        doc = FAST_CONFIG | {"support": support, "t_list": [20], "fig2_trials": 1}
        cfg, out = write_config(tmp_path, doc), str(tmp_path / "o")
        assert run(["collect", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ddrobust: error: ConfigError: config key {key} must ")
        assert f"vec(X) of length {length}, got " in err


class TestCommandChain:
    @pytest.fixture()
    def out(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        for command in ("collect", "design", "jacobian", "bounds", "mc"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        return out

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
            "ddrobust: error: ConfigError: sigma grid must be nonempty, positive and finite\n")

    def test_trials_and_mode_override(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert run(["collect", "--config", cfg, "--out", str(out)]) == 0
        assert run(["mc", "--config", cfg, "--out", str(out),
                    "--trials", "5", "--mode", "exact", "--sigma", "1e-3"]) == 0
        rows = read_csv(out / "mc.csv")
        assert rows[1][1] == "5"
        assert rows[1][5] == "exact"

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

    def test_fig1_refuses_unstable_nominal_before_the_bundle(self, tmp_path, capsys,
                                                             monkeypatch):
        # The refusal depends only on the nominal loop, so it costs no FD probe.
        calls = []
        monkeypatch.setattr(cli, "fd_jacobian", lambda *args, **kwargs: calls.append(args))
        doc = FAST_CONFIG | {"map": {"name": "pinv"}, "t_steps": 200, "seed": 0}
        out = tmp_path / "o"
        assert run(["fig1", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ddrobust: error: StabilityError: nominal closed loop is not "
                              "stable: rho = ")
        assert calls == []
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


class TestEveryTrialFailed:
    """A sigma at which every Monte Carlo trial fails has no estimate."""

    @pytest.fixture(autouse=True)
    def fails_far_from_nominal(self, monkeypatch):
        # The ce-lqr map fails numerically on every record with an entry
        # more than 1 away from the nominal one.
        original = CeLqrMap.evaluate_batch

        def evaluate_batch(self, data, x_vecs):
            k = original(self, data, x_vecs)
            k[np.abs(x_vecs - data.x_vec).max(axis=1) > 1.0] = np.nan
            return k

        monkeypatch.setattr(CeLqrMap, "evaluate_batch", evaluate_batch)

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
    original = CeLqrMap.evaluate_batch
    cfg = write_config(tmp_path, FAST_CONFIG | {"mode": "exact",
                                                "sigma": {"grid": [1e-4, 30.0, 1e-3]}})
    for error in (TypeError, ValueError, ZeroDivisionError):
        def evaluate_batch(self, data, x_vecs):
            if np.abs(x_vecs - data.x_vec).max() > 1.0:
                raise error("operands could not be broadcast together")
            return original(self, data, x_vecs)

        monkeypatch.setattr(CeLqrMap, "evaluate_batch", evaluate_batch)
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
