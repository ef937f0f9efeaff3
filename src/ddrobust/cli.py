"""Reproducible experiment runner for the robustness toolkit.

JSON config in, JSON + CSV artifacts out. Every command is a pure function
of its config and input artifacts — no timestamps, no hidden state — so a
rerun with the same seed produces byte-identical files. Artifacts live in
the configured output directory under fixed names (data.json,
controller.json, jacobian.json, ...), which is how downstream commands find
their inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import EPS_FLOOR
from .lti import LtiSystem, TrainingData, collect, vehicle_model
from .ctrlmaps import ControllerMap, check_a1, identify, map_from_descriptor
from .sensitivity import (
    B_SOURCE_IDENTIFIED,
    B_SOURCE_TRUE,
    JacobianBundle,
    PerturbationModel,
    fd_jacobian,
)
from .bounds import BoundsReport, j_max, jmax_envelope, theorem1_bounds, variance_params
from .mc import (MODE_EXACT, MODE_FIRST_ORDER, MonteCarloReport, NoEstimateError,
                 estimate_instability, random_support)

# Seed-derivation domains: every random decision hangs off the master seed
# through a distinct spawn key, so commands agree on shared upstream draws
# (the collected data, the support) without sharing generator state.
_DOM_COLLECT = 0
_DOM_SUPPORT = 1
_DOM_MC = 2
_DOM_FIG2 = 3

_DATA_FILE = "data.json"
_CONTROLLER_FILE = "controller.json"
_JACOBIAN_FILE = "jacobian.json"


class ConfigError(ValueError):
    """The experiment config is malformed or violates a module precondition."""


def _child_seed(master: int, *key: int) -> int:
    """Derive an independent integer seed from the master and a key path."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def _check_keys(doc: dict, allowed: set[str], context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(sorted(unknown))}")


def _log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    if not (0 < lo < hi):
        raise ConfigError(f"log_range needs 0 < lo < hi, got [{lo}, {hi}]")
    if points < 2:
        raise ConfigError("log_range needs at least 2 points")
    return tuple(float(v) for v in np.logspace(math.log10(lo), math.log10(hi), points))


_TYPE_NAMES = {int: "int", float: "number", str: "string", list: "list", dict: "object"}


def _typed(value, key: str, kind: type, item: type | None = None):
    """``value`` of the config key ``key`` if its JSON type is ``kind``, a list of
    ``item`` when that is given; otherwise a TypeError naming the key. A number
    may be an integer and comes back as a float; a boolean is not a number."""
    def fits(v, t):
        return isinstance(v, (int, float) if t is float else t) and not isinstance(v, bool)

    if not fits(value, kind) or (item and not all(fits(v, item) for v in value)):
        name = _TYPE_NAMES[kind] + (f" of {_TYPE_NAMES[item]}" if item else "")
        raise TypeError(f"config key {key} must be {name}, got {value!r}")
    # JSON parsing lets NaN and Infinity through as numbers.
    numbers = value if item is float else [value] if kind is float else []
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"config key {key} must be finite, got {value!r}")
    if item is float:
        return [float(v) for v in value]
    return float(value) if kind is float else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by all subcommands."""

    system_name: str = "vehicle"
    ts: float = 0.1
    a: tuple | None = None
    b: tuple | None = None
    t_steps: int = 200
    n_experiments: int = 1
    map_name: str = "ce-lqr"
    map_hyper: dict | None = None
    support_k: int | None = 50
    support_indices: tuple[int, ...] | None = None
    sigma_grid: tuple[float, ...] = _log_grid(1e-5, 1e-1, 10)
    trials: int = 2000
    mode: str = MODE_EXACT
    seed: int = 0
    b_source: str = B_SOURCE_TRUE
    out: str = "runs"
    t_list: tuple[int, ...] = (100, 200, 400)
    fig2_trials: int = 15

    def __post_init__(self):
        if self.t_steps < 1 or self.n_experiments < 1:
            raise ConfigError("t_steps and n_experiments must be >= 1")
        if self.trials < 1 or self.fig2_trials < 1:
            raise ConfigError("trials counts must be >= 1")
        if self.mode not in (MODE_EXACT, MODE_FIRST_ORDER):
            raise ConfigError(f"mode must be exact or first-order, got {self.mode!r}")
        if self.b_source not in (B_SOURCE_TRUE, B_SOURCE_IDENTIFIED):
            raise ConfigError(f"b_source must be true or identified, got {self.b_source!r}")
        if not self.sigma_grid or not all(0 < s < math.inf for s in self.sigma_grid):
            raise ConfigError("sigma grid must be nonempty, positive and finite")
        if (self.support_k is None) == (self.support_indices is None):
            raise ConfigError("support needs exactly one of k or indices")
        if self.support_k is not None and self.support_k < 1:
            raise ConfigError("support k must be >= 1")
        if self.support_indices is not None:
            idx = self.support_indices
            if len(idx) == 0 or len(set(idx)) != len(idx) or min(idx) < 0:
                raise ConfigError("support indices must be distinct and non-negative")
        if not self.t_list or any(t < 1 for t in self.t_list):
            raise ConfigError("t_list must be nonempty positive integers")
        # Fails here, before any computation, when the map name is unknown.
        self.build_map()

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        _check_keys(doc, {
            "system", "t_steps", "n_experiments", "map", "support", "sigma",
            "trials", "mode", "seed", "b_source", "out", "t_list", "fig2_trials",
        }, "config")
        kwargs: dict = {}
        if "system" in doc:
            sysdoc = _typed(doc["system"], "system", dict)
            if "name" in sysdoc:
                _check_keys(sysdoc, {"name", "ts"}, "system")
                if _typed(sysdoc["name"], "system.name", str) != "vehicle":
                    raise ConfigError(f"unknown builtin system {sysdoc['name']!r}")
                kwargs["system_name"] = "vehicle"
                kwargs["ts"] = _typed(sysdoc.get("ts", 0.1), "system.ts", float)
            else:
                _check_keys(sysdoc, {"a", "b"}, "system")
                if "a" not in sysdoc or "b" not in sysdoc:
                    raise ConfigError("custom system needs both a and b")
                kwargs["system_name"] = "custom"
                for key in ("a", "b"):
                    name = f"system.{key}"
                    rows = _typed(sysdoc[key], name, list, list)
                    kwargs[key] = tuple(tuple(_typed(row, name, list, float)) for row in rows)
                    if not rows or not rows[0] or len({len(row) for row in rows}) > 1:
                        raise ConfigError(f"config key {name} must be a non-empty matrix with "
                                          f"rows of one length, got {rows!r}")
        if "map" in doc:
            mapdoc = _typed(doc["map"], "map", dict)
            _check_keys(mapdoc, {"name", "hyperparameters"}, "map")
            kwargs["map_name"] = _typed(mapdoc.get("name", "ce-lqr"), "map.name", str)
            kwargs["map_hyper"] = _typed(mapdoc.get("hyperparameters", {}),
                                         "map.hyperparameters", dict)
        if "support" in doc:
            supdoc = _typed(doc["support"], "support", dict)
            _check_keys(supdoc, {"k", "indices"}, "support")
            kwargs["support_k"] = _typed(supdoc["k"], "support.k", int) if "k" in supdoc else None
            if "indices" in supdoc:
                kwargs["support_indices"] = tuple(_typed(supdoc["indices"], "support.indices",
                                                         list, int))
        if "sigma" in doc:
            sigdoc = _typed(doc["sigma"], "sigma", dict)
            _check_keys(sigdoc, {"grid", "log_range", "points", "value"}, "sigma")
            if "grid" in sigdoc:
                kwargs["sigma_grid"] = tuple(_typed(sigdoc["grid"], "sigma.grid", list, float))
            elif "log_range" in sigdoc:
                log_range = _typed(sigdoc["log_range"], "sigma.log_range", list, float)
                if len(log_range) != 2:
                    raise ConfigError(f"config key sigma.log_range must be [lo, hi], "
                                      f"got {sigdoc['log_range']!r}")
                lo, hi = log_range
                points = _typed(sigdoc.get("points", 10), "sigma.points", int)
                kwargs["sigma_grid"] = _log_grid(lo, hi, points)
            elif "value" in sigdoc:
                kwargs["sigma_grid"] = (_typed(sigdoc["value"], "sigma.value", float),)
            else:
                raise ConfigError("sigma needs one of grid, log_range, value")
        for key in ("t_steps", "n_experiments", "trials", "seed", "fig2_trials"):
            if key in doc:
                kwargs[key] = _typed(doc[key], key, int)
        if "mode" in doc:
            kwargs["mode"] = _canon_mode(_typed(doc["mode"], "mode", str))
        for key in ("b_source", "out"):
            if key in doc:
                kwargs[key] = _typed(doc[key], key, str)
        if "t_list" in doc:
            kwargs["t_list"] = tuple(_typed(doc["t_list"], "t_list", list, int))
        return cls(**kwargs)

    def build_system(self) -> LtiSystem:
        if self.system_name == "vehicle":
            return vehicle_model(self.ts)
        return LtiSystem(np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=float))

    def build_map(self) -> ControllerMap:
        try:
            return map_from_descriptor(self.map_name, self.map_hyper)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _canon_mode(mode: str) -> str:
    if mode in ("first-order", MODE_FIRST_ORDER):
        return MODE_FIRST_ORDER
    return mode


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Read the JSON config (if given) and apply command-line overrides."""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        cfg = ExperimentConfig.from_json(doc)
    else:
        cfg = ExperimentConfig()
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = str(args.out)
    if args.mode is not None:
        updates["mode"] = _canon_mode(args.mode)
    if args.b_source is not None:
        updates["b_source"] = args.b_source
    if getattr(args, "sigma", None) is not None:
        updates["sigma_grid"] = (float(args.sigma),)
    if getattr(args, "trials", None) is not None:
        updates["trials"] = int(args.trials)
    return replace(cfg, **updates) if updates else cfg


def _fmt(value) -> str:
    """Full-precision, locale-independent cell formatting.

    repr() of a float is the shortest string that round-trips to the same
    double, which keeps CSVs diff-able and loss-free.
    """
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(out: Path) -> TrainingData:
    path = out / _DATA_FILE
    if not path.exists():
        raise FileNotFoundError(f"missing input artifact {path}; run `ddrobust collect` first")
    return TrainingData.load(path)


def _collect(cfg: ExperimentConfig, system: LtiSystem) -> TrainingData:
    return collect(system, cfg.n_experiments, cfg.t_steps,
                   seed=_child_seed(cfg.seed, _DOM_COLLECT))


def _support_k(cfg: ExperimentConfig, dim: int) -> int:
    """The configured support size, which must fit in vec(X) of length dim."""
    key, k = (("support.k", cfg.support_k) if cfg.support_k is not None
              else ("support.indices", len(cfg.support_indices)))
    if k > dim:
        raise ConfigError(f"config key {key} must fit in vec(X) of length {dim}, got {k}")
    return k


def _resolve_support(cfg: ExperimentConfig, data: TrainingData) -> np.ndarray:
    dim = data.p * data.n_experiments
    if cfg.support_indices is not None:
        idx = np.asarray(cfg.support_indices, dtype=int)
        if np.any(idx >= dim):
            raise ConfigError(f"config key support.indices must index vec(X) of length {dim}, "
                              f"got {int(idx.max())}")
        return np.sort(idx)
    rng = np.random.default_rng(_child_seed(cfg.seed, _DOM_SUPPORT))
    return random_support(dim, _support_k(cfg, dim), rng)


def _attach_b(bundle: JacobianBundle, cfg: ExperimentConfig, system: LtiSystem,
              data: TrainingData) -> JacobianBundle:
    if cfg.b_source == B_SOURCE_TRUE:
        return bundle.with_b(system.b, B_SOURCE_TRUE)
    return bundle.with_b(identify(data).b, B_SOURCE_IDENTIFIED)


def _fd_bundle(cfg: ExperimentConfig, system: LtiSystem, data: TrainingData,
               cmap: ControllerMap, support) -> JacobianBundle:
    """FD Jacobian of the map on the support, with the configured B attached."""
    return _attach_b(fd_jacobian(cmap, data, support), cfg, system, data)


def _load_bundle(cfg: ExperimentConfig, system: LtiSystem, data: TrainingData,
                 cmap: ControllerMap, out: Path) -> JacobianBundle:
    """The bundle in jacobian.json, which must be on the configured support, or
    a fresh FD bundle when there is none."""
    path = out / _JACOBIAN_FILE
    support = _resolve_support(cfg, data)
    if not path.exists():
        return _fd_bundle(cfg, system, data, cmap, support)
    bundle = JacobianBundle.load(path)
    if not np.array_equal(bundle.support, support):
        raise ConfigError(f"{path} is for support {bundle.support.tolist()}, but the config "
                          f"gives {support.tolist()}; rerun jacobian")
    return _attach_b(bundle, cfg, system, data)


def _bounds_at(a_cl: np.ndarray, bundle: JacobianBundle, sigma: float) -> BoundsReport:
    """Theorem-1 bounds with every support entry at noise level sigma."""
    sigmas = np.full(bundle.size, float(sigma))
    v_bar, v_lower = variance_params(bundle, sigmas)
    jmax_envelope(bundle, sigmas)  # raises if the variance envelope fails
    return theorem1_bounds(a_cl, v_bar, v_lower, b_source=bundle.b_source)


def _mc_at(cfg: ExperimentConfig, system: LtiSystem, data: TrainingData,
           cmap: ControllerMap, k_nom: np.ndarray, support: np.ndarray,
           bundle: JacobianBundle | None, idx: int, sigma: float) -> MonteCarloReport:
    """Monte Carlo estimate at grid point idx, every support entry at sigma."""
    model = PerturbationModel(support, np.full(len(support), float(sigma)))
    return estimate_instability(system, data, cmap, k_nom, model, cfg.trials, mode=cfg.mode,
                                seed=_child_seed(cfg.seed, _DOM_MC, idx), bundle=bundle)


def cmd_collect(cfg: ExperimentConfig) -> list[Path]:
    data = _collect(cfg, cfg.build_system())
    out = _out_dir(cfg)
    data.save(out / _DATA_FILE)
    _write_csv(out / "collect.csv",
               ["t_steps", "n_experiments", "n", "m", "p", "seed"],
               [[data.t, data.n_experiments, data.n, data.m, data.p, cfg.seed]])
    return [out / _DATA_FILE, out / "collect.csv"]


def cmd_design(cfg: ExperimentConfig) -> list[Path]:
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    gain = cmap.evaluate_flagged(data)
    chk = check_a1(system, gain.k)
    _write_json(out / _CONTROLLER_FILE, {
        "map": cmap.descriptor(),
        "k": gain.k.tolist(),
        "rho": chk.rho,
        "stable": chk.stable,
        "rank_deficient": gain.rank_deficient,
    })
    _write_csv(out / "design.csv",
               ["map", "rho", "stable", "rank_deficient"],
               [[cmap.name, chk.rho, chk.stable, gain.rank_deficient]])
    return [out / _CONTROLLER_FILE, out / "design.csv"]


def cmd_jacobian(cfg: ExperimentConfig) -> list[Path]:
    out = _out_dir(cfg)
    data = _load_data(out)
    bundle = _fd_bundle(cfg, cfg.build_system(), data, cfg.build_map(),
                        _resolve_support(cfg, data))
    bundle.save(out / _JACOBIAN_FILE)
    _write_csv(out / "jacobian.csv",
               ["k", "j_max", "b_source", "failed_columns"],
               [[bundle.size, j_max(bundle), bundle.b_source, len(bundle.failures)]])
    return [out / _JACOBIAN_FILE, out / "jacobian.csv"]


def cmd_bounds(cfg: ExperimentConfig) -> list[Path]:
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    bundle = _load_bundle(cfg, system, data, cmap, out)
    a_cl = system.a + system.b @ cmap.evaluate(data)
    rows = []
    reports = []
    for sigma in cfg.sigma_grid:
        report = _bounds_at(a_cl, bundle, sigma)
        reports.append(report.to_json() | {"sigma_scale": sigma})
        rows.append([sigma, report.v_bar, report.v_lower, report.kappa, report.mu,
                     report.rho_nominal, report.lower, report.upper_raw,
                     report.upper_clamped])
    _write_json(out / "bounds.json", reports)
    _write_csv(out / "bounds.csv",
               ["sigma_scale", "v_bar", "v_lower", "kappa", "mu", "rho",
                "lower", "upper_raw", "upper_clamped"],
               rows)
    return [out / "bounds.json", out / "bounds.csv"]


def cmd_mc(cfg: ExperimentConfig) -> list[Path]:
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    bundle = None
    if cfg.mode == MODE_FIRST_ORDER:
        bundle = _load_bundle(cfg, system, data, cmap, out)
        support = bundle.support
    else:
        support = _resolve_support(cfg, data)
    k_nom = cmap.evaluate(data)
    rows = []
    reports = []
    for idx, sigma in enumerate(cfg.sigma_grid):
        report = _mc_at(cfg, system, data, cmap, k_nom, support, bundle, idx, sigma)
        reports.append(report.to_json() | {"sigma_scale": sigma})
        rows.append([sigma, report.trials, report.p_hat, report.ci_low,
                     report.ci_high, report.mode, report.seed])
    _write_json(out / "mc.json", reports)
    _write_csv(out / "mc.csv",
               ["sigma_scale", "trials", "p_hat", "ci_low", "ci_high", "mode", "seed"],
               rows)
    return [out / "mc.json", out / "mc.csv"]


def cmd_fig1(cfg: ExperimentConfig) -> list[Path]:
    """Bounds-versus-Monte-Carlo sweep over the sigma grid (one CSV row per sigma).

    Self-contained: runs the collect, design and jacobian stages in memory,
    then the bounds and mc stages per grid point. Bound columns are floored
    at 2.2e-16 so the curves stay positive on a log axis; the empirical
    columns are written exactly as estimated. A grid point with no estimate
    (every trial failed) becomes a NaN row and the sweep continues; any other
    error, such as an unstable or singular nominal loop or a violated
    variance envelope, ends the command.
    """
    out = _out_dir(cfg)
    system = cfg.build_system()
    cmap = cfg.build_map()
    data = _collect(cfg, system)
    k_nom = cmap.evaluate(data)
    a_cl = system.a + system.b @ k_nom
    theorem1_bounds(a_cl, 0.0, 0.0)  # refuses an unstable or singular loop before the bundle
    bundle = _fd_bundle(cfg, system, data, cmap, _resolve_support(cfg, data))
    rows = []
    for idx, sigma in enumerate(cfg.sigma_grid):
        try:
            report = _bounds_at(a_cl, bundle, sigma)
            mc = _mc_at(cfg, system, data, cmap, k_nom, bundle.support, bundle, idx, sigma)
            rows.append([sigma, max(report.lower, EPS_FLOOR), mc.p_hat,
                         mc.ci_low, mc.ci_high,
                         max(report.upper_clamped, EPS_FLOOR)])
        except NoEstimateError as exc:
            print(f"fig1: sigma={sigma:g} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            rows.append([sigma, math.nan, math.nan, math.nan, math.nan, math.nan])
    path = out / "fig1.csv"
    _write_csv(path, ["sigma", "lower", "p_hat", "ci_low", "ci_high", "upper_clamped"],
               rows)
    return [path]


def cmd_fig2(cfg: ExperimentConfig) -> list[Path]:
    """Worst-case sensitivity J_max = max_i ||B J_i|| versus record length.

    For each T in t_list, repeats fig2_trials times: fresh data, fresh random
    support of the configured size, FD Jacobian, J_max. Reports mean and
    sample std per T. No stability requirement — the sensitivity is defined
    whether or not the resulting gain stabilizes.
    """
    out = _out_dir(cfg)
    system = cfg.build_system()
    cmap = cfg.build_map()
    rows = []
    for t_idx, t_steps in enumerate(cfg.t_list):
        j_maxes = []
        for trial in range(cfg.fig2_trials):
            data = collect(system, cfg.n_experiments, t_steps,
                           seed=_child_seed(cfg.seed, _DOM_FIG2, t_idx, trial, 0))
            rng = np.random.default_rng(_child_seed(cfg.seed, _DOM_FIG2, t_idx, trial, 1))
            dim = data.p * data.n_experiments
            support = random_support(dim, _support_k(cfg, dim), rng)
            j_maxes.append(j_max(_fd_bundle(cfg, system, data, cmap, support)))
        mean = float(np.mean(j_maxes))
        std = float(np.std(j_maxes, ddof=1)) if len(j_maxes) > 1 else 0.0
        rows.append([t_steps, mean, std])
    path = out / "fig2.csv"
    _write_csv(path, ["t_steps", "j_max_mean", "j_max_std"], rows)
    return [path]


_COMMANDS = {
    "collect": cmd_collect,
    "design": cmd_design,
    "jacobian": cmd_jacobian,
    "bounds": cmd_bounds,
    "mc": cmd_mc,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults apply when omitted)")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed, overrides the config")
    common.add_argument("--out", type=Path, default=None,
                        help="output directory, overrides the config")
    common.add_argument("--mode", choices=["exact", "first-order"], default=None,
                        help="Monte Carlo mode, overrides the config")
    common.add_argument("--b-source", dest="b_source",
                        choices=[B_SOURCE_TRUE, B_SOURCE_IDENTIFIED], default=None,
                        help="which B enters the B J_i products")

    parser = argparse.ArgumentParser(
        prog="ddrobust",
        description="Robustness certificates for data-driven controllers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "collect": "simulate experiments and store the training record",
        "design": "evaluate the controller map and report closed-loop stability",
        "jacobian": "finite-difference sensitivities on the perturbation support",
        "bounds": "Theorem-style stability bounds per sigma",
        "mc": "Monte Carlo instability estimate per sigma",
        "fig1": "bounds vs Monte Carlo sweep (CSV)",
        "fig2": "worst-case sensitivity vs record length (CSV)",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name in ("bounds", "mc"):
            p.add_argument("--sigma", type=float, default=None,
                           help="single sigma scale, replaces the sweep")
        if name == "mc":
            p.add_argument("--trials", type=int, default=None,
                           help="Monte Carlo trials, overrides the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        written = _COMMANDS[args.command](cfg)
    except Exception as exc:
        print(f"ddrobust: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
