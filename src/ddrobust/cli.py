"""Reproducible experiment runner for the robustness toolkit.

JSON config in, JSON + CSV artifacts out. Every command is a pure function
of its config and input artifacts — no timestamps, no hidden state — so a
rerun with the same seed produces byte-identical files. Artifacts live in
the configured output directory under fixed names (data.json,
controller.json, jacobian.json, ...), which is how downstream commands find
their inputs. This module alone reads and writes files: every JSON artifact
goes through ``_write_json`` and ``_read_json``, and the library types only
convert to and from dicts.

The front end is one parser: ``ddrobust <command> [flags]``. Each flag is
written into the config document under its key before the one validation
of ``ExperimentConfig.from_json``, so it overrides that key for every
command. Every failure, a usage error included, exits 2 with one line,
``ddrobust: error: <type>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .lti import LtiSystem, TrainingData, as_support, collect, collect_records, vehicle_model
from .ctrlmaps import ControllerMap, check_a1, identify, map_from_descriptor
from .sensitivity import (
    B_SOURCE_IDENTIFIED,
    B_SOURCE_TRUE,
    JacobianBundle,
    PerturbationModel,
    fd_jacobian,
)
from .bounds import j_max, theorem1_sweep
from .mc import MonteCarloReport, NoEstimateError, estimate_instability, random_support

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

# Floor of the bound columns that ``fig1`` plots, so the curves stay positive
# on a log axis (machine epsilon of float64).
EPS_FLOOR = 2.2e-16


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


def _as_config(key: str, func, *args):
    """``func(*args)``, its ValueError re-raised as a ConfigError naming the config key."""
    try:
        return func(*args)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    if not (0 < lo < hi):
        raise ConfigError(f"config key sigma.log_range must have 0 < lo < hi, got [{lo}, {hi}]")
    if points < 2:
        raise ConfigError(f"config key sigma.points must be >= 2, got {points}")
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


def _matrix(value, key: str) -> tuple:
    """The matrix of the config key ``key``: a non-empty list of number rows of one length."""
    rows = _typed(value, key, list, list)
    matrix = tuple(tuple(_typed(row, key, list, float)) for row in rows)
    if not rows or not rows[0] or len({len(row) for row in rows}) > 1:
        raise ConfigError(f"config key {key} must be a non-empty matrix with "
                          f"rows of one length, got {rows!r}")
    return matrix


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by all commands."""

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
    mode: str = "exact"
    seed: int = 0
    b_source: str = B_SOURCE_TRUE
    out: str = "runs"
    t_list: tuple[int, ...] = (100, 200, 400)
    fig2_trials: int = 15

    def __post_init__(self):
        for key, least in (("t_steps", 1), ("n_experiments", 1), ("trials", 1),
                           ("fig2_trials", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"config key {key} must be >= {least}, "
                                  f"got {getattr(self, key)}")
        if self.mode not in ("exact", "first-order"):
            raise ConfigError(f"mode must be exact or first-order, got {self.mode!r}")
        if self.b_source not in (B_SOURCE_TRUE, B_SOURCE_IDENTIFIED):
            raise ConfigError(f"b_source must be true or identified, got {self.b_source!r}")
        if not self.sigma_grid or not all(0 < s < math.inf for s in self.sigma_grid):
            raise ConfigError("config key sigma.grid must be nonempty, positive and finite, "
                              f"got {list(self.sigma_grid)}")
        if (self.support_k is None) == (self.support_indices is None):
            raise ConfigError("config key support needs exactly one of k or indices, got "
                              + ("k, indices" if self.support_k is not None else "none"))
        if self.support_k is not None and self.support_k < 1:
            raise ConfigError(f"config key support.k must be >= 1, got {self.support_k}")
        if self.support_indices is not None:
            _as_config("support.indices", as_support, self.support_indices)
        if not self.t_list or any(t < 1 for t in self.t_list):
            raise ConfigError("config key t_list must be nonempty positive integers, "
                              f"got {list(self.t_list)}")
        # Fails here, before any computation, when the map name is unknown or
        # the plant is malformed.
        self.build_map()
        self.build_system()

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
                    kwargs[key] = _matrix(sysdoc[key], f"system.{key}")
        if "map" in doc:
            mapdoc = _typed(doc["map"], "map", dict)
            _check_keys(mapdoc, {"name", "hyperparameters"}, "map")
            kwargs["map_name"] = _typed(mapdoc.get("name", "ce-lqr"), "map.name", str)
            hyper = dict(_typed(mapdoc.get("hyperparameters", {}), "map.hyperparameters", dict))
            for key in ("q", "r"):
                if key in hyper:
                    hyper[key] = _matrix(hyper[key], f"map.hyperparameters.{key}")
            kwargs["map_hyper"] = hyper
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
            if len({"grid", "log_range", "value"} & set(sigdoc)) != 1 or (
                    "points" in sigdoc and "log_range" not in sigdoc):
                got = ", ".join(sorted(sigdoc)) or "none"
                raise ConfigError("config key sigma needs one of grid, log_range (with "
                                  f"optional points) or value, got {got}")
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
            else:
                kwargs["sigma_grid"] = (_typed(sigdoc["value"], "sigma.value", float),)
        for key in ("t_steps", "n_experiments", "trials", "seed", "fig2_trials"):
            if key in doc:
                kwargs[key] = _typed(doc[key], key, int)
        for key in ("mode", "b_source", "out"):
            if key in doc:
                kwargs[key] = _typed(doc[key], key, str)
        if "t_list" in doc:
            kwargs["t_list"] = tuple(_typed(doc["t_list"], "t_list", list, int))
        return cls(**kwargs)

    def build_system(self) -> LtiSystem:
        if self.system_name == "vehicle":
            return _as_config("system", vehicle_model, self.ts)
        return _as_config("system", LtiSystem, self.a, self.b)

    def build_map(self) -> ControllerMap:
        return _as_config("map", map_from_descriptor, self.map_name, self.map_hyper)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The JSON config (an empty one when none is given) with each given flag
    written in under its key, validated once by ``ExperimentConfig.from_json``."""
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            doc[key] = {"value": value} if key == "sigma" else value
    return ExperimentConfig.from_json(doc)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Each cell is its str(), for a float or numpy double the shortest round-trip string."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


_JSON_SCALARS = {float, int, bool, type(None)}


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` nested at ``indent``.

    With an indent, json encodes in pure Python. A list of numbers, and a list
    of non-empty lists of numbers, go instead through json's C encoder in one
    compact ``json.dumps`` and are re-indented by whole-string replaces, which
    are exact because no number holds ", " or a bracket. Everything else
    recurses. Dict keys must be strings.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        bad = [key for key in obj if not isinstance(key, str)]
        if bad:
            raise TypeError(f"JSON artifact keys must be strings, got {bad[0]!r}")
        items = (f"{json.dumps(key)}: {_encode(obj[key], inner)}" for key in sorted(obj))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    types = set(map(type, obj))
    if types <= _JSON_SCALARS:
        body = json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        return f"[\n{inner}{body}\n{indent}]"
    if (types <= {list, tuple} and all(obj)
            and set(map(type, itertools.chain.from_iterable(obj))) <= _JSON_SCALARS):
        deeper = inner + "  "
        body = (json.dumps(obj)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{deeper}")
                .replace(", ", ",\n" + deeper))
        return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{indent}]"
    items = (_encode(item, inner) for item in obj)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _write_json(path: Path, doc) -> None:
    """Every JSON artifact's one format, ``json.dumps(doc, indent=2, sort_keys=True)``
    and a final newline. A document that fails to encode leaves the file untouched."""
    text = _encode(doc, "") + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(cls, path: Path):
    """``cls.from_json`` of a JSON artifact; every parse error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return cls.from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(out: Path) -> TrainingData:
    path = out / _DATA_FILE
    if not path.exists():
        raise FileNotFoundError(f"missing input artifact {path}; run `ddrobust collect` first")
    return _read_json(TrainingData, path)


def _record_digest(out: Path) -> str:
    """SHA-256 of data.json, which names the record a saved bundle was taken on."""
    return hashlib.sha256((out / _DATA_FILE).read_bytes()).hexdigest()


def _collect(cfg: ExperimentConfig, system: LtiSystem) -> TrainingData:
    return collect(system, cfg.n_experiments, cfg.t_steps,
                   seed=_child_seed(cfg.seed, _DOM_COLLECT))


def _support(cfg: ExperimentConfig, dim: int, seed: int) -> np.ndarray:
    """The configured support in vec(X) of length ``dim``: the given indices,
    sorted, or support.k distinct random ones drawn from ``seed``."""
    if cfg.support_indices is not None:
        return np.sort(_as_config("support.indices", as_support, cfg.support_indices, dim))
    return _as_config("support.k", random_support, dim, cfg.support_k,
                      np.random.default_rng(seed))


def _resolve_support(cfg: ExperimentConfig, data: TrainingData) -> np.ndarray:
    return _support(cfg, data.x.size, _child_seed(cfg.seed, _DOM_SUPPORT))


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
    """The bundle in jacobian.json, which must be of the configured map, on the
    configured support and of the record in data.json, or a fresh FD bundle
    when there is none."""
    path = out / _JACOBIAN_FILE
    support = _resolve_support(cfg, data)
    if not path.exists():
        return _fd_bundle(cfg, system, data, cmap, support)
    bundle = _read_json(JacobianBundle, path)
    for what, saved, given in (("map", bundle.map, cmap.descriptor()),
                               ("support", bundle.support.tolist(), support.tolist())):
        if saved != given:
            raise ConfigError(f"{path} is for {what} {json.dumps(saved, sort_keys=True)}, but "
                              f"the config gives {json.dumps(given, sort_keys=True)}; "
                              "rerun jacobian")
    record = _record_digest(out)
    if bundle.record != record:
        raise ConfigError(f"{path} is for record {json.dumps(bundle.record)}, but "
                          f"{out / _DATA_FILE} is {json.dumps(record)}; rerun jacobian")
    return _attach_b(bundle, cfg, system, data)


def _mc_at(cfg: ExperimentConfig, system: LtiSystem, data: TrainingData,
           cmap: ControllerMap, k_nom: np.ndarray, support: np.ndarray,
           bundle: JacobianBundle | None, idx: int, sigma: float) -> MonteCarloReport:
    """Monte Carlo estimate at grid point idx, every support entry at sigma:
    of the linearized loop of ``bundle`` in first-order mode, of the map in
    exact mode."""
    model = PerturbationModel(support, np.full(len(support), float(sigma)))
    return estimate_instability(system, data, cmap, k_nom, model, cfg.trials,
                                seed=_child_seed(cfg.seed, _DOM_MC, idx),
                                bundle=bundle if cfg.mode == "first-order" else None)


def cmd_collect(cfg: ExperimentConfig) -> list[Path]:
    """Simulate the experiments and store the training record."""
    data = _collect(cfg, cfg.build_system())
    out = _out_dir(cfg)
    _write_json(out / _DATA_FILE, data.to_json())
    _write_csv(out / "collect.csv",
               ["t_steps", "n_experiments", "n", "m", "p", "seed"],
               [[data.t, data.n_experiments, data.n, data.m, data.p, cfg.seed]])
    return [out / _DATA_FILE, out / "collect.csv"]


def cmd_design(cfg: ExperimentConfig) -> list[Path]:
    """Evaluate the controller map and report closed-loop stability."""
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    k = cmap.evaluate(data)
    chk = check_a1(system, k)
    rank_deficient = cmap.rank_deficient(data)
    _write_json(out / _CONTROLLER_FILE, {
        "map": cmap.descriptor(),
        "k": k.tolist(),
        "rho": chk.rho,
        "stable": chk.stable,
        "rank_deficient": rank_deficient,
    })
    _write_csv(out / "design.csv",
               ["map", "rho", "stable", "rank_deficient"],
               [[cmap.name, chk.rho, chk.stable, rank_deficient]])
    return [out / _CONTROLLER_FILE, out / "design.csv"]


def cmd_jacobian(cfg: ExperimentConfig) -> list[Path]:
    """Finite-difference sensitivities of the map on the perturbation support."""
    out = _out_dir(cfg)
    data = _load_data(out)
    bundle = replace(_fd_bundle(cfg, cfg.build_system(), data, cfg.build_map(),
                                _resolve_support(cfg, data)), record=_record_digest(out))
    _write_json(out / _JACOBIAN_FILE, bundle.to_json())
    _write_csv(out / "jacobian.csv",
               ["k", "j_max", "b_source", "failed_columns"],
               [[bundle.size, j_max(bundle), bundle.b_source, len(bundle.failures)]])
    return [out / _JACOBIAN_FILE, out / "jacobian.csv"]


def cmd_bounds(cfg: ExperimentConfig) -> list[Path]:
    """Theorem-1 stability bounds per sigma."""
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    bundle = _load_bundle(cfg, system, data, cmap, out)
    a_cl = system.a + system.b @ bundle.nominal_gain(cmap, data)
    rows = []
    reports = []
    for sigma, report in zip(cfg.sigma_grid, theorem1_sweep(a_cl, bundle, cfg.sigma_grid)):
        reports.append(report.to_json() | {"sigma_scale": sigma, "b_source": bundle.b_source})
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
    """Monte Carlo instability estimate per sigma."""
    out = _out_dir(cfg)
    data = _load_data(out)
    system = cfg.build_system()
    cmap = cfg.build_map()
    if cfg.mode == "first-order":
        bundle = _load_bundle(cfg, system, data, cmap, out)
        support, k_nom = bundle.support, bundle.nominal_gain(cmap, data)
    else:
        bundle, support, k_nom = None, _resolve_support(cfg, data), cmap.evaluate(data)
    rows = []
    reports = []
    for idx, sigma in enumerate(cfg.sigma_grid):
        report = _mc_at(cfg, system, data, cmap, k_nom, support, bundle, idx, sigma)
        reports.append(report.to_json() | {
            "sigma_scale": sigma, "b_source": bundle.b_source if bundle else None})
        rows.append([sigma, report.trials, report.p_hat, report.ci_low,
                     report.ci_high, report.mode, report.seed])
    _write_json(out / "mc.json", reports)
    _write_csv(out / "mc.csv",
               ["sigma_scale", "trials", "p_hat", "ci_low", "ci_high", "mode", "seed"],
               rows)
    return [out / "mc.json", out / "mc.csv"]


def cmd_fig1(cfg: ExperimentConfig) -> list[Path]:
    """Bounds-versus-Monte-Carlo sweep over the sigma grid (one CSV row per sigma).

    Self-contained: runs the collect and jacobian stages in memory, takes the
    nominal gain from the bundle, then the bounds stage for the whole grid
    and the mc stage per grid point. Bound columns are floored
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
    bundle = fd_jacobian(cmap, data, _resolve_support(cfg, data))
    k_nom = bundle.nominal_gain(cmap, data)
    a_cl = system.a + system.b @ k_nom
    bundle = _attach_b(bundle, cfg, system, data)
    reports = theorem1_sweep(a_cl, bundle, cfg.sigma_grid)
    rows = []
    for idx, (sigma, report) in enumerate(zip(cfg.sigma_grid, reports)):
        try:
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

    For each T in t_list, repeats fig2_trials times: fresh data, the support
    (support.indices as given, or a fresh random one of support.k entries),
    FD Jacobian, J_max. Reports mean and sample std per T. No stability
    requirement — the sensitivity is defined whether or not the resulting
    gain stabilizes. A support that does not fit the shortest record is
    refused before any work. The records roll out together, as
    ``collect_records`` groups them.
    """
    out = _out_dir(cfg)
    system = cfg.build_system()
    cmap = cfg.build_map()
    _support(cfg, system.n * min(cfg.t_list) * cfg.n_experiments, 0)  # refuses; draw unused
    records = collect_records(system, cfg.n_experiments, [
        (t_steps, _child_seed(cfg.seed, _DOM_FIG2, t_idx, trial, 0))
        for t_idx, t_steps in enumerate(cfg.t_list) for trial in range(cfg.fig2_trials)])
    rows = []
    for t_idx, t_steps in enumerate(cfg.t_list):
        j_maxes = []
        for trial, data in enumerate(itertools.islice(records, cfg.fig2_trials)):
            support = _support(cfg, data.x.size,
                               _child_seed(cfg.seed, _DOM_FIG2, t_idx, trial, 1))
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises, so ``main`` reports it like any other failure."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, as it costs about 0.2 ms."""
    parser = _Parser(prog="ddrobust", formatter_class=argparse.RawTextHelpFormatter,
                     description="Robustness certificates for data-driven controllers.\n"
                     "Each flag overrides the config key of its name for every command.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="\n".join(
        f"{name}: {cmd.__doc__.splitlines()[0]}" for name, cmd in _COMMANDS.items()))
    parser.add_argument("--config", help="JSON experiment config (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--mode", help="Monte Carlo mode: exact or first-order")
    parser.add_argument("--b-source", help="which B enters the B J_i products: true or identified")
    parser.add_argument("--sigma", type=float, help="one sigma scale in place of the sigma sweep")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
