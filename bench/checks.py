"""Correctness checks on the artifacts of one workload rep.

A rep passes when every command exited 0 and its CSVs are finite and
consistent: in each sigma row the Monte Carlo interval must meet the
analytic bounds (lower <= ci_high and ci_low <= upper_clamped). The
reference rep is also compared against values captured when the benchmark
was added, and the optimality of the nominal ce-lqr gain is measured here
with numpy alone, independently of the package's Riccati solver.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# Relative tolerance for values derived from ce-lqr FD columns. The
# fixed-point Riccati solver stops on a 1e-10 step, so each FD column
# carries about 1e-5 relative error (1e-10 over 2h, h ~ 6e-6) that a more
# accurate solver removes. Variances are quadratic in the columns (2e-5);
# the lower bound's Gaussian tail multiplies that by up to x^2/2 ~ 32 before
# it reaches the 2.2e-16 floor, and the upper bound's exponent by at most
# ln(2n / 2.2e-16) ~ 38. Both stay below 1e-3; 2e-3 leaves a margin.
REL_CE_LQR = 2e-3
# pinv FD columns carry rounding error only (about 1e-12 relative); 1e-8
# admits a different summation order in a batched pseudoinverse.
REL_PINV = 1e-8
# Probabilities below this are rounding-level and compare as equal.
ABS_PROB = 1e-15
# First-order trials test the linearised loop built from the FD columns, so
# a trial within ~1e-5 of rho = 1 may flip when the columns move; exact-mode
# gains move by ~1e-10 only, so their counts must match.
FLIPS_FIRST_ORDER = 1

# (rtol, atol) per reference value and workload.
TOLERANCES = {
    "fig1-exact": {"lower": (REL_CE_LQR, ABS_PROB),
                   "upper_clamped": (REL_CE_LQR, ABS_PROB),
                   "unstable": (0.0, 0)},
    "fig1-first-order": {"lower": (REL_CE_LQR, ABS_PROB),
                         "upper_clamped": (REL_CE_LQR, ABS_PROB),
                         "unstable": (0.0, FLIPS_FIRST_ORDER)},
    "fig2-pinv": {"j_max_mean": (REL_PINV, 0.0)},
    "stages": {"v_bar": (REL_CE_LQR, 0.0),
               "v_lower": (REL_CE_LQR, 0.0),
               "lower": (REL_CE_LQR, ABS_PROB),
               "upper_clamped": (REL_CE_LQR, ABS_PROB),
               "j_max": (REL_CE_LQR, 0.0),
               "unstable": (0.0, FLIPS_FIRST_ORDER)},
}


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _floats(rows, column) -> list[float]:
    return [float(r[column]) for r in rows]


def _containment(problems, where, bounds_rows, mc_rows, sigma_key) -> None:
    for b, m in zip(bounds_rows, mc_rows):
        lower, upper = float(b["lower"]), float(b["upper_clamped"])
        ci_low, ci_high = float(m["ci_low"]), float(m["ci_high"])
        if not (lower <= ci_high and ci_low <= upper):
            problems.append(
                f"{where}: sigma={b[sigma_key]} bounds [{lower!r}, {upper!r}] "
                f"miss the MC interval [{ci_low!r}, {ci_high!r}]")


def _nonfinite_rows(rows, columns) -> int:
    return sum(not all(math.isfinite(float(r[c])) for c in columns) for r in rows)


def check_rep(workload: str, out: Path) -> tuple[list[str], Counter, dict]:
    """Check one rep's artifacts.

    Returns the problems found, the fig1 row counts (``rows``,
    ``nan_rows``) and the values the reference comparison uses.
    """
    problems: list[str] = []
    counts: Counter = Counter()
    values: dict = {}
    if workload.startswith("fig1"):
        header, rows = _read_csv(out / "fig1.csv")
        if header != ["sigma", "lower", "p_hat", "ci_low", "ci_high", "upper_clamped"]:
            problems.append(f"fig1.csv header {header}")
        counts["rows"] = len(rows)
        counts["nan_rows"] = _nonfinite_rows(rows, header)
        if counts["nan_rows"]:
            problems.append(f"fig1.csv has {counts['nan_rows']} non-finite rows")
        else:
            _containment(problems, "fig1.csv", rows, rows, "sigma")
            values = {"lower": _floats(rows, "lower"),
                      "upper_clamped": _floats(rows, "upper_clamped")}
    elif workload == "fig2-pinv":
        header, rows = _read_csv(out / "fig2.csv")
        if _nonfinite_rows(rows, header) or any(float(r["j_max_mean"]) <= 0 for r in rows):
            problems.append("fig2.csv has non-finite or non-positive rows")
        values = {"j_max_mean": _floats(rows, "j_max_mean")}
    elif workload == "stages":
        _, design = _read_csv(out / "design.csv")
        if design[0]["stable"] != "True":
            problems.append(f"design reports an unstable loop: {design[0]}")
        bounds_header, bounds = _read_csv(out / "bounds.csv")
        _, mc = _read_csv(out / "mc.csv")
        _, jac = _read_csv(out / "jacobian.csv")
        mc_columns = ["sigma_scale", "trials", "p_hat", "ci_low", "ci_high"]
        if (_nonfinite_rows(bounds, bounds_header) or _nonfinite_rows(mc, mc_columns)
                or len(bounds) != len(mc)):
            problems.append("bounds.csv / mc.csv rows are non-finite or unmatched")
        else:
            _containment(problems, "bounds.csv vs mc.csv", bounds, mc, "sigma_scale")
        values = {key: _floats(bounds, key)
                  for key in ("v_bar", "v_lower", "lower", "upper_clamped")}
        values["j_max"] = _floats(jac, "j_max")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems, counts, values


def digest(out: Path) -> str:
    """SHA-256 over every artifact's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_reference(workload: str, values: dict, reference: dict) -> list[str]:
    problems = []
    for key, (rtol, atol) in TOLERANCES[workload].items():
        got, want = values.get(key), reference.get(key)
        if got is None or want is None or len(got) != len(want):
            problems.append(f"reference {key}: got {got}, want {want}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= atol + rtol * abs(w):
                problems.append(f"reference {key}[{i}]: got {g!r}, want {w!r} "
                                f"(rtol {rtol}, atol {atol})")
    return problems


def lqr_residual(out: Path) -> float:
    """Relative LQR optimality residual of the designed gain.

    Identifies (A, B) from data.json by least squares, evaluates the cost
    P of controller.json's gain K from the closed-loop Lyapunov equation
    (Kronecker form), and returns ||K + (R + B'PB)^-1 B'PA|| / ||K||: the
    size of one policy-improvement step, zero exactly at the optimum.
    """
    data = json.loads((out / "data.json").read_text(encoding="utf-8"))
    ctrl = json.loads((out / "controller.json").read_text(encoding="utf-8"))
    n, m, t = data["n"], data["m"], data["t"]
    states = np.asarray(data["x"], dtype=float)[:, 0].reshape((n, t), order="F")
    x0 = np.column_stack([np.asarray(data["x0s"], dtype=float)[:, 0], states[:, :-1]])
    u0 = np.asarray(data["u"], dtype=float)[:, 0].reshape((m, t), order="F")
    ab = np.linalg.lstsq(np.vstack([x0, u0]).T, states.T, rcond=None)[0].T
    a, b = ab[:, :n], ab[:, n:]
    hyper = ctrl["map"]["hyperparameters"]
    q = np.asarray(hyper.get("q", np.eye(n)), dtype=float)
    r = np.asarray(hyper.get("r", np.eye(m)), dtype=float)
    k = np.asarray(ctrl["k"], dtype=float)
    a_cl = a + b @ k
    cost = (q + k.T @ r @ k).reshape(-1, order="F")
    p = np.linalg.solve(np.eye(n * n) - np.kron(a_cl.T, a_cl.T), cost)
    p = p.reshape((n, n), order="F")
    step = k + np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    return float(np.linalg.norm(step) / np.linalg.norm(k))
