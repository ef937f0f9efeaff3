"""ddrobust benchmark: one workload per call, run through the public CLI.

    python3 bench/run.py --workload fig1-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ddrobust is imported from its ``src``.
The run starts WORKERS fresh single-process interpreters one after another
(BLAS pinned to one thread) and gives each an equal share of ``--seconds``
for timed reps; see worker.py for what each does. It prints one line per
metric, an environment record, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from the spans of the traced reps. The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the run could not
start (no ddrobust source tree next to the benchmark).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from instrument import (
    LAYERS,
    concat_spans,
    dare_iterations,
    failure_counts,
    nesting_errors,
    root_seconds,
    self_times,
    span_totals,
)
from workloads import REFERENCE_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 4
# Gain checks (collect + design + residual) per worker, after its timed reps.
GAIN_CHECKS = 3
# Workers still running this long after the run's measuring time are killed.
RUN_GRACE_S = 120.0
# Reference seconds: a time measured while the calibration probe
# (worker.calibrate) took c seconds is reported as time * CALIB_REF_S / c,
# the time it would take on a machine that runs the probe in CALIB_REF_S.
CALIB_REF_S = 0.012
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_worker(spec: dict, work: Path,
               deadline: float) -> tuple[float, dict | None, str | None]:
    """Start one worker; return (set-up seconds, result, error).

    The worker is killed if it has not ended by ``deadline``
    (a ``time.perf_counter`` value).
    """
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **BLAS_PIN)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - start, 0))[0]:
            raise subprocess.TimeoutExpired(proc.args, deadline - start)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return math.nan, None, "worker timed out"
    if ready.strip() != "ready" or proc.returncode != 0:
        return math.nan, None, f"worker exited {proc.returncode} (first line {ready!r})"
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if spec["trace"]:
        result["spans"] = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    return setup_s, result, None


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under the checkout's .bench_work, removed afterwards."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=work_root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return f"p{pct:g}", ordered[rank - 1]
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def ref_seconds(seconds: float, calib_s: float) -> float:
    return seconds * CALIB_REF_S / calib_s


def end_to_end(setups, results, reps) -> dict:
    residuals = [g for res in results for g in res["gain_resid"]]
    return {
        "setup_s": (statistics.median(ref_seconds(setup, res["setup_calib_s"])
                                      for setup, res in zip(setups, results)), "s"),
        "wall_s": (statistics.median(ref_seconds(r["wall"], r["calib_s"]) for r in reps), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in results), "MB"),
        "gain_resid": (statistics.median(residuals), "1"),
    }


def per_layer(results, reps, problems) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    spans = concat_spans(res["spans"] for res in results)
    n = len(traced)
    # Self times partition the traced wall time only if every span lies in
    # its parent and siblings do not overlap, i.e. no self time is negative.
    if nesting_errors(spans) or min(self_times(spans)) < -1e-9:
        problems.append("spans overlap or leave their parent; self times are no partition")
    wall = root_seconds(spans)
    totals = span_totals(spans)
    counts = Counter()
    for r in traced:
        counts.update(r["counts"])

    def total(key, field):
        return totals.get(key, {}).get(field, 0)

    iters = dare_iterations(spans)
    mc_inclusive = sum(s[3] - s[2] for s in spans if s[0] == "mc.estimate_instability")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (total(layer, "calls") / n, "count")
        metrics[f"{layer}.s"] = (total(layer, "s") / n, "s")
        metrics[f"{layer}.failed"] = (total(layer, "failed") / n, "count")
    for name, fields in (
        ("ctrlmaps.dare_solve", ("calls", "s", "failed")),
        ("ctrlmaps.evaluate", ("calls", "s")),
        ("ctrlmaps.identify", ("s",)),
        ("mc.estimate_instability", ("s",)),
        ("linalg.spectral_radius", ("calls", "s")),
        ("linalg.pseudoinverse", ("calls", "s")),
        ("sensitivity.first_order_acl", ("calls", "s")),
        ("sensitivity.fd_jacobian", ("calls", "s")),
        ("lti.collect", ("calls", "s")),
    ):
        for field in fields:
            unit = "s" if field == "s" else "count"
            metrics[f"{name}.{field}"] = (total(name, field) / n, unit)
    metrics["ctrlmaps.dare_solve.iters_p50"] = (
        statistics.median(iters) if iters else 0, "count")
    metrics["ctrlmaps.dare_solve.iters_max"] = (max(iters, default=0), "count")
    metrics["mc.trials"] = (counts["trials"] / n, "count")
    metrics["mc.skipped"] = (counts["skipped"] / n, "count")
    metrics["mc.trial_us"] = (
        1e6 * mc_inclusive / counts["trials"] if counts["trials"] else 0.0, "us")
    metrics["mc.useful_ratio"] = (
        (counts["trials"] - counts["skipped"]) / counts["trials"]
        if counts["trials"] else 1.0, "1")
    metrics["sensitivity.fd_probes"] = (2 * counts["fd_cols"] / n, "count")
    metrics["sensitivity.fd_failed_cols"] = (counts["fd_failed"] / n, "count")
    metrics["cli.bytes_written"] = (sum(r["bytes"] for r in traced) / n, "B")
    traced_wall = statistics.median(ref_seconds(r["wall"], r["calib_s"]) for r in traced)
    untraced_wall = statistics.median(ref_seconds(r["wall"], r["calib_s"]) for r in untraced)
    metrics["trace.wall_s"] = (wall / n, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "1")
    metrics["trace.reps"] = (n, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ddrobust" / "__init__.py").is_file():
        print(f"bench: no ddrobust source tree at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ref = reference["workloads"].get(workload.name)
    if ref is not None and (ref["config"] != workload.config
                            or reference["seed"] != REFERENCE_SEED):
        ref = None  # stale: the workload changed since the capture

    deadline = time.perf_counter() + args.seconds + RUN_GRACE_S
    setups, results, problems, digests = [], [], [], set()
    with work_dir(f"{workload.name}-") as work:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config), encoding="utf-8")
        gain_config = work / "gain_config.json"
        gain_config.write_text(json.dumps(workload.config | {"map": {"name": "ce-lqr"}}),
                               encoding="utf-8")
        for index in range(WORKERS):
            worker_dir = work / f"worker{index}"
            worker_dir.mkdir()
            spec = {
                "src": str(src), "work": str(worker_dir), "workload": workload.name,
                "commands": list(workload.commands), "config": str(config),
                "gain_config": str(gain_config), "gain_checks": GAIN_CHECKS,
                "reference_seed": REFERENCE_SEED,
                "reference": ref["values"] if ref else None,
                "first_seed": args.seed * 1_000_000 + index * 100_000 + 1,
                "budget_s": args.seconds / WORKERS, "trace": bool(args.trace),
            }
            setup_s, result, error = run_worker(spec, worker_dir, deadline)
            if error:
                problems.append(f"worker {index}: {error}")
                continue
            setups.append(setup_s)
            results.append(result)
            digests.add(result["reference"]["digest"])
            problems += result["reference"]["problems"]
            problems += [p for rep in result["reps"] for p in rep["problems"]]

    if not results or not any(res["gain_resid"] for res in results):
        print("bench: no worker finished its gain checks:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1
    if len(digests) > 1:
        problems.append(f"reference rep artifacts differ between workers ({len(digests)} digests)")

    reps = [rep for res in results for rep in res["reps"]]
    counts = Counter()
    for res in results:
        for rep in [res["reference"], *res["reps"]]:
            counts.update(rep["counts"])
    attempted, failed = failure_counts(counts)
    metrics = per_layer(results, reps, problems) if args.trace else end_to_end(
        setups, results, reps)

    untraced = [r for r in reps if not r["traced"]]
    walls = [ref_seconds(r["wall"], r["calib_s"]) for r in untraced]
    print(f"# workload {workload.name}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    wall_tail = tail(walls)
    print(f"{'wall_s (untraced reps)':34s} median {statistics.median(walls):.6g} s, "
          + (f"{wall_tail[0]} {wall_tail[1]:.6g} s" if wall_tail
             else "no percentile has 10 samples beyond it")
          + f", n = {len(walls)}; as measured: median "
          f"{statistics.median(r['wall'] for r in untraced):.6g} s, set-up "
          f"{statistics.median(setups):.6g} s")
    print(f"{'fail_frac':34s} {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    env = {
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
        "seed": args.seed,
        "commit": git_commit(),
        "workers": WORKERS,
        "calib_ref_s": CALIB_REF_S,
        "calib_s": statistics.median(r["calib_s"] for r in reps),
        "trace": args.trace,
    }
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not problems and len(results) == WORKERS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
