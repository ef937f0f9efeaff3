"""One worker process of a benchmark run.

``run.py`` starts it as ``python3 worker.py SPEC.json`` with BLAS pinned to
one thread. The worker imports ddrobust from the spec's source tree, loads
the workload config through ``cli.load_config`` and prints ``ready`` (run.py
times the set-up to that line). Then it runs, each through ``cli.main``:

1. the reference rep at the fixed reference seed, untimed: its artifacts
   are hashed (run.py compares the hashes across workers) and its values
   compared with reference.json;
2. timed reps, each with its own master seed derived from the run's seed,
   until the spec's time budget is spent; with tracing on, every other rep
   records spans, the rest measure the same work without them. The
   calibration probe is timed after set-up, before the first rep and after
   each rep;
3. gain checks: ``collect`` + ``design`` with the ce-lqr map for the first
   timed seeds, and the LQR residual of each designed gain.

Results go to the JSON file the spec names; spans, when traced, next to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed mix of the kernels the workloads spend their time in.

    The machine's speed drifts by tens of percent within seconds (shared
    cores), and CPU time drifts with it. Timing this probe around each rep
    lets run.py express rep times in reference seconds.
    """
    import numpy as np

    a = np.array([[1.0, 0.1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.1], [0, 0, 0, 1]])
    b = np.array([[0, 0], [0.1, 0], [0, 0], [0, 0.1]])
    x = np.random.default_rng(0).standard_normal((6, 1600))
    start = time.perf_counter()
    p = np.eye(4)
    for _ in range(150):  # a Riccati fixed-point loop, as in ctrlmaps
        g = np.linalg.solve(np.eye(2) + b.T @ p @ b, b.T @ p @ a)
        p_next = np.eye(4) + a.T @ p @ a - a.T @ p @ b @ g
        np.linalg.norm(p_next - p, 2)
        p = 0.5 * (p_next + p_next.T)
        np.linalg.eigvals(a + b @ g)
    for _ in range(4):  # SVDs of a long record, as in pinv
        np.linalg.svd(x, full_matrices=False)
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import ddrobust
    from ddrobust import cli

    if not Path(ddrobust.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: ddrobust imported from {ddrobust.__file__}, not {src}",
              file=sys.stderr)
        return 2
    commands = spec["commands"]
    config = spec["config"]
    cli.load_config(cli.build_parser().parse_args([commands[0], "--config", config]))
    print("ready", flush=True)
    setup_calib = sorted(calibrate() for _ in range(3))[1]

    import resource

    import numpy as np

    import checks
    import instrument

    work = Path(spec["work"])
    rec = instrument.Recorder()
    rec.install_observers()

    def run_rep(seed: int, out: Path, config: str = config,
                commands: list[str] = commands, check: bool = True) -> dict:
        out.mkdir(parents=True)
        before = rec.counts.copy()
        first_unstable = len(rec.mc_unstable)
        wall, written, problems = 0.0, 0, []
        for cmd in commands:
            argv = [cmd, "--config", config, "--seed", str(seed), "--out", str(out)]
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # a crash fails this rep, not the run
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            if code != 0:
                problems.append(f"ddrobust {' '.join(argv)} exited {code}")
            written += sum(Path(line[len("wrote "):]).stat().st_size
                           for line in buf.getvalue().splitlines()
                           if line.startswith("wrote "))
        counts = rec.counts - before
        counts["commands"] = len(commands)
        counts["failed_commands"] = len(problems)
        values = {}
        if check and not problems:
            try:
                found, rows, values = checks.check_rep(spec["workload"], out)
            except (OSError, LookupError, ValueError) as exc:
                found, rows = [f"unreadable artifacts: {type(exc).__name__}: {exc}"], {}
            problems += found
            counts.update(rows)
        values["unstable"] = rec.mc_unstable[first_unstable:]
        return {"seed": seed, "wall": wall, "counts": dict(counts),
                "bytes": written, "problems": problems, "values": values}

    reference = run_rep(spec["reference_seed"], work / "reference")
    reference["digest"] = checks.digest(work / "reference")
    if spec["reference"] is None:
        reference["problems"].append("no reference values for this workload")
    elif not reference["problems"]:
        reference["problems"] += checks.compare_reference(
            spec["workload"], reference["values"], spec["reference"])
    shutil.rmtree(work / "reference")

    reps = []
    min_reps = 2 if spec["trace"] else 1  # a traced and an untraced one
    budget_end = time.perf_counter() + spec["budget_s"]
    calib = [calibrate()]
    while len(reps) < min_reps or time.perf_counter() < budget_end:
        traced = spec["trace"] and len(reps) % 2 == 0
        first_span = len(rec.spans)
        if traced:
            rec.start_tracing()
        try:
            rep = run_rep(spec["first_seed"] + len(reps), work / f"rep{len(reps)}")
        finally:
            if traced:
                rec.stop_tracing()
        calib.append(calibrate())
        rep["calib_s"] = (calib[-2] + calib[-1]) / 2
        rep["traced"] = traced
        rep["spans"] = [first_span, len(rec.spans)]
        del rep["values"]
        shutil.rmtree(work / f"rep{len(reps)}")
        reps.append(rep)

    gain_resid = []
    for seed in [r["seed"] for r in reps][: spec["gain_checks"]]:
        out = work / f"gain{seed}"
        rep = run_rep(seed, out, spec["gain_config"], ["collect", "design"], check=False)
        if rep["problems"]:
            reference["problems"] += rep["problems"]
        else:
            gain_resid.append(checks.lqr_residual(out))
        shutil.rmtree(out)

    if spec["trace"]:
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    result = {
        "reference": reference,
        "reps": reps,
        "gain_resid": gain_resid,
        "setup_calib_s": setup_calib,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
