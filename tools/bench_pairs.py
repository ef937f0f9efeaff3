"""Alternating parent/change pairs of bench/run.py, each side in its own checkout.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fig2-pinv --pairs 10 \\
        --seconds 20 --first-seed 11

PARENT and CHANGE are the roots of two checkouts. Pair i runs
``bench/run.py --trace 0`` of each at seed ``first_seed + i``, the parent
first in even pairs and the change first in odd ones, so neither side
always meets the machine in the state the other left it in.

Before the first pair it byte-compiles both trees' ``src`` with compileall.
Under PYTHONDONTWRITEBYTECODE=1 a tree without a cache recompiles from
source in every worker, which reads as about +0.4 MB ``peak_rss_mb``.

It prints every run's end-to-end metrics as it goes, then one row per
end-to-end metric of CHANGE's BENCHMARK.json: both medians, the relative
change of the medians, the distance between the parent's quartiles and the
pairs the change won (ties count for neither side). The exit code is 1 when
any run was not ``correct``, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# bench/run.py ends its own workers this long after its measuring time;
# a run still going well after that is hung.
RUN_SLACK_S = 600.0


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """The JSON result line of one run (None if it gave none) and its stderr."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        return (json.loads(lines[-1]) if lines else None), proc.stderr
    except json.JSONDecodeError:
        return None, proc.stderr


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """One row per metric of ``metrics`` (BENCHMARK.json's end_to_end) over
    the paired ``runs`` of each side, run i of each side being pair i."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
        rows.append({
            "name": name, "unit": metric["unit"], "parent": p_med, "change": c_med,
            "rel": (c_med - p_med) / p_med if p_med else None,
            "parent_iqr": quartiles[2] - quartiles[0],
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(parent),
        })
    return rows


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.first_seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --first-seed >= 0")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file() or not (root / "src").is_dir():
            parser.error(f"{root} holds no bench/run.py and src/")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not compileall.compile_dir(root / "src", quiet=1):
            print(f"bench_pairs: {root / 'src'} does not compile", file=sys.stderr)
            return 1
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    runs = {side: [] for side in SIDES}
    all_correct = True
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in order(pair):
            result, stderr = run_once(roots[side], args.workload, seed, args.seconds)
            label = f"pair {pair} {side} seed {seed}:"
            if result is None or not result["correct"]:
                print(f"{label} not correct\n{stderr.strip()}", file=sys.stderr, flush=True)
                if result is None:
                    return 1
                all_correct = False
            runs[side].append(result)
            print(label, " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                  for m in metrics), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    print(f"{'metric':12s} {'unit':5s} {'parent':>12s} {'change':>12s} {'rel':>8s} "
          f"{'parent_iqr':>12s} {'wins':>6s}")
    for row in summarize(metrics, runs):
        rel = "n/a" if row["rel"] is None else f"{100 * row['rel']:+.1f}%"
        print(f"{row['name']:12s} {row['unit']:5s} {row['parent']:12.6g} {row['change']:12.6g} "
              f"{rel:>8s} {row['parent_iqr']:12.6g} {row['wins']:>3d}/{row['pairs']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
