"""SHA-256 digests of every artifact a set of ddrobust runs writes.

    python3 tools/artifact_digests.py --seeds 0 1 7 > digests.txt

For each master seed it runs, each in a fresh directory under one temporary
directory, through ``ddrobust.cli.main`` of this checkout's ``src``:

* every command of each workload in ``bench/workloads.py``, on its config;
* ``collect``, ``fig1`` and ``fig2`` on the default config;
* a first-order chain with the identified B,
  ``collect design jacobian bounds mc fig1``;
* the exact stage chain ``collect design jacobian bounds mc`` at 300 trials;
* the same chain and ``fig2`` on records of two experiments, the chain's of
  100 steps at 200 trials;
* a first-order ``fig1`` on the edges of ``sample_z``'s lockstep draw: a
  support of 20 entries, its largest, and 2100 trials, two chunks of 2048,
  at sigmas where every trial count is non-zero;
* a first-order ``fig1`` at the default support of 50 entries and 2000
  trials, where the loops are one matrix product per sigma, at sigmas where
  every trial count is non-zero and below the trial count.

It prints one ``config seed file sha256`` line per artifact, sorted. Runs of
two checkouts, or two processes of one, write the same artifacts exactly
when their outputs are equal, which ``diff`` shows. A command that fails
exits the tool with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("collect", "design", "jacobian", "bounds", "mc")

EXTRA_RUNS = {
    "default": ({}, ("collect", "fig1", "fig2")),
    "first-order-identified": ({"mode": "first-order", "b_source": "identified"},
                               (*STAGES, "fig1")),
    "exact-stages": ({"mode": "exact", "trials": 300}, STAGES),
    "two-experiments": ({"n_experiments": 2, "t_steps": 100, "support": {"k": 20},
                         "sigma": {"log_range": [0.01, 3.0], "points": 4}, "trials": 200},
                        (*STAGES, "fig2")),
    "first-order-lockstep-edges": ({"mode": "first-order", "support": {"k": 20},
                                    "sigma": {"log_range": [3.0, 30.0], "points": 4},
                                    "trials": 2100}, ("fig1",)),
    "first-order-default-support": ({"mode": "first-order",
                                     "sigma": {"log_range": [1.5, 15.0], "points": 4}},
                                    ("fig1",)),
}


def runs() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """Every run by name: its config document and its commands in order."""
    sys.dont_write_bytecode = True  # leave no cache file in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return {**{w.name: (w.config, w.commands) for w in WORKLOADS.values()}, **EXTRA_RUNS}


def digests(seeds: list[int]) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from ddrobust import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ddrobust imported from {cli.__file__}, not {ROOT / 'src'}")

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, commands) in runs().items():
            config_path = Path(tmp) / f"{name}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for seed in seeds:
                out = Path(tmp) / name / str(seed)
                for command in commands:
                    argv = [command, "--config", str(config_path), "--seed", str(seed),
                            "--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"ddrobust {' '.join(argv)} exited {code}")
                for path in out.rglob("*"):
                    if path.is_file():
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        lines.append(f"{name} {seed} {path.relative_to(out)} {digest}")
    return sorted(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7],
                        help="master seeds (default: 0 1 7)")
    args = parser.parse_args(argv)
    print("\n".join(digests(args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
