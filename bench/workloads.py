"""The benchmark's workloads: one ddrobust config and the CLI commands run on it.

A workload rep runs every command of its workload once, in order, in one
fresh output directory, with one master seed. The master seed is the only
input a rep takes; everything else is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the reference rep that every worker process runs first.
# Its outputs are compared against reference.json and across processes.
REFERENCE_SEED = 0

# Ten entries of vec(X) spread over the record: stride 81 is coprime with
# the 4 states, so every state and the whole time range are perturbed. A
# random support of this size makes one record's exact-mode work vary about
# fivefold between seeds (a few sensitive entries drive most Riccati
# iterations), which no run length here could average out.
SPREAD_SUPPORT = [81 * i for i in range(10)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    config: dict
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-exact",
            commands=("fig1",),
            config={
                "map": {"name": "ce-lqr"},
                "mode": "exact",
                "support": {"indices": SPREAD_SUPPORT},
                "sigma": {"log_range": [1e-3, 10.0], "points": 3},
                "trials": 8,
            },
            why="exact-mode fig1 from p = 0 to p near 1; every trial re-runs "
                "identify + DARE, so the Riccati solve dominates",
        ),
        Workload(
            name="fig1-first-order",
            commands=("fig1",),
            config={
                "map": {"name": "ce-lqr"},
                "mode": "first-order",
                "support": {"k": 10},
                "sigma": {"log_range": [0.1, 30.0], "points": 4},
                "trials": 1000,
            },
            why="first-order fig1: one FD bundle of DARE solves, then a "
                "per-trial loop of linearised loops and spectral radii",
        ),
        Workload(
            name="fig2-pinv",
            commands=("fig2",),
            config={
                "map": {"name": "pinv"},
                "support": {"k": 50},
                "t_list": [100, 200, 400, 800, 1600],
                "fig2_trials": 2,
            },
            why="fig2 with the pinv map: no DARE and no Monte Carlo, the "
                "largest per-evaluation arrays; bypasses DARE and MC changes",
        ),
        Workload(
            name="stages",
            commands=("collect", "design", "jacobian", "bounds", "mc"),
            config={
                "map": {"name": "ce-lqr"},
                "mode": "first-order",
                "b_source": "identified",
                "support": {"k": 10},
                "sigma": {"log_range": [0.1, 30.0], "points": 4},
                "trials": 500,
            },
            why="the README stage chain in one directory; the only user of "
                "the artifact save/load path",
        ),
    )
}
