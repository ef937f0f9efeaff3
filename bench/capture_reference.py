"""Re-capture bench/reference.json from the current source tree.

    python3 bench/capture_reference.py

Runs the reference rep (master seed REFERENCE_SEED) of every workload in a
fresh worker and stores the values the correctness gate compares against,
with the workload config they belong to. Capture only at a commit whose
outputs are trusted: the gate then holds later commits to these numbers
within the tolerances in checks.py.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import BENCH, ROOT, run_worker, work_dir
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    captured = {}
    with work_dir("capture-") as work:
        for workload in WORKLOADS.values():
            config = work / f"{workload.name}.json"
            config.write_text(json.dumps(workload.config), encoding="utf-8")
            worker_dir = work / workload.name
            worker_dir.mkdir()
            spec = {
                "src": str(ROOT / "src"), "work": str(worker_dir),
                "workload": workload.name, "commands": list(workload.commands),
                "config": str(config), "gain_config": str(config), "gain_checks": 0,
                "reference_seed": REFERENCE_SEED, "reference": None,
                "first_seed": REFERENCE_SEED, "budget_s": 0.0, "trace": False,
            }
            _, result, error = run_worker(spec, worker_dir, time.perf_counter() + 300)
            if error:
                print(f"{workload.name}: {error}", file=sys.stderr)
                return 1
            rep = result["reference"]
            problems = [p for p in rep["problems"] if not p.startswith("no reference")]
            if problems:
                print(f"{workload.name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            captured[workload.name] = {"config": workload.config, "values": rep["values"]}
            print(f"{workload.name}: {rep['values']}")
    doc = {"seed": REFERENCE_SEED, "workloads": captured}
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
