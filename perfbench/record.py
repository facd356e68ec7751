"""Record the simulated statistics the benchmark checks its runs against.

    python3 perfbench/record.py

The simulator is deterministic, so every ``sim.*`` value of a workload
and seed must repeat exactly.  This writes them to ``expected_sim.json``
for seeds 0-31 and the held-out seed, on every simulator workload.
Re-record only when a change is meant to alter the modelled machine's
behaviour, and say so with the change.
"""

from __future__ import annotations

import json
import sys

import common
import run

SEEDS = (*range(32), common.HELD_OUT_SEED)


def main() -> int:
    common.import_program()
    recorded: dict[str, dict[str, dict]] = {}
    for workload in run.SIM_WORKLOADS:
        for seed in SEEDS:
            rep = run.sim_rep(workload, seed)
            if rep["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its "
                                 f"checks: {rep['failures']}")
            recorded.setdefault(workload, {})[str(seed)] = rep["sim"]
            print(f"{workload} seed {seed}: {rep['sim']}", flush=True)
    with open(run.EXPECTED_SIM, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
