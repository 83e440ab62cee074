"""Smoke test of the benchmark itself, at toy sizes (k = 3, n = 8).

    python3 perfbench/smoke.py

Runs every workload at toy sizes in both modes and checks that each emits
exactly the metrics BENCHMARK.json names, with their units, and that the gate
passes.  Then plants one wrong expected value and checks that the gate
reports the failure: ops_failed_frac becomes non-zero.  Exits 0 on success.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, run_workload
from workloads import TOY, WORKLOADS


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if unknown:
        raise AssertionError(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(workload, seed=1, seconds=0, trace=bool(trace), sizes=TOY)
            got = {name: m["unit"] for name, m in run["metrics"].items()}
            if got != wanted[trace]:
                missing = set(wanted[trace].items()) ^ set(got.items())
                raise AssertionError(f"{workload} trace={trace}: metrics differ: {sorted(missing)}")
            if not run["correct"] or run["failed"]:
                raise AssertionError(f"{workload} trace={trace}: {run['details']['failures']}")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, {run['attempted']} jobs gated")

    def plant_wrong_value(spec: dict) -> None:
        spec["expected"]["spectral_checked"] += 1

    run = run_workload("census-k7", seed=2, seconds=0, trace=False, sizes=TOY,
                       edit_spec=plant_wrong_value)
    frac = run["failed"] / run["attempted"]
    if frac == 0 or run["correct"]:
        raise AssertionError("the gate accepted a wrong expected value")
    print(f"ok planted wrong value: ops_failed_frac = {frac} ({run['details']['failures'][0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
