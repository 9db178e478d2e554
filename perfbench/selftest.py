"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each workload, untraced and traced, prints every metric that
BENCHMARK.json names with the unit it declares; that the modelled-cost
accounting holds; that the traced run's layer self times fit in its wall
time; and that a trace raising SimulationError is counted as a failed unit
instead of ending the run. Exits 0 when every check holds.
"""

import json
import sys
from pathlib import Path

import run
import workloads as wl

# A driver that was never loaded: Simulation.step raises SimulationError.
BROKEN_TRACE = '{"ev": "schedule", "actor": "ghost"}\n'


class Broken(wl.Workload):
    """A tiny corpus with one broken trace appended."""

    def texts(self, ks, seed):
        return super().texts(ks, seed) + [BROKEN_TRACE]


def declared(root: Path, key: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = []
    for name, workload in sorted(wl.WORKLOADS.items()):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run.measure(root, workload.tiny(), seed=7, seconds=0, trace=trace,
                                  out_dir=root / ".bench_out")
            result = outcome["result"]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if printed != declared(root, key):
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {outcome['info']['failures']}")
            print(f"{label}: {len(printed)} metrics, {result['attempted']} units")
    broken = Broken(**vars(wl.WORKLOADS["replay-compare"].tiny()))
    outcome = run.measure(root, broken, seed=7, seconds=0, trace=False)
    result, failures = outcome["result"], outcome["info"]["failures"]
    if result["correct"] or result["failed"] != 1 or "SimulationError" not in failures[0]:
        problems.append(f"broken trace not counted as one failed unit: {result}, {failures}")
    print(f"broken trace: failed_ratio {outcome['info']['failed_ratio']:.4f}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
