"""memranger benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oracle-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/``. Set-up generates and serialises the workload's traces. The timed
phase replays them, one unit per trace, for ``--seconds`` seconds and at least
one full pass. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
runs the same unwrapped timed phase first, then one more pass with every
layer's public callables wrapped, and reports the per-layer metrics; its
spans go to ``.bench_out/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. See README.md beside this
file for the workloads and the metric-to-layer table.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

import spans
import workloads as wl

SETUP_REPEATS = 3
LAYERS = ("kernel_sim", "policy_map", "dispatcher", "ept_model",
          "reference_oracle", "report_cli", "address_space")
PROTECTED_MODES = ("single-ept", "multi-ept")
STEP_KINDS = tuple(dict.fromkeys(spans.STEP_KINDS.values()))

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "trace_ms.p50": "ms",
    "trace_ms.p90": "ms",
    **{f"sim_us_per_event.{mode}": "us" for mode in wl.MODES},
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    **{f"modeled_ticks_per_access.{mode}": "ticks/access" for mode in PROTECTED_MODES},
}

PER_LAYER = {
    "kernel_sim.parse.busy_s": "s/unit",
    "kernel_sim.parse.events": "1/unit",
    "kernel_sim.sim_init.busy_s": "s/unit",
    "kernel_sim.sim_init.count": "1/unit",
    "kernel_sim.report.busy_s": "s/unit",
    **{f"kernel_sim.step.{kind}.{what}": unit
       for kind in STEP_KINDS for what, unit in (("busy_s", "s/unit"), ("count", "1/unit"))},
    **{f"policy_map.{hook}.busy_s": "s/unit"
       for hook in ("on_driver_load", "on_alloc", "on_free", "classify_access")},
    "policy_map.classify_access.count": "1/unit",
    "policy_map.leaf_writes": "1/unit",
    "dispatcher.execute_access.busy_s": "s/unit",
    "dispatcher.execute_access.count": "1/unit",
    **{f"dispatcher.violations_per_access.{mode}": "ratio" for mode in PROTECTED_MODES},
    **{f"dispatcher.{name}.{mode}": "1/unit"
       for name in wl.DISPATCH_COUNTERS for mode in PROTECTED_MODES},
    "ept_model.translate.busy_s": "s/unit",
    "ept_model.translate.count": "1/unit",
    "ept_model.set_page_entry.busy_s": "s/unit",
    "ept_model.set_page_entry.count": "1/unit",
    "ept_model.leaves.max": "leaves",
    "reference_oracle.rebuild.busy_s": "s/unit",
    "reference_oracle.sweep.busy_s": "s/unit",
    "reference_oracle.rebuild.count": "1/unit",
    "reference_oracle.checks": "1/unit",
    "reference_oracle.rebuild_ratio": "ratio",
    "reference_oracle.universe_pages.mean": "pages",
    "report_cli.verify.busy_s": "s/unit",
    "report_cli.checked_reads": "1/unit",
    **{f"report_cli.ticks_per_access.{cause}.{mode}": "ticks/access"
       for cause in wl.TICK_CAUSES for mode in PROTECTED_MODES},
    **{f"report_cli.violations.{mode}": "1/unit" for mode in ("off", "single-ept")},
    "address_space.frames.max": "frames",
    "address_space.digest_bytes": "bytes/unit",
    **{f"{layer}.self_s": "s/unit" for layer in LAYERS + ("bench",)},
    "bench.tracing_overhead": "ratio",
    "bench.spans": "1/unit",
}


def load_program(root: Path):
    """Import the simulator from the checkout's own source tree."""
    package = root / "src" / "memranger"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator source at {package}")
    sys.path.insert(0, str(root / "src"))
    names = ("address_space", "ept_model", "policy_map", "dispatcher",
             "kernel_sim", "reference_oracle", "report_cli")
    mem = types.SimpleNamespace(**{
        name: importlib.import_module(f"memranger.{name}") for name in names
    })
    if Path(mem.kernel_sim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: memranger imported from {mem.kernel_sim.__file__}, not {package}")
    return mem


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }


def nearest_rank(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Phase:
    """Units run in one phase, and the per-pass facts of its first pass."""

    def __init__(self):
        self.units: list[wl.UnitResult] = []
        self.stats: dict = {}
        self.fingerprints: list[str] = []
        self.failures: list[str] = []

    def run(self, mem, workload, texts, clock, tracer, deadline: float | None) -> None:
        while True:
            index = len(self.units)
            if index >= len(texts) and (deadline is None or perf_counter() >= deadline):
                return
            tracer.unit = index
            unit = tracer.call("bench", "bench.unit", wl.run_unit, mem, workload,
                               texts[index % len(texts)], clock, tracer)
            if index < len(texts):
                self.fingerprints.append(unit.fingerprint)
                for key, value in unit.stats.items():
                    self.stats[key] = self.stats.get(key, 0) + value
            elif unit.fingerprint != self.fingerprints[index % len(texts)]:
                unit.failures.append("results differ from the first replay of this trace")
            self.failures.extend(f"unit {index}: {f}" for f in unit.failures)
            self.units.append(unit)

    @property
    def ok_units(self) -> list[wl.UnitResult]:
        return [u for u in self.units if not u.failures]

    def events_per_s(self, clock: str) -> float:
        ok = self.ok_units
        return _ratio(sum(u.events for u in ok), sum(u.seconds[clock]["unit"] for u in ok))


def end_to_end_metrics(phase: Phase, setup_s: dict, clock: str) -> dict:
    """The gated metrics, timed on one clock (see workloads.py)."""
    ok = phase.ok_units
    trace_ms = [u.seconds[clock]["unit"] * 1e3 for u in ok] or [0.0]
    stats = phase.stats
    metrics = {
        "setup_s": setup_s[clock],
        "events_per_s": phase.events_per_s(clock),
        "trace_ms.p50": statistics.median(trace_ms),
        "trace_ms.p90": nearest_rank(trace_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": len(ok) / len(phase.units),
    }
    replayed = sum(u.events for u in ok) / len(wl.MODES)
    for mode in wl.MODES:
        metrics[f"sim_us_per_event.{mode}"] = _ratio(
            sum(u.seconds[clock][mode] for u in ok) * 1e6, replayed)
    for mode in PROTECTED_MODES:
        metrics[f"modeled_ticks_per_access.{mode}"] = _ratio(
            stats.get(f"{mode}.ticks", 0), stats.get(f"{mode}.accesses", 0))
    return metrics


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: spans.Tracer, phase: Phase, untraced_events_per_s: float) -> dict:
    units = len(phase.units)
    busy, calls, stats = tracer.busy_ns, tracer.calls, phase.stats

    def per_unit(value) -> float:
        return value / units

    def busy_s(name: str) -> float:
        return per_unit(busy.get(name, 0) / 1e9)

    def gauge(name: str) -> list:
        return tracer.gauges.get(name, [])

    m = {
        "kernel_sim.parse.busy_s": busy_s("kernel_sim.parse"),
        "kernel_sim.parse.events": per_unit(stats.get("parse.events", 0)),
        "kernel_sim.sim_init.busy_s": busy_s("kernel_sim.sim_init"),
        "kernel_sim.sim_init.count": per_unit(calls.get("kernel_sim.sim_init", 0)),
        "kernel_sim.report.busy_s": busy_s("kernel_sim.report"),
        "policy_map.classify_access.count": per_unit(calls.get("policy_map.classify_access", 0)),
        "policy_map.leaf_writes": per_unit(sum(gauge("policy_map.leaf_writes"))),
        "dispatcher.execute_access.busy_s": busy_s("dispatcher.execute_access"),
        "dispatcher.execute_access.count": per_unit(calls.get("dispatcher.execute_access", 0)),
        "ept_model.translate.busy_s": busy_s("ept_model.translate"),
        "ept_model.translate.count": per_unit(calls.get("ept_model.translate", 0)),
        "ept_model.set_page_entry.busy_s": busy_s("ept_model.set_page_entry"),
        "ept_model.set_page_entry.count": per_unit(calls.get("ept_model.set_page_entry", 0)),
        "ept_model.leaves.max": max(gauge("ept_model.leaves"), default=0),
        "reference_oracle.rebuild.busy_s": busy_s("reference_oracle.rebuild"),
        "reference_oracle.sweep.busy_s": busy_s("reference_oracle.sweep"),
        "reference_oracle.rebuild.count": per_unit(calls.get("reference_oracle.rebuild", 0)),
        "reference_oracle.checks": per_unit(calls.get("reference_oracle.verify", 0)),
        "reference_oracle.rebuild_ratio": _ratio(calls.get("reference_oracle.rebuild", 0),
                                                 calls.get("reference_oracle.verify", 0)),
        "reference_oracle.universe_pages.mean": (
            statistics.fmean(gauge("reference_oracle.universe_pages"))
            if gauge("reference_oracle.universe_pages") else 0.0),
        "report_cli.verify.busy_s": busy_s("report_cli.verify"),
        "report_cli.checked_reads": per_unit(stats.get("checked_reads", 0)),
        "address_space.frames.max": max(gauge("address_space.frames"), default=0),
        "address_space.digest_bytes": per_unit(sum(gauge("address_space.digest_bytes"))),
        "bench.tracing_overhead": _ratio(phase.events_per_s("ref"), untraced_events_per_s),
        "bench.spans": per_unit(len(tracer.spans)),
    }
    for kind in STEP_KINDS:
        m[f"kernel_sim.step.{kind}.busy_s"] = busy_s(f"kernel_sim.step.{kind}")
        m[f"kernel_sim.step.{kind}.count"] = per_unit(calls.get(f"kernel_sim.step.{kind}", 0))
    for hook in ("on_driver_load", "on_alloc", "on_free", "classify_access"):
        m[f"policy_map.{hook}.busy_s"] = busy_s(f"policy_map.{hook}")
    for mode in PROTECTED_MODES:
        accesses = stats.get(f"{mode}.accesses", 0)
        m[f"dispatcher.violations_per_access.{mode}"] = _ratio(
            stats.get(f"{mode}.ept_violations", 0), accesses)
        for name in wl.DISPATCH_COUNTERS:
            m[f"dispatcher.{name}.{mode}"] = per_unit(stats.get(f"{mode}.{name}", 0))
        for cause in wl.TICK_CAUSES:
            m[f"report_cli.ticks_per_access.{cause}.{mode}"] = _ratio(
                stats.get(f"{mode}.ticks.{cause}", 0), accesses)
    for mode in ("off", "single-ept"):
        m[f"report_cli.violations.{mode}"] = per_unit(stats.get(f"{mode}.violations", 0))
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = per_unit(tracer.self_ns.get(layer, 0) / 1e9)
    return m


def setup(root: Path, workload: wl.Workload, seed: int, clock: wl.Clock):
    """Import the program and build the inputs; returns (mem, texts, setup_s),
    setup_s holding seconds per clock."""
    mem, imported, scale = clock.time(load_program, root)
    texts, times = None, []
    for _ in range(SETUP_REPEATS):
        made, seconds, made_scale = clock.time(workload.texts, mem.kernel_sim, seed)
        times.append((seconds, seconds * made_scale))
        if texts is not None and made != texts:
            raise SystemExit("error: the generators gave different traces for one seed")
        texts = made
    setup_s = {
        "host": imported + statistics.median(t[0] for t in times),
        "ref": imported * scale + statistics.median(t[1] for t in times),
    }
    return mem, texts, setup_s


def measure(root: Path, workload: wl.Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path | None = None) -> dict:
    """Run one workload; returns the result line plus what is printed beside it."""
    clock = wl.Clock()
    mem, texts, setup_s = setup(root, workload, seed, clock)
    gc.collect()
    untraced = Phase()
    untraced.run(mem, workload, texts, clock, wl.NoTrace(), perf_counter() + seconds)
    metrics = end_to_end_metrics(untraced, setup_s, "ref")
    host = end_to_end_metrics(untraced, setup_s, "host")
    units = list(untraced.units)
    problems = list(untraced.failures)
    info = {
        "workload": workload.name,
        "seed": seed,
        "env": environment(),
        "fingerprints": {
            "input": hashlib.sha256("".join(texts).encode()).hexdigest(),
            "results": hashlib.sha256("".join(untraced.fingerprints).encode()).hexdigest(),
        },
        "samples": {"units": len(untraced.units), "distinct_traces": len(texts)},
        "end_to_end": {name: [metrics[name], host[name], unit] for name, unit in END_TO_END.items()},
    }
    reported = {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}

    if trace:
        gc.collect()
        tracer = spans.Tracer()
        spans.instrument(tracer, mem)
        traced = Phase()
        began = perf_counter()
        try:
            traced.run(mem, workload, texts, clock, tracer, None)
        finally:
            tracer.unwrap_all()
        wall_s = perf_counter() - began
        layer = per_layer_metrics(tracer, traced, untraced.events_per_s("ref"))
        units += traced.units
        problems += traced.failures
        if traced.fingerprints != untraced.fingerprints:
            problems.append("traced results differ from untraced results")
        self_total = sum(tracer.self_ns.values()) / 1e9
        if self_total > wall_s:
            problems.append(f"layer self times sum to {self_total:.6f}s, over the wall {wall_s:.6f}s")
        info["samples"]["traced_units"] = len(traced.units)
        info["traced_wall_s"] = wall_s
        info["tracing_overhead"] = layer["bench.tracing_overhead"]
        if out_dir is not None:
            path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
            tracer.write(path, {"workload": workload.name, "seed": seed, "env": info["env"],
                                "fields": ["id", "name", "start_ns", "end_ns", "parent", "unit"]})
            info["spans_file"] = str(path)
        reported = {name: (layer[name], PER_LAYER[name]) for name in PER_LAYER}

    failed = sum(1 for u in units if u.failures)
    info["failed_ratio"] = failed / len(units)
    info["failures"] = problems[:10]
    result = {
        "correct": not problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    return {"info": info, "result": result}


def print_outcome(outcome: dict) -> None:
    info, result = outcome["info"], outcome["result"]
    print(f"workload {info['workload']}  seed {info['seed']}  samples {info['samples']}"
          f"  failed_ratio {info['failed_ratio']:.6g}")
    env = info["env"]
    print(f"env: python {env['python']}, {env['cpus']} cpus, {env['platform']}")
    print(f"input fingerprint   {info['fingerprints']['input']}")
    print(f"results fingerprint {info['fingerprints']['results']}")
    print(f"  {'metric':<40} {'ref clock':>16} {'host clock':>16}")
    for name, (value, host, unit) in info["end_to_end"].items():
        print(f"  {name:<40} {value:>16.6g} {host:>16.6g} {unit}")
    if "traced_wall_s" in info:
        print(f"traced pass: {info['traced_wall_s']:.3f} s wall,"
              f" tracing overhead {info['tracing_overhead']:.4f} (traced/untraced events_per_s)")
        for name, metric in result["metrics"].items():
            print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    outcome = measure(root, wl.WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), out_dir=root / ".bench_out")
    print_outcome(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
