"""Workloads of the memranger benchmark and the unit of work each one times.

A workload turns a seed into trace text (set-up, untimed) and runs units over
that text (timed). One unit is one trace: parse it, replay it under every
protection mode, and audit every replay with the shadow verifier. On
``oracle-corpus`` the brute-force oracle also checks the tables after every
multi-ept event. Everything the benchmark checks about a unit is done outside
the timed calls, so only the program's own work is measured.

Each timed call is measured on two clocks. "host" is wall time. "ref" is wall
time scaled by how fast the guest runs a fixed probe just before and after the
call, relative to PROBE_REF_S: the same work reads the same on a guest whose
speed drifts.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace
from time import perf_counter

MODES = ("off", "single-ept", "multi-ept")
CORPUS_TRACES = 100
TRACE_EVENTS = 200
STEADY_ACCESSES = 100_000
# Trace seeds of one run are base + seed * SEED_STRIDE + i, so runs with
# different seeds never share a trace.
SEED_STRIDE = 1000
# Modelled totals of gen_benchmark_trace(100_000) under the default cost model.
STEADY_TOTALS = {"off": 103_125, "multi-ept": 8_071_875, "single-ept": 600_103_125}
TICK_CAUSES = ("base", "vmexit", "switch", "mtf")
CLOCKS = ("host", "ref")
PROBE_LOOPS = 3000
PROBE_COPY_BYTES = 2 << 20           # copied twice over, past a 1 MiB L2 cache
# Typical seconds of one probe on a 2-vCPU Intel Xeon guest at 2.0 GHz, Python 3.11.7.
PROBE_REF_S = 800e-6
DISPATCH_COUNTERS = ("ept_switches", "mtf_windows", "redirects", "grants", "forced_switches")


@dataclass(frozen=True)
class Workload:
    name: str
    traces: int                      # distinct traces generated per run
    events: int                      # events per random trace, or accesses of the bench trace
    attack_probability: float = 0.3
    seed_base: int = 0
    oracle: bool = False             # oracle check after every multi-ept event
    steady: bool = False             # one gen_benchmark_trace instead of random traces

    def texts(self, ks, seed: int) -> list[str]:
        """Serialised input traces; the same seed always gives the same text."""
        if self.steady:
            return [ks.serialize_trace(ks.gen_benchmark_trace(n_accesses=self.events))]
        first = self.seed_base + seed * SEED_STRIDE
        return [
            ks.serialize_trace(ks.gen_random_trace(
                first + i, length=self.events, attack_probability=self.attack_probability,
            ))
            for i in range(self.traces)
        ]

    def tiny(self) -> "Workload":
        """The same workload at self-test size."""
        return replace(self, traces=min(self.traces, 3), events=300 if self.steady else 60)


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle-corpus", CORPUS_TRACES, TRACE_EVENTS, oracle=True),
        Workload("steady-dispatch", 1, STEADY_ACCESSES, steady=True),
        Workload("replay-compare", CORPUS_TRACES, TRACE_EVENTS,
                 attack_probability=0.6, seed_base=1_000_000_000),
    )
}


@dataclass
class UnitResult:
    events: int = 0                  # events replayed, counted once per mode
    # per clock: "unit" is parse + every replay + every verify; each mode's
    # entry is its run_trace minus the oracle hook
    seconds: dict = field(default_factory=lambda: {clock: {"unit": 0.0} for clock in CLOCKS})
    failures: list = field(default_factory=list)
    fingerprint: str = ""            # sha256 of the simulated results, no timing
    stats: dict = field(default_factory=dict)              # simulated counts, summed per pass


class NoTrace:
    """Stand-in for the tracer in untraced runs: calls straight through."""

    unit = -1

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Clock:
    """Times program calls on the host and the ref clock.

    The probe is a pure-Python loop, for the interpreter's speed, and a copy
    between two preallocated buffers, for the memory system's. It allocates
    nothing the garbage collector tracks beyond one small list, so the
    program's heap does not change it.
    """

    def __init__(self):
        self._source = bytearray(PROBE_COPY_BYTES)
        self._target = bytearray(PROBE_COPY_BYTES)

    def probe(self) -> float:
        began = perf_counter()
        table, total = [0] * 256, 0
        for i in range(PROBE_LOOPS):
            table[i & 255] = total
            total += i * i % 7
        self._target[:] = self._source
        return perf_counter() - began

    def time(self, fn, *args, **kwargs):
        """Call fn between two probes; returns (result, host seconds, ref scale).
        The faster probe sets the scale, since an interrupt only ever slows one."""
        before = self.probe()
        start = perf_counter()
        result = fn(*args, **kwargs)
        host = perf_counter() - start
        return result, host, PROBE_REF_S / min(before, self.probe())


def tick_split(report, cost_model_cls) -> dict:
    """Modelled ticks per cause, recomputed from the log with the run's prices."""
    cost = cost_model_cls.from_dict(report.config["cost_model"])
    split = dict.fromkeys(TICK_CAUSES, 0)
    for record in report.log:
        split["base"] += cost.base_access
        split["vmexit"] += cost.vmexit_cost * record["traps"]
        split["switch"] += (cost.ept_switch_cost + cost.page_walk_after_flush) * record["switches"]
        if record["redirected"] or record["granted"]:
            split["mtf"] += cost.mtf_roundtrip_cost
    return split


def _label_disagreements(report) -> int:
    bad = 0
    for record in report.log:
        expect = record["expect"]
        redirected = record["decision"] == "redirect_to_fake"
        if (expect == "illegal" and not redirected) or (expect == "legal" and redirected):
            bad += 1
    return bad


def _report_digest(report) -> bytes:
    body = json.dumps({
        "mode": report.mode,
        "counters": report.counters,
        "ticks": report.modeled_total_ticks,
        "decisions": [record["decision"] for record in report.log],
        "digests": report.digests,
    }, sort_keys=True)
    return hashlib.sha256(body.encode()).digest()


def _steady_failures(workload: Workload, reports: dict) -> list[str]:
    """The paper's invariants on the dispatch-only trace."""
    failures = []
    multi, single = reports["multi-ept"], reports["single-ept"]
    if multi["rw_trapped"]:
        failures.append(f"multi-ept trapped {multi['rw_trapped']} data accesses")
    if single["rw_trapped"] != single["data_accesses"] or single["data_traps"] != single["data_accesses"]:
        failures.append(
            f"single-ept trapped {single['rw_trapped']} of {single['data_accesses']} data accesses"
            f" with {single['data_traps']} traps"
        )
    ticks = {mode: reports[mode]["ticks"] for mode in MODES}
    if not ticks["off"] < ticks["multi-ept"] < ticks["single-ept"]:
        failures.append(f"tick order broken: {ticks}")
    if workload.events == STEADY_ACCESSES and ticks != STEADY_TOTALS:
        failures.append(f"modelled totals {ticks} differ from {STEADY_TOTALS}")
    return failures


def run_unit(mem, workload: Workload, text: str, clock: Clock, tracer) -> UnitResult:
    """Time one trace through parse, every mode's replay and its checks.

    A unit fails on any exception, and under multi-ept also on an oracle
    mismatch, a verification violation or an expect label the decision
    contradicts. off and single-ept violations are by design: counted only.
    """
    ks, rc = mem.kernel_sim, mem.report_cli
    result = UnitResult()
    host, ref = result.seconds["host"], result.seconds["ref"]
    digest = hashlib.sha256()
    invariants: dict = {}
    try:
        events, seconds, scale = clock.time(tracer.call, "kernel_sim", "kernel_sim.parse",
                                       ks.parse_trace, text)
        host["unit"] += seconds
        ref["unit"] += seconds * scale
        result.stats["parse.events"] = len(events)
        for mode in MODES:
            mismatches: list = []
            hook_seconds = [0.0]
            hook = None
            if workload.oracle and mode == "multi-ept":
                checker = mem.reference_oracle.OracleChecker()

                def hook(sim, index, event, checker=checker):
                    began = perf_counter()
                    mismatches.extend(checker.verify(sim.policy, sim.policy.epts))
                    hook_seconds[0] += perf_counter() - began

            report, replayed, replay_scale = clock.time(
                tracer.call, "kernel_sim", "kernel_sim.run_trace",
                ks.run_trace, events, mode, after_event=hook)
            verdict, verified, verify_scale = clock.time(
                tracer.call, "report_cli", "report_cli.verify", rc.verify_run, events, report)
            host[mode] = replayed - hook_seconds[0]
            ref[mode] = host[mode] * replay_scale
            host["unit"] += replayed + verified
            ref["unit"] += replayed * replay_scale + verified * verify_scale
            result.events += len(events)

            split = tick_split(report, rc.CostModel)
            if sum(split.values()) != report.modeled_total_ticks:
                result.failures.append(
                    f"{mode}: tick causes sum to {sum(split.values())},"
                    f" modelled total is {report.modeled_total_ticks}"
                )
            if mode == "multi-ept":
                if mismatches:
                    result.failures.append(f"multi-ept: {len(mismatches)} oracle mismatches")
                if not verdict.ok:
                    counts = {k: v for k, v in verdict.summary().items() if k != "samples"}
                    result.failures.append(f"multi-ept: verification failed {counts}")
                disagreements = _label_disagreements(report)
                if disagreements:
                    result.failures.append(f"multi-ept: {disagreements} expect labels contradicted")
            else:
                result.stats[f"{mode}.violations"] = int(not verdict.ok)
            counters = report.counters
            data = [r for r in report.log if r["access"] != "execute"]
            invariants[mode] = {
                "ticks": report.modeled_total_ticks,
                "rw_trapped": counters["rw_trapped_accesses"],
                "data_accesses": len(data),
                "data_traps": sum(r["traps"] for r in data),
            }
            result.stats[f"{mode}.accesses"] = counters["accesses"]
            result.stats[f"{mode}.ticks"] = report.modeled_total_ticks
            result.stats[f"{mode}.ept_violations"] = counters["ept_violations"]
            for name in DISPATCH_COUNTERS:
                result.stats[f"{mode}.{name}"] = counters[name]
            for cause, ticks in split.items():
                result.stats[f"{mode}.ticks.{cause}"] = ticks
            result.stats["checked_reads"] = result.stats.get("checked_reads", 0) + verdict.checked_reads
            digest.update(_report_digest(report))
            del report, data
        if workload.steady:
            result.failures.extend(_steady_failures(workload, invariants))
    except Exception as exc:    # a unit fails on any exception; the run goes on
        result.failures.append(f"{type(exc).__name__}: {exc}")
    result.fingerprint = digest.hexdigest()
    return result
