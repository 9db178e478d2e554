"""Trace verification and the command line.

The engine owns the run and its report (kernel_sim.Simulation, RunReport,
CostModel); this module checks a report and prints it. The verifier replays
the trace with its own bookkeeping (shadow memory plus the brute-force
legality predicate) in lockstep with the report's log and audits the log
against it: illegal reads must observe zeros, legal reads must observe true
bytes, and final region digests must equal a replay in which illegal writes
never happened.

Exit codes: 0 clean, 1 malformed input, 2 property violation.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, FrameStore
from .ept_model import READ, WRITE
from .errors import SimulationError, TraceParseError
from .kernel_sim import (
    ALIGNS, DEFAULT_WRITE, FOREIGN_POOL_FILL, OS_KERNEL_FILL, OS_STRUCT_FILL,
    OTHER_DRIVER_FILL, SECRET_FILL, AccessEvent, Alloc, CostModel, CreateProcess, ExitProcess,
    Free, LoadDriver, Mode, RunReport, Schedule, SimConfig, UnloadDriver, gen_benchmark_trace,
    gen_demo1_trace, gen_privesc_trace, gen_random_trace, image_fill, parse_trace, run_trace,
    serialize_trace,
)
from .reference_oracle import SnapshotView

COMPARE_SCHEMA = "ranger-compare/1"
MODES = tuple(mode.value for mode in Mode)


# -- shadow replay -------------------------------------------------------------

@dataclass
class VerifyResult:
    ok: bool
    checked_reads: int
    leaks: list = field(default_factory=list)
    wrong_data: list = field(default_factory=list)
    digest_mismatches: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "checked_reads": self.checked_reads,
            "leaks": len(self.leaks),
            "wrong_data": len(self.wrong_data),
            "digest_mismatches": len(self.digest_mismatches),
            "samples": {
                "leaks": self.leaks[:5],
                "wrong_data": self.wrong_data[:5],
                "digest_mismatches": self.digest_mismatches[:5],
            },
        }


class Expectation(NamedTuple):
    """What the shadow expects of one access event."""
    dst: int
    legal: bool
    data: bytes | None          # a read's bytes: true if legal, zeros if not


class _Shadow:
    """Trace replay with independent bookkeeping: shadow memory in which only
    legal writes land, plus one live view of the raw facts the legality
    predicate needs, updated in place by each layout event. The view's
    enclave identities are driver names: a loaded driver is its own identity
    and every other actor is None. Each event class has one handler in
    _SHADOW_HANDLERS; step applies one event and returns an access event's
    Expectation, None for any other event."""

    def __init__(self, allocations):
        self.store = FrameStore()
        for (base, size), fill in (
            (OS_KERNEL_CODE, OS_KERNEL_FILL),
            (OS_STRUCTURES, OS_STRUCT_FILL),
            (OTHER_DRIVER, OTHER_DRIVER_FILL),
        ):
            self.store.fill_gpa_range(base, size, fill)
        self.view = SnapshotView()
        self.ordinals: dict[str, int] = {}                      # allocations made, frees included
        self.live: dict[str, dict[int, tuple[int, int]]] = {}   # live (base, size) by ordinal
        self.alloc_rows = iter(allocations)

    def step(self, index: int, event) -> Expectation | None:
        handle = _SHADOW_HANDLERS.get(type(event))
        if handle is None:
            raise SimulationError(f"unknown event {event!r}")
        return handle(self, index, event)

    def _enclave_of(self, actor: str) -> str | None:
        """The actor's enclave identity: its name if it is a loaded driver."""
        return actor if actor in self.view.images else None

    def resolve(self, actor: str, ref) -> int:
        if ref.kind in ("own_pool", "pool_of"):
            owner = actor if ref.kind == "own_pool" else ref.driver
            base, _ = self.live[owner][ref.index]
            return base + ref.offset
        if ref.kind == "image_of":
            base, _ = self.view.images[ref.driver]
            return base + ref.offset
        if ref.kind == "eprocess":
            base, _ = self.view.processes[ref.pid][0]
            return base + ref.offset
        if ref.kind == "os_kernel_code":
            return OS_KERNEL_CODE[0] + ref.offset
        if ref.kind == "os_structures":
            return OS_STRUCTURES[0] + ref.offset
        if ref.kind == "other_driver":
            return OTHER_DRIVER[0] + ref.offset
        raise SimulationError(f"unknown target kind {ref.kind!r}")

    def _on_load(self, index: int, event) -> None:
        self.view.images[event.name] = (event.image_base, event.image_base + event.image_size)
        self.store.fill_gpa_range(event.image_base, event.image_size, image_fill(event.name))

    def _on_unload(self, index: int, event) -> None:
        del self.view.images[event.name]
        for base, size in self.live.pop(event.name, {}).values():
            self.view.remove_pool(event.name, base, size)

    def _on_process_create(self, index: int, event) -> None:
        self.view.processes[event.pid] = event.regions
        for base, size in event.regions:
            self.store.fill_gpa_range(base, size, SECRET_FILL)

    def _on_process_exit(self, index: int, event) -> None:
        del self.view.processes[event.pid]

    def _on_alloc(self, index: int, event) -> None:
        row = next(self.alloc_rows, None)
        if row is None or row["actor"] != event.actor or row["event"] != index:
            raise RuntimeError(f"allocation table out of step at event {index}")
        base = int(row["base"], 0)
        size = int(row["size"], 0)
        ident = self._enclave_of(event.actor)
        fill = SECRET_FILL if ident is not None else FOREIGN_POOL_FILL
        self.store.fill_gpa_range(base, size, fill)
        ordinal = self.ordinals.get(event.actor, 0)
        self.ordinals[event.actor] = ordinal + 1
        self.live.setdefault(event.actor, {})[ordinal] = (base, size)
        self.view.add_pool(ident, base, size)

    def _on_free(self, index: int, event) -> None:
        base, size = self.live[event.actor].pop(event.pool)
        self.view.remove_pool(self._enclave_of(event.actor), base, size)

    def _on_schedule(self, index: int, event) -> None:
        pass

    def _on_access(self, index: int, event) -> Expectation:
        dst = self.resolve(event.actor, event.dst)
        access = event.access
        legal = self.view.legal(self._enclave_of(event.actor), dst, access)
        data = None
        if access == READ:
            data = self.store.read_gpa_range(dst, 4) if legal else bytes(4)
        elif access == WRITE and legal:
            payload = event.payload if event.payload is not None else DEFAULT_WRITE
            self.store.fill_gpa_range(dst, len(payload), payload)
        return Expectation(dst, legal, data)

    def digests(self) -> dict[str, str]:
        out = {
            "os_kernel_code": self.store.digest_gpa_range(*OS_KERNEL_CODE),
            "os_structures": self.store.digest_gpa_range(*OS_STRUCTURES),
            "other_driver:0": self.store.digest_gpa_range(*OTHER_DRIVER),
        }
        for name, (base, end) in self.view.images.items():
            out[f"image:{name}"] = self.store.digest_gpa_range(base, end - base)
        for name, pools in self.live.items():
            for ordinal, (base, size) in pools.items():
                out[f"pool:{name}:{ordinal}"] = self.store.digest_gpa_range(base, size)
        for pid, regions in self.view.processes.items():
            digest = hashlib.sha256()
            for base, size in regions:
                digest.update(self.store.read_gpa_range(base, size))
            out[f"eprocess:{pid}"] = digest.hexdigest()
        return out


# Each event class's shadow handler, looked up once per step.
_SHADOW_HANDLERS = {
    LoadDriver: _Shadow._on_load,
    UnloadDriver: _Shadow._on_unload,
    CreateProcess: _Shadow._on_process_create,
    ExitProcess: _Shadow._on_process_exit,
    Alloc: _Shadow._on_alloc,
    Free: _Shadow._on_free,
    Schedule: _Shadow._on_schedule,
    AccessEvent: _Shadow._on_access,
}


def _mismatch(record, want: str | None) -> dict:
    return {
        "seq": record.seq,
        "event": record.event,
        "actor": record.actor,
        "dst": record["dst"],
        "got": record["data"],
        "want": want,
    }


def verify_run(events, report: RunReport) -> VerifyResult:
    """Audit a run report against the independent shadow replay, in lockstep
    with its log: the shadow applies event i, the log's records of event i
    are checked against it, then event i + 1 follows, so the shadow holds
    one event's expectation at a time.

    Each read event must log exactly one read, by the event's actor at the
    address the shadow resolves, and no other event any. A read of the
    wrong bytes, address or actor, a read the log lacks (its entry's got is
    None), a read no event asked for, and a record out of event order or
    past the trace's end (want is None) all count as wrong data."""
    shadow = _Shadow(report.allocations)
    result = VerifyResult(ok=True, checked_reads=0)
    records = iter(report.log)
    record = next(records, None)
    for index, event in enumerate(events):
        expected = shadow.step(index, event)
        want = expected.data if expected is not None else None    # bytes: a read is due
        while record is not None and record.event <= index:
            if record.event == index and want is not None and record.access == "read":
                result.checked_reads += 1
                got = record.data or b""
                if not expected.legal and any(got):
                    result.leaks.append(_mismatch(record, "00" * len(got)))
                elif got != want or record.dst != expected.dst or record.actor != event.actor:
                    result.wrong_data.append(_mismatch(record, want.hex()))
                want = None
            elif record.event < index or record.access == "read":
                result.wrong_data.append(_mismatch(record, None))
            record = next(records, None)
        if want is not None:
            result.wrong_data.append({"seq": None, "event": index, "actor": event.actor,
                                      "dst": f"{expected.dst:#x}", "got": None,
                                      "want": want.hex()})
    while record is not None:
        result.wrong_data.append(_mismatch(record, None))
        record = next(records, None)
    shadow_digests = shadow.digests()
    labels = sorted(set(shadow_digests) | set(report.digests))
    for label in labels:
        want = shadow_digests.get(label)
        got = report.digests.get(label)
        if want != got:
            result.digest_mismatches.append({"region": label, "want": want, "got": got})
    result.ok = not (result.leaks or result.wrong_data or result.digest_mismatches)
    return result


# -- command line ----------------------------------------------------------------

def _render_text(report: RunReport, verdict: VerifyResult) -> str:
    c = report.counters
    state = "ok" if verdict.ok else "VIOLATION"
    return "\n".join([
        f"mode: {report.mode}",
        f"accesses: {c['accesses']}"
        f" (rw trapped {c['rw_trapped_accesses']},"
        f" exec trapped {c['exec_trapped_accesses']})",
        f"violations: {c['ept_violations']}"
        f"  switches: {c['ept_switches']}"
        f"  tlb flushes: {c['tlb_flushes']}",
        f"redirects: {c['redirects']}"
        f"  grants: {c['grants']}"
        f"  mtf windows: {c['mtf_windows']}",
        f"modeled ticks: {report.modeled_total_ticks}",
        f"digests: {len(report.digests)} regions",
        f"verification: {state}"
        f" ({len(verdict.leaks)} leaks, {len(verdict.wrong_data)} wrong reads,"
        f" {len(verdict.digest_mismatches)} digest mismatches,"
        f" {verdict.checked_reads} reads checked)",
    ]) + "\n"


def _load_events(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_trace(text)
    except TraceParseError as exc:
        print(f"{path}:{exc.line}: {exc}", file=sys.stderr)
        return None


def _load_cost_model(path: str | None) -> CostModel | None:
    if path is None:
        return CostModel()
    try:
        return CostModel.from_file(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None


def cli_run(args) -> int:
    events = _load_events(args.trace)
    if events is None:
        return 1
    cost_model = _load_cost_model(args.cost_model)
    if cost_model is None:
        return 1
    config = SimConfig(force_page_aligned=args.page_aligned, cost_model=cost_model)
    try:
        report = run_trace(events, args.mode, config)
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    verdict = verify_run(events, report)
    if args.report == "json":
        sys.stdout.write(report.to_json(extra={"verification": verdict.summary()}))
    else:
        sys.stdout.write(_render_text(report, verdict))
    return 0 if verdict.ok else 2


def cli_compare(args) -> int:
    events = _load_events(args.trace)
    if events is None:
        return 1
    cost_model = _load_cost_model(args.cost_model)
    if cost_model is None:
        return 1
    reports: dict[str, RunReport] = {}
    for mode in MODES:
        config = SimConfig(force_page_aligned=args.page_aligned, cost_model=cost_model)
        try:
            reports[mode] = run_trace(events, mode, config)
        except SimulationError as exc:
            print(f"simulation failed under {mode}: {exc}", file=sys.stderr)
            return 1
    ticks = {mode: reports[mode].modeled_total_ticks for mode in MODES}
    problems = []
    if not ticks["off"] < ticks["multi-ept"]:
        problems.append(f"off={ticks['off']} >= multi-ept={ticks['multi-ept']}")
    if not ticks["multi-ept"] < ticks["single-ept"]:
        problems.append(f"multi-ept={ticks['multi-ept']} >= single-ept={ticks['single-ept']}")
    if problems:
        verdict_line = "ORDERING VERDICT: FAIL (" + "; ".join(problems) + ")"
    else:
        verdict_line = (
            "ORDERING VERDICT: PASS ("
            f"off={ticks['off']} < multi-ept={ticks['multi-ept']}"
            f" < single-ept={ticks['single-ept']})"
        )
    if args.report == "json":
        payload = {
            "schema": COMPARE_SCHEMA,
            "modes": {
                mode: {
                    "counters": reports[mode].counters,
                    "modeled_total_ticks": ticks[mode],
                }
                for mode in MODES
            },
            "verdict": {
                "ordering": "FAIL" if problems else "PASS",
                "detail": "; ".join(problems) if problems else verdict_line,
            },
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        header = f"{'mode':<12}{'ticks':>14}{'violations':>12}{'switches':>10}{'redirects':>11}{'grants':>8}"
        lines = [header]
        for mode in MODES:
            c = reports[mode].counters
            lines.append(
                f"{mode:<12}{ticks[mode]:>14}{c['ept_violations']:>12}"
                f"{c['ept_switches']:>10}{c['redirects']:>11}{c['grants']:>8}"
            )
        lines.append(verdict_line)
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if not problems else 2


def cli_gen(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("RANGER_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed, 0)
        except ValueError:
            print(f"RANGER_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return 1
    try:
        if args.kind == "demo1":
            events = gen_demo1_trace()
        elif args.kind == "privesc":
            events = gen_privesc_trace()
        elif args.kind == "bench":
            events = gen_benchmark_trace(
                n_accesses=args.n if args.n is not None else 10_000,
                align=args.align,
            )
        else:
            events = gen_random_trace(
                seed,
                length=args.n if args.n is not None else 200,
                attack_probability=args.attack_probability,
            )
    except ValueError as exc:
        print(f"gen {args.kind}: {exc}", file=sys.stderr)
        return 1
    try:
        Path(args.output).write_text(serialize_trace(events))
    except OSError as exc:
        print(f"{args.output}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(events)} events to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memranger",
        description="Deterministic driver-isolation simulator and report tool.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a trace under one protection mode")
    run_p.add_argument("trace", help="trace file, one json event per line")
    run_p.add_argument("--mode", choices=MODES, default="multi-ept")
    run_p.add_argument("--page-aligned", action="store_true",
                       help="force every allocation onto its own pages")
    run_p.add_argument("--report", choices=("text", "json"), default="text")
    run_p.add_argument("--cost-model", default=None, help="json file with tick prices")
    run_p.set_defaults(func=cli_run)

    cmp_p = sub.add_parser("compare", help="replay a trace under all three modes")
    cmp_p.add_argument("trace")
    cmp_p.add_argument("--page-aligned", action="store_true")
    cmp_p.add_argument("--report", choices=("text", "json"), default="text")
    cmp_p.add_argument("--cost-model", default=None)
    cmp_p.set_defaults(func=cli_compare)

    gen_p = sub.add_parser("gen", help="emit a generated trace")
    gen_p.add_argument("kind", choices=("demo1", "privesc", "bench", "random"))
    gen_p.add_argument("--seed", type=int, default=0,
                       help="random trace seed (RANGER_SEED overrides)")
    gen_p.add_argument("--n", type=int, default=None,
                       help="accesses for bench, events for random")
    gen_p.add_argument("--align", choices=ALIGNS, default="page")
    gen_p.add_argument("--attack-probability", type=float, default=0.3)
    gen_p.add_argument("-o", "--output", required=True)
    gen_p.set_defaults(func=cli_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
