"""Tracing from outside the program, for the traced run only.

The tracer wraps public callables of each layer for the length of the traced
phase and restores them afterwards. Calls down to ``Simulation.step`` are kept
as spans (name, start, end, parent span, unit); calls below that level, which
run once or twice per simulated access, only add to a busy time and a count,
so memory stays bounded on long traces. Every wrapped call also adds its self
time (its duration minus that of the wrapped calls it made) to its layer.
"""

import gzip
import json
from collections import defaultdict
from time import perf_counter_ns

STEP_KINDS = {
    "LoadDriver": "load_driver",
    "UnloadDriver": "unload_driver",
    "Alloc": "alloc",
    "Free": "free",
    "CreateProcess": "process",
    "ExitProcess": "process",
    "Schedule": "schedule",
    "AccessEvent": "access",
}


class Tracer:
    def __init__(self):
        self.unit = -1
        self.spans: list[tuple] = []            # (id, name, start_ns, end_ns, parent id, unit)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []            # [layer, child ns, span id for children]
        self._next_span = 0
        self._undo: list[tuple] = []

    def call(self, layer: str, name: str, fn, *args, span: bool = True, **kwargs):
        parent = self._stack[-1][2] if self._stack else -1
        span_id = parent
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [layer, 0, span_id]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.busy_ns[name] += duration
            self.calls[name] += 1
            self.self_ns[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if span:
                self.spans.append((span_id, name, start, end, parent, self.unit))

    def wrap(self, owner, attr: str, layer: str, name: str, span: bool = False,
             name_of=None, observe=None) -> None:
        """Replace owner.attr by a traced wrapper until unwrap_all()."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name_of(args) if name_of is not None else name
            result = tracer.call(layer, label, original, *args, span=span, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def gauge(self, name: str, value) -> None:
        self.gauges[name].append(value)

    def write(self, path, header: dict) -> None:
        """Write the header and every span, one json array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _step_name(args) -> str:
    return "kernel_sim.step." + STEP_KINDS.get(type(args[1]).__name__, "other")


def _observe_report(tracer: Tracer, args, report) -> None:
    sim = args[0]
    epts = sim.policy.epts.values()
    tracer.gauge("address_space.frames", len(sim.store.frames))
    tracer.gauge("ept_model.leaves", sum(1 for ept in epts for _ in ept.materialized_leaves()))
    tracer.gauge("policy_map.leaf_writes", sum(ept.mutations for ept in epts))


def _observe_rebuild(tracer: Tracer, args, policy) -> None:
    tracer.gauge("reference_oracle.universe_pages", len(policy.universe))


def _observe_digest(tracer: Tracer, args, digest) -> None:
    tracer.gauge("address_space.digest_bytes", args[2])


def instrument(tracer: Tracer, mem) -> None:
    """Wrap the public callables of every layer, as named in the metric table."""
    ks, pm, ro = mem.kernel_sim, mem.policy_map, mem.reference_oracle
    sim = ks.Simulation
    tracer.wrap(sim, "__init__", "kernel_sim", "kernel_sim.sim_init", span=True)
    tracer.wrap(sim, "step", "kernel_sim", "", span=True, name_of=_step_name)
    tracer.wrap(sim, "report", "kernel_sim", "kernel_sim.report", span=True,
                observe=_observe_report)
    # SingleEptPolicy lives in kernel_sim but plays the policy layer's part
    for policy in (pm.MapState, ks.SingleEptPolicy):
        for hook in ("on_driver_load", "on_driver_unload", "on_alloc", "on_free",
                     "on_process_create", "on_process_exit", "classify_access"):
            tracer.wrap(policy, hook, "policy_map", f"policy_map.{hook}")
    tracer.wrap(ks, "execute_access", "dispatcher", "dispatcher.execute_access")
    tracer.wrap(mem.ept_model.Ept, "translate", "ept_model", "ept_model.translate")
    tracer.wrap(mem.ept_model.Ept, "set_page_entry", "ept_model", "ept_model.set_page_entry")
    tracer.wrap(ro.OracleChecker, "verify", "reference_oracle", "reference_oracle.verify",
                span=True)
    tracer.wrap(ro, "rebuild", "reference_oracle", "reference_oracle.rebuild",
                observe=_observe_rebuild)
    tracer.wrap(ro, "check_against", "reference_oracle", "reference_oracle.sweep")
    store = mem.address_space.FrameStore
    tracer.wrap(store, "fill_gpa_range", "address_space", "address_space.fill")
    tracer.wrap(store, "read_gpa_range", "address_space", "address_space.read")
    tracer.wrap(store, "digest_gpa_range", "address_space", "address_space.digest",
                observe=_observe_digest)
