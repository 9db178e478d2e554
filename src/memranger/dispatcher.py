"""Access execution engine.

Runs one guest access against the current translation context. Its addresses
must lie in the modelled space, or it is rejected before anything moves. A
refused translation goes to the policy, which either switches contexts for a
retry or has the leaf opened for one single-stepped instruction (the decoy
frame for a redirect, the real frame for a grant): the access runs, and the
leaf is restored bit for bit on the single-step exit.

A policy that keeps no contexts (mode ``off``) runs with translation off:
each access passes the same checks and lands on its identity frame untrapped.

Every access returns a log record, an AccessRecord: the raw fields of the
access plus its trap and switch counts. The run's counters, kept in
VcpuState.counters, are what the cost model prices; a record explains where
one access's share came from.
"""

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .address_space import GPA_LIMIT, PAGE_SHIFT, PAGE_SIZE, FrameStore, offset_in_page
from .ept_model import ACCESS_BIT, EXECUTE, READ, WRITE, Access, EptEntry
from .errors import PolicyLivelockError, SimulationError
from .policy_map import DecisionKind, RegionLedger

RETRY_BUDGET = 4


class AccessRecord(NamedTuple):
    """One logged access, kept compact: ints, the shared label strings and the
    raw bytes a read observed. Its dict form, the one a report prints, is
    rendered only on demand, by as_dict(), and record[key], record.get(key)
    and dict(record) read that same form: src and dst as hex strings, data as
    a hex string, and trapped, redirected and granted derived."""

    seq: int                    # position in the run's log
    event: int                  # index of the trace event that made the access
    actor: str
    src: int
    dst: int
    access: Access | str        # the access kind, a member or its trace string
    decision: str               # "allow" | "redirect_to_fake" | "temporary_grant"
    ept_before: int
    ept_after: int
    traps: int
    switches: int
    data: bytes | None          # the bytes a read observed; None otherwise
    expect: str | None          # the trace's own label, if it gave one

    def as_dict(self) -> dict:
        return {key: read(self) for key, read in _RENDER.items()}

    def keys(self):
        return _RENDER.keys()

    def __getitem__(self, key):
        if type(key) is str:
            return _RENDER[key](self)
        return tuple.__getitem__(self, key)

    def get(self, key: str, default=None):
        read = _RENDER.get(key)
        return default if read is None else read(self)


# The dict form of a record, one reader per key, in the order a report has
# always listed them.
_RENDER = {
    "actor": attrgetter("actor"),
    "src": lambda record: f"{record.src:#x}",
    "dst": lambda record: f"{record.dst:#x}",
    "access": lambda record: str.__str__(record.access),    # the plain string, also for a member
    "ept_before": attrgetter("ept_before"),
    "ept_after": attrgetter("ept_after"),
    "decision": attrgetter("decision"),
    "trapped": lambda record: record.traps > 0,
    "traps": attrgetter("traps"),
    "switches": attrgetter("switches"),
    "redirected": lambda record: record.decision == "redirect_to_fake",
    "granted": lambda record: record.decision == "temporary_grant",
    "data": lambda record: None if record.data is None else record.data.hex(),
    "seq": attrgetter("seq"),
    "event": attrgetter("event"),
    "expect": attrgetter("expect"),
}
# Builds a record without the named tuple's Python-level __new__.
_new_record = tuple.__new__


def _fresh_counters() -> dict:
    return {
        "accesses": 0,
        "ept_violations": 0,
        "ept_switches": 0,
        "tlb_flushes": 0,
        "redirects": 0,
        "grants": 0,
        "mtf_windows": 0,
        "forced_switches": 0,
        "rw_trapped_accesses": 0,       # reads and writes that trapped at least once
        "exec_trapped_accesses": 0,     # instruction fetches that trapped at least once
    }


@dataclass
class VcpuState:
    current_ept: int = 0
    counters: dict = field(default_factory=_fresh_counters)


def switch_ept(vcpu: VcpuState, policy, target: int) -> None:
    """Point the vcpu at another context. Switching to the current context is
    a no-op and is not counted; a real switch costs one TLB flush."""
    if target not in policy.epts:
        raise SimulationError(f"switch to unknown context {target}")
    if target == vcpu.current_ept:
        return
    vcpu.current_ept = target
    vcpu.counters["ept_switches"] += 1
    vcpu.counters["tlb_flushes"] += 1


def _perform(store: FrameStore, hpa: int, access: Access, payload, length: int):
    if access == READ:
        return store.read_gpa(hpa, length)
    if access == WRITE:
        store.write_gpa(hpa, payload)
    return None    # instruction fetch moves no data here


def execute_access(
    vcpu: VcpuState,
    policy: RegionLedger,
    store: FrameStore,
    src: int,
    dst: int,
    access: Access,
    payload: bytes | None = None,
    actor: str = "",
    home_ept: int | None = None,
    seq: int = 0,
    event: int = -1,
    expect: str | None = None,
) -> AccessRecord:
    """Run one access to completion and return its record, whose data is the
    bytes a read observed, None otherwise. A read moves 4 bytes, a write its
    payload and an instruction fetch 1 byte. src and dst must lie in the
    modelled space. seq, event and expect are the caller's bookkeeping,
    copied into the record as they are.

    home_ept, when given, is restored before the access runs: the scheduler
    passes it when dispatching the os kernel, whose code never faults on
    fetch and would otherwise keep running in the last driver's context."""
    if not (0 <= src < GPA_LIMIT and 0 <= dst < GPA_LIMIT):
        raise SimulationError(f"access from {src:#x} to {dst:#x} outside the modelled space")
    if access == READ:
        length = 4
    elif access == WRITE:
        if payload is None:
            raise SimulationError("write without payload")
        length = len(payload)
    elif access == EXECUTE:
        length = 1
    else:
        raise SimulationError(f"unknown access kind {access!r}")
    if length <= 0 or offset_in_page(dst) + length > PAGE_SIZE:
        raise SimulationError(f"access at {dst:#x} length {length} crosses a page")

    counters = vcpu.counters
    counters["accesses"] += 1
    ept_before = vcpu.current_ept
    traps = 0
    switches = 0
    decision_label = "allow"

    if home_ept is not None and home_ept != vcpu.current_ept:
        switches += 1
        switch_ept(vcpu, policy, home_ept)

    epts = policy.epts
    hpa = dst    # with no contexts translation is off: the identity frame
    while epts:
        ept = epts[vcpu.current_ept]
        hpa = ept.translate(dst, access)
        if hpa is not None:
            break
        traps += 1
        counters["ept_violations"] += 1
        decision = policy.classify_access(vcpu.current_ept, src, dst, access)
        if decision.kind is not DecisionKind.SWITCH_EPT:
            break
        switches += 1
        if switches > RETRY_BUDGET:
            raise PolicyLivelockError(
                f"access to {dst:#x} still faulting after {RETRY_BUDGET} switches"
            )
        switch_ept(vcpu, policy, decision.target_ept)

    if hpa is not None:
        data = _perform(store, hpa, access, payload, length)
    else:
        # a single-step window: open the leaf to exactly this access kind for
        # one instruction, through the decoy frame or the real one
        page = dst >> PAGE_SHIFT
        saved = ept.entry_for(page)
        redirect = decision.kind is DecisionKind.REDIRECT_TO_FAKE
        if redirect:
            decision_label = "redirect_to_fake"
            counters["redirects"] += 1
            window_pfn = store.fake_pfn
        else:    # TEMPORARY_GRANT
            decision_label = "temporary_grant"
            counters["grants"] += 1
            window_pfn = saved.pfn
        ept.set_page_entry(page, EptEntry(window_pfn, saved.attrs | ACCESS_BIT[access]))
        hpa = ept.translate(dst, access)
        if hpa is None:
            raise RuntimeError("window entry still refuses the access")
        data = _perform(store, hpa, access, payload, length)
        # the single-step exit: restore the leaf, and scrub the decoy frame
        # so that redirected writes vanish
        ept.set_page_entry(page, saved)
        if redirect:
            store.zero_fake()
        counters["mtf_windows"] += 1
        if ept.entry_for(page) != saved:
            raise RuntimeError("single-step window failed to restore the leaf entry")

    if traps:
        counters["exec_trapped_accesses" if access == EXECUTE else "rw_trapped_accesses"] += 1
    return _new_record(AccessRecord, (
        seq, event, actor, src, dst, access, decision_label,
        ept_before, vcpu.current_ept, traps, switches, data, expect,
    ))
