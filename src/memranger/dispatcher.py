"""Access execution engine.

Runs one guest access against the current translation context, consuming
violations as values: switch contexts and retry, or open a one-instruction
window (decoy frame for refusals, the real frame for grants), perform the
access, then restore the leaf entry bit for bit on the single-step exit.

A policy that keeps no contexts (mode ``off``) runs with translation off:
each access passes the same checks and lands on its identity frame untrapped.

Every access returns a log record, an AccessRecord: the raw fields of the
access plus the trap/switch/window counts the cost model is computed from.
"""

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .address_space import PAGE_SHIFT, PAGE_SIZE, FrameStore, offset_in_page
from .ept_model import ACCESS_BIT, Access, EptEntry, EptViolation
from .errors import PolicyLivelockError, SimulationError
from .policy_map import DecisionKind, RegionLedger

RETRY_BUDGET = 4

# Bound once: reading a member through the enum class costs about 100 ns.
READ, WRITE, EXECUTE = Access.READ, Access.WRITE, Access.EXECUTE


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
    access: str                 # "read" | "write" | "execute"
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
    "access": attrgetter("access"),
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


class MtfKind(Enum):
    RESTORE_AFTER_FAKE = "restore_after_fake"
    RELOCK_AFTER_GRANT = "relock_after_grant"


@dataclass(frozen=True)
class MtfPending:
    kind: MtfKind
    ept_id: int
    page: int
    saved: EptEntry


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
    }


@dataclass
class VcpuState:
    current_ept: int = 0
    mtf: MtfPending | None = None
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


def handle_mtf(vcpu: VcpuState, policy, store: FrameStore) -> None:
    """Close the pending single-step window: restore the saved leaf entry
    exactly, and scrub the decoy frame so redirected writes vanish."""
    pending = vcpu.mtf
    if pending is None:
        raise RuntimeError("single-step exit without a pending window")
    policy.epts[pending.ept_id].set_page_entry(pending.page, pending.saved)
    if pending.kind is MtfKind.RESTORE_AFTER_FAKE:
        store.zero_fake()
    vcpu.mtf = None
    vcpu.counters["mtf_windows"] += 1


def _perform(store: FrameStore, hpa: int, access: Access, payload, length: int):
    pfn = hpa >> PAGE_SHIFT
    offset = hpa & (PAGE_SIZE - 1)
    if access is READ:
        store.ensure(pfn)
        return store.read_bytes(pfn, offset, length)
    if access is WRITE:
        store.ensure(pfn)
        store.write_bytes(pfn, offset, payload)
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
) -> tuple[bytes | None, AccessRecord]:
    """Run one access to completion. Returns (data, record); data is the
    bytes a read observed, None otherwise. A read moves 4 bytes, a write its
    payload and an instruction fetch 1 byte. seq, event and expect are the
    caller's bookkeeping, copied into the record as they are.

    home_ept, when given, is restored before the access runs: the scheduler
    passes it when dispatching the os kernel, whose code never faults on
    fetch and would otherwise keep running in the last driver's context."""
    if vcpu.mtf is not None:
        raise RuntimeError("access started while a single-step window is open")
    if access is READ:
        length, label = 4, "read"
    elif access is WRITE:
        if payload is None:
            raise SimulationError("write without payload")
        length, label = len(payload), "write"
    elif access is EXECUTE:
        length, label = 1, "execute"
    else:
        raise SimulationError(f"unknown access kind {access!r}")
    if length <= 0 or offset_in_page(dst) + length > PAGE_SIZE:
        raise SimulationError(f"access at {dst:#x} length {length} crosses a page")

    vcpu.counters["accesses"] += 1
    ept_before = vcpu.current_ept
    traps = 0
    switches = 0
    decision_label = "allow"
    data = None

    if home_ept is not None and home_ept != vcpu.current_ept:
        switches += 1
        switch_ept(vcpu, policy, home_ept)

    while True:
        if not policy.epts:    # no contexts: translation is off
            data = _perform(store, dst, access, payload, length)
            break
        ept = policy.epts[vcpu.current_ept]
        result = ept.translate(dst, access)
        if not isinstance(result, EptViolation):
            data = _perform(store, result, access, payload, length)
            break

        traps += 1
        vcpu.counters["ept_violations"] += 1
        decision = policy.classify_access(vcpu.current_ept, src, dst, access)
        if decision.kind is DecisionKind.SWITCH_EPT:
            switches += 1
            if switches > RETRY_BUDGET:
                raise PolicyLivelockError(
                    f"access to {dst:#x} still faulting after {RETRY_BUDGET} switches"
                )
            switch_ept(vcpu, policy, decision.target_ept)
            continue
        if decision.kind is DecisionKind.DENY:
            raise SimulationError(f"access to {dst:#x} denied: {decision.reason}")

        page = dst >> PAGE_SHIFT
        saved = ept.entry_for(page)
        if decision.kind is DecisionKind.REDIRECT_TO_FAKE:
            decision_label = "redirect_to_fake"
            vcpu.counters["redirects"] += 1
            window_pfn = store.fake_pfn
            kind = MtfKind.RESTORE_AFTER_FAKE
        else:    # TEMPORARY_GRANT
            decision_label = "temporary_grant"
            vcpu.counters["grants"] += 1
            window_pfn = saved.pfn
            kind = MtfKind.RELOCK_AFTER_GRANT
        # permit exactly this access kind for the single stepped instruction
        ept.set_page_entry(page, EptEntry(window_pfn, saved.attrs | ACCESS_BIT[access]))
        vcpu.mtf = MtfPending(kind, ept.id, page, saved)
        window = ept.translate(dst, access)
        if isinstance(window, EptViolation):
            raise RuntimeError("window entry still refuses the access")
        data = _perform(store, window, access, payload, length)
        handle_mtf(vcpu, policy, store)
        if ept.entry_for(page) != saved:
            raise RuntimeError("single-step window failed to restore the leaf entry")
        break

    return data, _new_record(AccessRecord, (
        seq, event, actor, src, dst, label, decision_label,
        ept_before, vcpu.current_ept, traps, switches, data, expect,
    ))
