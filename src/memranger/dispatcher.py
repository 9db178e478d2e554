"""Access execution engine.

Runs one guest access against the current translation context, consuming
violations as values: switch contexts and retry, or open a one-instruction
window (decoy frame for refusals, the real frame for grants), perform the
access, then restore the leaf entry bit for bit on the single-step exit.

A policy that keeps no contexts (mode ``off``) runs with translation off:
each access passes the same checks and lands on its identity frame untrapped.

Every access returns a log record carrying the trap/switch/window counts the
cost model is computed from.
"""

from dataclasses import dataclass, field
from enum import Enum

from .address_space import PAGE_SHIFT, PAGE_SIZE, FrameStore, offset_in_page
from .ept_model import ACCESS_BIT, Access, EptEntry, EptViolation
from .errors import PolicyLivelockError, SimulationError
from .policy_map import DecisionKind, RegionLedger

RETRY_BUDGET = 4


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
    if access is Access.READ:
        store.ensure(pfn)
        return store.read_bytes(pfn, offset, length)
    if access is Access.WRITE:
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
) -> tuple[bytes | None, dict]:
    """Run one access to completion. Returns (data, log_record); data is the
    bytes a read observed, None otherwise. A read moves 4 bytes, a write its
    payload and an instruction fetch 1 byte.

    home_ept, when given, is restored before the access runs: the scheduler
    passes it when dispatching the os kernel, whose code never faults on
    fetch and would otherwise keep running in the last driver's context."""
    if vcpu.mtf is not None:
        raise RuntimeError("access started while a single-step window is open")
    if access is Access.WRITE:
        if payload is None:
            raise SimulationError("write without payload")
        length = len(payload)
    else:
        length = 1 if access is Access.EXECUTE else 4
    if length <= 0 or offset_in_page(dst) + length > PAGE_SIZE:
        raise SimulationError(f"access at {dst:#x} length {length} crosses a page")

    vcpu.counters["accesses"] += 1
    ept_before = vcpu.current_ept
    traps = 0
    switches = 0
    decision_label = "allow"
    redirected = False
    granted = False
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
            redirected = True
            decision_label = "redirect_to_fake"
            vcpu.counters["redirects"] += 1
            window_pfn = store.fake_pfn
            kind = MtfKind.RESTORE_AFTER_FAKE
        else:    # TEMPORARY_GRANT
            granted = True
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

    record = {
        "actor": actor,
        "src": f"{src:#x}",
        "dst": f"{dst:#x}",
        "access": access.value,
        "ept_before": ept_before,
        "ept_after": vcpu.current_ept,
        "decision": decision_label,
        "trapped": traps > 0,
        "traps": traps,
        "switches": switches,
        "redirected": redirected,
        "granted": granted,
        "data": data.hex() if data is not None else None,
    }
    return data, record
