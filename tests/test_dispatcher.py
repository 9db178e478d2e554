"""Violation handling end to end: decoy windows, grants, context routing, and
the address check at the door."""

import pytest

from memranger.address_space import GPA_LIMIT, OS_KERNEL_CODE, PAGE_SIZE, FrameStore
from memranger.dispatcher import RETRY_BUDGET, VcpuState, execute_access, switch_ept
from memranger.ept_model import EXECUTE, NONE, READ, WRITE, Ept, EptEntry
from memranger.errors import PolicyLivelockError, SimulationError
from memranger.policy_map import DEFAULT_EPT, MapState, RegionLedger, SingleEptPolicy

IMAGE_A = 0x3000_0000
IMAGE_B = 0x3100_0000
IMAGE_SIZE = 0x2000
POOL_A = 0x5000_0000
KERNEL_CODE = OS_KERNEL_CODE[0] + 0x40
CODE_A = IMAGE_A + 0x100
CODE_B = IMAGE_B + 0x100

SECRET = b"\xde\xad\xbe\xef"


@pytest.fixture
def world():
    policy = MapState()
    store = FrameStore()
    a = policy.on_driver_load(IMAGE_A, IMAGE_SIZE)
    b = policy.on_driver_load(IMAGE_B, IMAGE_SIZE)
    policy.on_alloc(CODE_A, POOL_A, 0x100)
    store.fill_gpa_range(POOL_A, 0x100, SECRET)
    vcpu = VcpuState(current_ept=DEFAULT_EPT)
    return policy, store, vcpu, a, b


def test_legal_access_is_untrapped(world):
    policy, store, vcpu, a, _ = world
    switch_ept(vcpu, policy, a)
    record = execute_access(vcpu, policy, store, CODE_A, POOL_A + 4, READ)
    assert record.data == SECRET
    assert record["trapped"] is False
    assert record["decision"] == "allow"
    assert vcpu.counters["ept_violations"] == 0



def test_an_int_index_reads_the_record_as_a_tuple(world):
    """A string key reads the record's dict form; an int reads its fields
    in order, as tuple unpacking does."""
    policy, store, vcpu, a, _ = world
    switch_ept(vcpu, policy, a)
    record = execute_access(vcpu, policy, store, CODE_A, POOL_A + 4, READ, seq=7)
    assert record[0] == record.seq == 7
    assert record[5] == record.access == "read"
    seq, event, actor, src, dst, access, *rest = record
    assert (seq, event, actor, src, dst, access) == record[:6] == (
        record.seq, record.event, record.actor, record.src, record.dst, record.access)
    assert rest == [record.decision, record.ept_before, record.ept_after, record.traps,
                    record.switches, record.data, record.expect]
    assert record["dst"] == hex(POOL_A + 4) != record[4]

def test_foreign_read_redirects_and_restores(world):
    policy, store, vcpu, a, b = world
    switch_ept(vcpu, policy, b)
    page = POOL_A >> 12
    before = policy.epts[b].entry_for(page)
    record = execute_access(vcpu, policy, store, CODE_B, POOL_A + 4, READ)
    assert record.data == bytes(4)               # decoy frame, not the secret
    assert record["decision"] == "redirect_to_fake"
    assert record["redirected"] is True
    assert record["ept_after"] == b              # no context change for theft
    assert policy.epts[b].entry_for(page) == before
    assert vcpu.counters["mtf_windows"] == 1
    assert store.fake_pfn not in store.frames    # the window closed and scrubbed


def test_foreign_write_lands_in_the_decoy(world):
    policy, store, vcpu, a, b = world
    switch_ept(vcpu, policy, b)
    record = execute_access(
        vcpu, policy, store, CODE_B, POOL_A + 4, WRITE, payload=b"\x00" * 4
    )
    assert record["redirected"] is True
    # victim bytes untouched; decoy frame scrubbed after the window closed
    assert store.read_gpa_range(POOL_A + 4, 4) == SECRET
    assert store.read_gpa(store.fake_pfn * PAGE_SIZE + 4, 4) == bytes(4)
    assert store.fake_pfn not in store.frames


def test_decoy_frame_reads_zero_after_a_redirected_write(world):
    policy, store, vcpu, a, b = world
    switch_ept(vcpu, policy, b)
    record = execute_access(
        vcpu, policy, store, CODE_B, POOL_A + 4, WRITE, payload=b"\x5a" * 4
    )
    assert record["redirected"] is True and vcpu.counters["mtf_windows"] == 1
    # the restore drops the decoy's entry, no copy left behind
    assert store.read_gpa(store.fake_pfn * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert store.fake_pfn not in store.frames


def test_fetch_then_access_discipline(world):
    """An owner reaches its pool by faulting on the fetch, never on the data."""
    policy, store, vcpu, a, _ = world
    assert vcpu.current_ept == DEFAULT_EPT
    fetch = execute_access(vcpu, policy, store, KERNEL_CODE, CODE_A, EXECUTE)
    assert fetch["ept_after"] == a
    assert fetch["trapped"] is True
    record = execute_access(vcpu, policy, store, CODE_A, POOL_A, READ)
    assert record.data == SECRET
    assert record["trapped"] is False
    assert record["decision"] == "allow"


def test_execute_fetch_switches_into_the_enclave(world):
    policy, store, vcpu, a, _ = world
    record = execute_access(vcpu, policy, store, KERNEL_CODE, CODE_A, EXECUTE)
    assert record["ept_after"] == a
    assert record["switches"] == 1
    assert vcpu.counters["tlb_flushes"] == 1


def test_window_writes_the_leaf_twice_and_restores_it(world):
    """A single-step window writes exactly two leaves, open and restore, for a
    redirect as for a grant, and leaves the leaf bit for bit as it was."""
    policy, store, vcpu, a, b = world
    policy.on_alloc(CODE_B, POOL_A + 0x100, 0x10)     # same page as A's pool
    page = POOL_A >> 12
    switch_ept(vcpu, policy, b)
    ept = policy.epts[b]
    for dst, decision in ((POOL_A + 4, "redirect_to_fake"), (POOL_A + 0x104, "temporary_grant")):
        before, writes = ept.entry_for(page), ept.mutations
        record = execute_access(vcpu, policy, store, CODE_B, dst, READ)
        assert record["decision"] == decision
        assert record["ept_after"] == b
        assert ept.mutations == writes + 2
        assert ept.entry_for(page) == before


def test_home_restore_happens_before_translation(world):
    policy, store, vcpu, a, _ = world
    switch_ept(vcpu, policy, a)
    vcpu.counters["tlb_flushes"] = 0
    # kernel code is executable everywhere, so without the explicit home the
    # fetch would silently keep running inside the enclave
    record = execute_access(
        vcpu, policy, store, KERNEL_CODE, KERNEL_CODE, EXECUTE,
        home_ept=DEFAULT_EPT,
    )
    assert record["ept_after"] == DEFAULT_EPT
    assert record["switches"] == 1
    assert record["trapped"] is False


def test_locked_page_grant_relocks(world):
    policy, store, vcpu, a, b = world
    policy.on_alloc(CODE_B, POOL_A + 0x100, 0x10)     # same page as A's pool
    store.fill_gpa_range(POOL_A + 0x100, 0x10, b"\x22")
    page = POOL_A >> 12
    assert policy.epts[a].entry_for(page).attrs == NONE
    switch_ept(vcpu, policy, b)
    record = execute_access(vcpu, policy, store, CODE_B, POOL_A + 0x104, READ)
    assert record.data == b"\x22" * 4
    assert record["decision"] == "temporary_grant"
    assert record["granted"] is True
    # grant never leaves the page open
    assert policy.epts[b].entry_for(page).attrs == NONE
    assert vcpu.counters["grants"] == 1


@pytest.mark.parametrize("src, dst, decision, data", [
    (CODE_A, POOL_A + 4, "temporary_grant", SECRET),              # A's own bytes
    (CODE_A, POOL_A + 0x104, "redirect_to_fake", bytes(4)),       # the kernel pool's, to A
    (KERNEL_CODE, POOL_A + 0x104, "temporary_grant", b"\x22" * 4),
    (KERNEL_CODE, POOL_A + 4, "redirect_to_fake", bytes(4)),
    (CODE_A, POOL_A + 0x204, "redirect_to_fake", bytes(4)),       # no pool's bytes
    (KERNEL_CODE, POOL_A + 0x204, "redirect_to_fake", bytes(4)),
], ids=["owner", "enclave-to-kernel-pool", "kernel-owner", "kernel-to-enclave-pool",
        "enclave-gap", "kernel-gap"])
def test_single_ept_shared_page_goes_by_the_byte_owner(src, dst, decision, data):
    """Single-ept, a page shared by an enclave pool and a kernel-side pool:
    the page is sealed, every read traps once, and the owner of the byte's
    own pool, not of the page, decides between grant and redirect."""
    policy = SingleEptPolicy()
    store = FrameStore()
    policy.on_driver_load(IMAGE_A, IMAGE_SIZE)
    policy.on_alloc(CODE_A, POOL_A, 0x100)
    policy.on_alloc(KERNEL_CODE, POOL_A + 0x100, 0x100)
    store.fill_gpa_range(POOL_A, 0x100, SECRET)
    store.fill_gpa_range(POOL_A + 0x100, 0x100, b"\x22")
    page = POOL_A >> 12
    assert policy.epts[DEFAULT_EPT].entry_for(page).attrs == NONE
    vcpu = VcpuState(current_ept=DEFAULT_EPT)
    record = execute_access(vcpu, policy, store, src, dst, READ)
    assert (record.decision, record.data, record.traps) == (decision, data, 1)
    assert policy.epts[DEFAULT_EPT].entry_for(page).attrs == NONE


def test_write_requires_payload(world):
    policy, store, vcpu, _, _ = world
    with pytest.raises(SimulationError):
        execute_access(vcpu, policy, store, KERNEL_CODE, 0x9000_0000, WRITE)


def test_unknown_access_kind_rejected(world):
    policy, store, vcpu, _, _ = world
    with pytest.raises(SimulationError, match="^unknown access kind 'fetch'$"):
        execute_access(vcpu, policy, store, KERNEL_CODE, 0x9000_0000, "fetch")


def test_page_straddling_access_rejected(world):
    policy, store, vcpu, _, _ = world
    with pytest.raises(SimulationError):
        execute_access(
            vcpu, policy, store, KERNEL_CODE, 0x9000_0FFE, WRITE, payload=b"1234"
        )


def test_switch_to_unknown_context(world):
    policy, _, vcpu, _, _ = world
    with pytest.raises(SimulationError):
        switch_ept(vcpu, policy, 99)


def test_switch_to_self_is_free(world):
    policy, _, vcpu, _, _ = world
    switch_ept(vcpu, policy, DEFAULT_EPT)
    assert vcpu.counters["ept_switches"] == 0
    assert vcpu.counters["tlb_flushes"] == 0


class _PingPongPolicy:
    """Pathological brain: bounces the vcpu between two contexts forever."""

    def __init__(self):
        self.epts = {0: Ept(0), 1: Ept(1)}
        for ept in self.epts.values():
            ept.set_page_entry(0x7000_0000 >> 12, EptEntry(0x7000_0000 >> 12, NONE))

    def classify_access(self, current_ept, src, dst, access):
        return 1 - current_ept


def test_livelock_budget_trips():
    policy = _PingPongPolicy()
    vcpu = VcpuState(current_ept=0)
    with pytest.raises(PolicyLivelockError):
        execute_access(vcpu, policy, FrameStore(), 0x1000, 0x7000_0000, READ)
    assert vcpu.counters["ept_violations"] == RETRY_BUDGET + 1


@pytest.mark.parametrize("policy_class", [RegionLedger, SingleEptPolicy, MapState])
@pytest.mark.parametrize("src, dst, access", [
    (-5, POOL_A + 4, READ),              # an untrapped read at the parent
    (2**60, 0x9000_0000, READ),          # likewise: nothing traps on open data
    (GPA_LIMIT, POOL_A + 4, WRITE),
    (KERNEL_CODE, -1, READ),
    (KERNEL_CODE, GPA_LIMIT, EXECUTE),
    (KERNEL_CODE, 2**60, READ),
], ids=["src-negative", "src-huge", "src-at-limit", "dst-negative", "dst-at-limit", "dst-huge"])
def test_out_of_range_address_is_rejected_at_the_door(policy_class, src, dst, access):
    """An access whose src or dst lies outside [0, GPA_LIMIT) raises before
    anything moves: no counter, no context, no leaf, no frame, no record."""
    policy = policy_class()
    a = policy.on_driver_load(IMAGE_A, IMAGE_SIZE)
    policy.on_alloc(CODE_A, POOL_A, 0x100)
    store = FrameStore()
    vcpu = VcpuState(current_ept=DEFAULT_EPT)
    if a in policy.epts:
        switch_ept(vcpu, policy, a)
    counters = dict(vcpu.counters)
    leaves = {ept_id: dict(ept.materialized_leaves()) for ept_id, ept in policy.epts.items()}
    frames = dict(store.frames)
    log = []
    with pytest.raises(SimulationError, match="outside the modelled space"):
        log.append(execute_access(
            vcpu, policy, store, src, dst, access, payload=b"\x5a" * 4, home_ept=DEFAULT_EPT,
        ))
    assert log == []
    assert vcpu.counters == counters
    assert vcpu.current_ept == (a if a in policy.epts else DEFAULT_EPT)
    assert {ept_id: dict(ept.materialized_leaves()) for ept_id, ept in policy.epts.items()} == leaves
    assert store.frames == frames
