"""Brute-force checker vs the incremental policy, driven by random event walks."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from memranger import address_space, policy_map, reference_oracle
from memranger.address_space import OS_KERNEL_CODE as KERNEL
from memranger.address_space import OS_STRUCTURES as STRUCTS
from memranger.address_space import OTHER_DRIVER
from memranger.address_space import PAGE_SHIFT
from memranger.ept_model import ACCESS_BIT, EXECUTE, NONE, READ, RW, RWX, WRITE, Ept, EptEntry, R, W, X
from memranger.kernel_sim import Simulation, gen_random_trace, run_trace
from memranger.policy_map import DEFAULT_EPT, MapState
from memranger.reference_oracle import (
    Mismatch,
    OracleChecker,
    SnapshotView,
    check_against,
    rebuild,
    snapshot_from_map,
)
from memranger.report_cli import _Shadow

IMAGE_SIZE = 0x2000
KERNEL_CODE = KERNEL[0] + 0x40
POOL_PAGE = 0x5000_0000


def fresh():
    return MapState()


def test_clean_state_agrees():
    state = fresh()
    assert OracleChecker().verify(state, state.epts) == []


def test_full_choreography_agrees():
    state = fresh()
    checker = OracleChecker()
    a = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    b = state.on_driver_load(0x3100_0000, IMAGE_SIZE)
    state.on_alloc(0x3000_0100, 0x5000_0000, 0x100)
    state.on_alloc(0x3100_0100, 0x5000_0100, 0x10)      # same page: lockdown
    state.on_alloc(KERNEL_CODE, 0x5000_2000, 0x80)      # kernel-owned, stays open
    state.on_process_create(4, [(STRUCTS[0] + 0x2000, 0x200)])
    assert checker.verify(state, state.epts) == []
    state.on_free(0x5000_0100)
    state.on_process_exit(4)
    state.on_driver_unload(b)
    assert checker.verify(state, state.epts) == []
    state.on_driver_unload(a)
    assert checker.verify(state, state.epts) == []


def test_corruption_is_caught():
    state = fresh()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    checker = OracleChecker()
    assert checker.verify(state, state.epts) == []
    # sabotage one leaf behind the policy's back
    state.epts[DEFAULT_EPT].set_page_entry(0x3000_0000 >> 12, EptEntry(0x3000_0000 >> 12, RWX))
    found = checker.verify(state, state.epts)
    assert found, "hand-flipped leaf went unnoticed"
    assert found[0].page == 0x3000_0000 >> 12
    assert found[0].ept == DEFAULT_EPT


def test_wrong_frame_is_caught():
    state = fresh()
    state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    page = KERNEL[0] >> 12
    entry = state.epts[DEFAULT_EPT].entry_for(page)
    state.epts[DEFAULT_EPT].set_page_entry(page, EptEntry(entry.pfn + 1, entry.attrs))
    found = OracleChecker().verify(state, state.epts)
    assert any(m.page == page and m.actual == "redirected-pfn" for m in found)


def test_missing_context_is_caught():
    """A context the table expects but the engine lacks, and one the engine
    holds that the table does not know, are each one mismatch, from the
    sweep and from the incremental checker alike; restoring the real contexts
    clears the checker."""
    state = fresh()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    policy = rebuild(snapshot_from_map(state))
    epts = dict(state.epts)
    del epts[eid]
    epts[99] = Ept(99)
    found = check_against(policy, epts)
    assert found == [Mismatch(eid, -1, "present", "missing"), Mismatch(99, -1, "absent", "present")]
    checker = OracleChecker()
    assert checker.verify(state, epts) == found
    assert checker.verify(state, state.epts) == []


def test_leaf_on_a_page_no_region_claimed_is_caught():
    """Every page off the table expects identity RW, so a leaf planted where
    no region ever was is reported by the checker, across a layout change, by
    a fresh checker, and by the from-scratch sweep, until it is restored."""
    state = fresh()
    checker = OracleChecker()
    assert checker.verify(state, state.epts) == []
    page = 0x6000_0000 >> 12
    ept = state.epts[DEFAULT_EPT]
    ept.set_page_entry(page, EptEntry(page, RWX))
    planted = [Mismatch(DEFAULT_EPT, page, "rw-", "rwx")]
    assert checker.verify(state, state.epts) == planted
    state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    assert checker.verify(state, state.epts) == planted
    assert OracleChecker().verify(state, state.epts) == planted
    assert check_against(rebuild(snapshot_from_map(state)), state.epts) == planted
    ept.set_page_entry(page, EptEntry(page, RW))
    assert checker.verify(state, state.epts) == []
    assert check_against(rebuild(snapshot_from_map(state)), state.epts) == []


def test_released_page_left_unstamped_is_caught(monkeypatch):
    """After a layout change the pages claimed before it are compared too,
    though no leaf was written: a free the engine forgets to restamp leaves
    stale leaves on the pool's page, reported as a fresh sweep reports them."""
    state = fresh()
    checker = OracleChecker()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    state.on_alloc(0x3000_0100, 0x5000_0000, 0x100)
    assert checker.verify(state, state.epts) == []
    monkeypatch.setattr(type(state), "_restamp", lambda self, pages: None)
    state.on_free(0x5000_0000)
    page = 0x5000_0000 >> 12
    stale = [Mismatch(DEFAULT_EPT, page, "rw-", "---"), Mismatch(eid, page, "rw-", "rwx")]
    assert check_against(rebuild(snapshot_from_map(state)), state.epts) == stale
    assert checker.verify(state, state.epts) == stale


def _two_drivers_a_process_and_pools():
    """A ledger with two loaded drivers, a process, an open pool and one pool
    of each driver; its checker, after one clean check; driver A's context id."""
    state = fresh()
    a = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    state.on_driver_load(0x3100_0000, IMAGE_SIZE)
    state.on_alloc(0x3000_0100, POOL_PAGE, 0x100)
    state.on_alloc(0x3100_0100, POOL_PAGE + 0x1000, 0x1000)
    state.on_alloc(KERNEL_CODE, POOL_PAGE + 0x2000, 0x80)
    state.on_process_create(4, [(0x7000_0000, 0x200)])
    checker = OracleChecker()
    assert checker.verify(state, state.epts) == []
    return state, checker, a


@pytest.mark.parametrize("caller, base, changed", [
    (0x3100_0100, POOL_PAGE + 0x3000, [POOL_PAGE + 0x3000]),     # a fresh page
    (0x3000_0100, POOL_PAGE + 0x100, []),                        # the owner's page again
    (0x3100_0100, POOL_PAGE + 0x100, [POOL_PAGE]),               # the page turns shared
], ids=["fresh-page", "same-owner", "shared"])
def test_a_check_after_an_alloc_reads_only_the_pages_whose_claim_changed(
        monkeypatch, caller, base, changed):
    """After an Alloc of one page, the check reads in each context the leaf of
    that page only if its claim changed, and no other leaf, though two images,
    a process and three other pools are live."""
    state, checker, _ = _two_drivers_a_process_and_pools()
    reads = []
    entry_for = Ept.entry_for

    def counted(self, page):
        reads.append((self.id, page))
        return entry_for(self, page)

    monkeypatch.setattr(Ept, "entry_for", counted)
    state.on_alloc(caller, base, 0x10)
    assert checker.verify(state, state.epts) == []
    pages = [gpa >> PAGE_SHIFT for gpa in changed]
    assert sorted(reads) == sorted((ept_id, page) for ept_id in state.epts for page in pages)


@pytest.mark.parametrize("change", ["shared-alloc", "unload", "process-exit"])
def test_an_unstamped_claim_change_is_caught(monkeypatch, change):
    """A claim change the engine forgets to restamp leaves stale leaves on
    the pages whose claim changed, with no leaf written: an alloc that makes
    a page shared, an unload (of the image and the driver's pool) and a
    process exit. The checker reports exactly what a fresh sweep reports."""
    state, checker, a = _two_drivers_a_process_and_pools()
    monkeypatch.setattr(type(state), "_restamp", lambda self, pages, epts=None: None)
    if change == "shared-alloc":
        state.on_alloc(0x3100_0100, POOL_PAGE + 0x100, 0x10)
    elif change == "unload":
        state.on_driver_unload(a)
    else:
        state.on_process_exit(4)
    stale = check_against(rebuild(snapshot_from_map(state)), state.epts)
    assert stale and all(m.page >= 0 for m in stale)
    assert checker.verify(state, state.epts) == stale


def test_replaced_context_is_read_again():
    """A context replaced by another object under the same id, with the same
    number of writes and the layout unchanged, is read again in full."""
    page = 0x3000_0000 >> 12
    states = fresh(), fresh()
    for state, attrs in zip(states, (RWX, NONE)):
        eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
        state.epts[eid].set_page_entry(page, EptEntry(page, attrs))   # RWX is what the rule gives
    kept, other = states
    assert kept.epts[eid].mutations == other.epts[eid].mutations
    checker = OracleChecker()
    assert checker.verify(kept, kept.epts) == []
    swapped = {**kept.epts, eid: other.epts[eid]}
    assert checker.verify(kept, swapped) == [Mismatch(eid, page, "rwx", "---")]
    assert checker.verify(kept, kept.epts) == []


def test_cached_checker_matches_a_fresh_sweep_under_sabotage():
    """The incremental checker must report exactly what a from-scratch sweep
    reports, also when leaves are overwritten behind the policy's back."""
    rng = random.Random(20261018)
    checks = sabotaged = flagged = 0
    for seed in range(40):
        checker = OracleChecker()
        history: set[int] = set()    # the static pages and every page ever claimed

        def hook(sim, index, event, history=history):
            nonlocal checks, sabotaged, flagged
            m = sim.policy
            history.update(policy_map._STATIC_KIND, m._claims, m.pool_pages)
            if rng.random() < 0.05:
                ept = m.epts[rng.choice(sorted(m.epts))]
                page = rng.choice(sorted(history))
                entry = ept.entry_for(page)
                if rng.random() < 0.5:
                    attrs = sum(bit for bit in (R, W, X) if rng.random() < 0.5)
                    ept.set_page_entry(page, EptEntry(entry.pfn, attrs))
                else:
                    ept.set_page_entry(page, EptEntry(entry.pfn + 1, entry.attrs))
                sabotaged += 1
            fresh_sweep = check_against(rebuild(snapshot_from_map(m)), m.epts)
            assert checker.verify(m, m.epts) == fresh_sweep, (seed, index)
            checks += 1
            flagged += bool(fresh_sweep)

        run_trace(gen_random_trace(seed, length=200), "multi-ept", after_event=hook)
    assert checks >= 40 * 200 and sabotaged >= 200
    assert flagged >= sabotaged      # a sabotaged leaf mostly stays wrong for a while


def test_a_write_that_bypasses_set_page_entry_is_caught():
    """Leaves written straight into a context's own map, behind
    Ept.set_page_entry: each check reports exactly what a from-scratch sweep
    reports, until the own map holds the engine's leaves again."""
    state = fresh()
    checker = OracleChecker()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    state.on_alloc(0x3000_0100, 0x5000_0000, 0x100)
    assert checker.verify(state, state.epts) == []
    own = state.epts[eid]._flat
    pool, stray = 0x5000_0000 >> PAGE_SHIFT, 0x6000_0000 >> PAGE_SHIFT
    good = own[pool]
    reported = []
    for page, entry in ((pool, EptEntry(pool, NONE)), (stray, EptEntry(stray + 1, RW)),
                        (pool, None), (pool, good), (stray, None)):
        if entry is None:
            del own[page]                        # falls back to the identity default
        else:
            own[page] = entry
        found = checker.verify(state, state.epts)
        assert found == check_against(rebuild(snapshot_from_map(state)), state.epts)
        reported.append(len(found))
    assert reported == [1, 2, 2, 1, 0]


def test_planted_leaf_is_reported_until_restored():
    """A bad leaf is reported on every check, also on checks with no change in
    between, and also across a layout change; a write that restores the leaf
    clears it."""
    state = fresh()
    checker = OracleChecker()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    assert checker.verify(state, state.epts) == []
    page = STRUCTS[0] >> 12                      # a page of the shared template
    ept = state.epts[eid]
    good = ept.entry_for(page)
    ept.set_page_entry(page, EptEntry(good.pfn, RWX))
    planted = [Mismatch(eid, page, "---", "rwx")]
    for _ in range(3):
        assert checker.verify(state, state.epts) == planted
    state.on_alloc(KERNEL_CODE, 0x5000_0000, 0x100)
    assert checker.verify(state, state.epts) == planted
    assert checker.verify(state, state.epts) == planted
    ept.set_page_entry(page, good)
    assert checker.verify(state, state.epts) == []
    assert check_against(rebuild(snapshot_from_map(state)), state.epts) == []


def test_the_reference_runs_only_when_a_check_finds_something(monkeypatch):
    """On clean runs the checker never calls the from-scratch reference. After
    one planted leaf it calls it on every check, across a layout change too,
    until a check after the restore finds nothing, and returns its list as is."""
    calls = []
    reference = reference_oracle.check_against

    def counted(policy, epts):
        calls.append(reference(policy, epts))
        return calls[-1]

    monkeypatch.setattr(reference_oracle, "check_against", counted)
    for seed in range(10):
        checker = OracleChecker()

        def hook(sim, index, event, checker=checker):
            assert checker.verify(sim.policy, sim.policy.epts) == []

        run_trace(gen_random_trace(seed, length=200), "multi-ept", after_event=hook)
    assert calls == []
    state = fresh()
    checker = OracleChecker()
    eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
    assert checker.verify(state, state.epts) == [] and calls == []
    page = STRUCTS[0] >> 12
    ept = state.epts[eid]
    good = ept.entry_for(page)
    ept.set_page_entry(page, EptEntry(good.pfn, RWX))
    for check in range(4):
        if check == 2:
            state.on_alloc(KERNEL_CODE, POOL_PAGE, 0x100)
        found = checker.verify(state, state.epts)
        assert len(calls) == check + 1 and found is calls[-1]
        assert found == [Mismatch(eid, page, "---", "rwx")]
    ept.set_page_entry(page, good)
    assert checker.verify(state, state.epts) == [] and len(calls) == 5
    assert checker.verify(state, state.epts) == [] and len(calls) == 5


def test_unchanged_check_reads_no_leaf(monkeypatch):
    """A check after an event that changed neither the layout nor any
    context's leaves reads no leaf at all."""
    reads = [0]
    entry_for = Ept.entry_for

    def counted(self, page):
        reads[0] += 1
        return entry_for(self, page)

    monkeypatch.setattr(Ept, "entry_for", counted)
    quiet = 0
    for seed in range(5):
        checker = OracleChecker()
        last = [None]

        def hook(sim, index, event):
            nonlocal quiet
            m = sim.policy
            now = (m.layout_version, {i: (e, e.mutations) for i, e in m.epts.items()})
            reads[0] = 0
            assert checker.verify(m, m.epts) == []
            if now == last[0]:
                quiet += 1
                assert reads[0] == 0, (seed, index)
            last[0] = now

        run_trace(gen_random_trace(seed, length=200), "multi-ept", after_event=hook)
    assert quiet >= 5 * 50


def test_oracle_does_not_share_the_engines_page_span(monkeypatch):
    """A page-span mutant that drops a multi-page range's last page, patched
    into every module that binds the engine's pages_covering, leaves the
    oracle's own span arithmetic intact, so the table check reports it."""
    real = address_space.pages_covering

    def mutant(base, size):
        pages = real(base, size)
        return pages[:-1] if len(pages) > 1 else pages

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "memranger" and getattr(module, "pages_covering", None) is real:
            monkeypatch.setattr(module, "pages_covering", mutant)
            patched.append(name)
    assert "memranger.policy_map" in patched
    mismatches = 0
    for seed in range(3):
        checker = OracleChecker()

        def hook(sim, index, event, checker=checker):
            nonlocal mismatches
            mismatches += len(checker.verify(sim.policy, sim.policy.epts))

        run_trace(gen_random_trace(seed, length=200), "multi-ept", after_event=hook)
    assert mismatches > 0


@pytest.mark.parametrize("mutant", ["structure-page-dropped", "structure-page-as-other"])
def test_oracle_does_not_share_the_engines_static_regions(monkeypatch, mutant):
    """A structure page patched out of, or reclassified in, the engine's
    static-kind table, with the templates rebuilt from it: the oracle reads
    the static regions from address_space itself, so in a state with one
    loaded driver it reports the page sealed from the driver's context."""
    page = STRUCTS[0] >> PAGE_SHIFT
    if mutant == "structure-page-dropped":
        monkeypatch.delitem(policy_map._STATIC_KIND, page)
    else:
        monkeypatch.setitem(policy_map._STATIC_KIND, page, ("other", None))
    policy_map.static_template.cache_clear()
    try:
        state = fresh()
        eid = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
        mismatches = OracleChecker().verify(state, state.epts)
    finally:
        monkeypatch.undo()
        policy_map.static_template.cache_clear()
    assert Mismatch(eid, page, "---", "rw-") in mismatches
    assert {m.page for m in mismatches} == {page}


def _inside(gpa: int, region: tuple[int, int]) -> bool:
    return region[0] <= gpa < region[0] + region[1]


def _set_rule(view: SnapshotView, actor, dst: int, access: str) -> bool:
    """The legality predicate as it reads over the set of the page's pool
    owners: the reference the predicate's one scan must agree with."""
    execute = access == EXECUTE
    if execute and view.image_enclave(dst) is not None:
        return True
    pools = view.pools_by_page.get(dst >> PAGE_SHIFT, ())
    identities = {identity for identity, _, _ in pools}
    if identities:
        if len(identities) >= 2 and any(identity is not None for identity in identities):
            hits = [identity for identity, base, end in pools if base <= dst < end]
            return bool(hits) and hits[0] == actor
        (sole,) = identities
        if execute:
            return sole is not None
        return sole is None or actor == sole
    if execute:
        return _inside(dst, KERNEL) or _inside(dst, OTHER_DRIVER)
    eid = view.image_enclave(dst)
    if eid is not None:
        return actor == eid
    if view.in_process_region(dst) or _inside(dst, STRUCTS):
        return actor is None
    return True


@st.composite
def _views(draw):
    """A view of 1-3 pools on one or two pages, each owned by None, "A" or
    "B", maybe with an image or a process region on those pages, and the
    byte addresses to ask about: every pool's edges, a few drawn ones on or
    beside the pages, and one in each static region and in open memory."""
    span = draw(st.sampled_from([1, 2])) << PAGE_SHIFT

    def extent() -> tuple[int, int]:
        start = draw(st.integers(0, span - 1))
        return POOL_PAGE + start, draw(st.integers(1, span - start))

    view, addresses = SnapshotView(), {KERNEL[0], STRUCTS[0], OTHER_DRIVER[0], 0x9000_0000}
    for _ in range(draw(st.integers(1, 3))):
        base, size = extent()
        view.add_pool(draw(st.sampled_from([None, "A", "B"])), base, size)
        addresses |= {base - 1, base, base + size - 1, base + size}
    extra = draw(st.sampled_from([None, "image", "process"]))
    if extra == "image":
        base, size = extent()
        view.images[draw(st.sampled_from(["A", "B"]))] = (base, base + size)
    elif extra == "process":
        view.processes[4] = (extent(),)
    addresses |= set(draw(st.lists(st.integers(POOL_PAGE - 8, POOL_PAGE + span + 8), max_size=6)))
    return view, sorted(addresses)


class TestLegality:
    """Ground-truth access verdicts, independent of any table state."""

    @pytest.fixture
    def view(self):
        state = fresh()
        self.a = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
        self.b = state.on_driver_load(0x3100_0000, IMAGE_SIZE)
        state.on_alloc(0x3000_0100, 0x5000_0000, 0x100)
        state.on_alloc(KERNEL_CODE, 0x5000_2000, 0x80)
        state.on_process_create(4, [(STRUCTS[0] + 0x2000, 0x200)])
        return snapshot_from_map(state)

    def test_owner_reads_own_pool(self, view):
        assert view.legal(self.a, 0x5000_0010, READ)

    def test_neighbor_cannot(self, view):
        assert not view.legal(self.b, 0x5000_0010, READ)
        assert not view.legal(None, 0x5000_0010, READ)

    def test_unenclaved_pools_stay_open(self, view):
        # only enclave allocations are guarded; plain kernel heap is not
        assert view.legal(None, 0x5000_2010, WRITE)
        assert view.legal(self.a, 0x5000_2010, WRITE)

    def test_structures_are_kernel_only(self, view):
        assert view.legal(None, STRUCTS[0], WRITE)
        assert not view.legal(self.a, STRUCTS[0], WRITE)

    def test_process_memory_is_kernel_only(self, view):
        slot = STRUCTS[0] + 0x2000
        assert view.legal(None, slot + 8, WRITE)
        assert not view.legal(self.a, slot + 8, WRITE)

    def test_image_code_may_run_but_not_be_read(self, view):
        # calling into another driver is normal; peeking at its bytes is not
        assert view.legal(self.a, 0x3000_0200, EXECUTE)
        assert view.legal(self.b, 0x3000_0200, EXECUTE)
        assert not view.legal(self.b, 0x3000_0200, READ)
        assert not view.legal(self.b, 0x3000_0200, WRITE)

    def test_kernel_code_runs_for_everyone(self, view):
        assert view.legal(self.a, KERNEL_CODE, EXECUTE)
        assert view.legal(None, KERNEL[0] + 0x80, EXECUTE)

    def test_locked_page_bytes_stay_private(self):
        state = fresh()
        a = state.on_driver_load(0x3000_0000, IMAGE_SIZE)
        b = state.on_driver_load(0x3100_0000, IMAGE_SIZE)
        state.on_alloc(0x3000_0100, 0x5000_0000, 16)
        state.on_alloc(0x3100_0100, 0x5000_0010, 16)
        view = snapshot_from_map(state)
        # two owners share the page, so it is sealed in every context
        policy = rebuild(view)
        assert [policy.row(ept_id)[0x5000_0000 >> 12] for ept_id in policy.ept_ids] == [NONE] * 3
        assert view.legal(a, 0x5000_0004, READ)
        assert view.legal(b, 0x5000_0014, READ)
        assert not view.legal(a, 0x5000_0014, READ)
        assert not view.legal(b, 0x5000_0004, READ)

    def test_execute_asks_the_image_first_and_data_the_pools(self):
        """An open pool laid over an enclave's image: a layout no trace can
        build, so only the rule's order decides. Execute goes by the image,
        a data access by the page's pools."""
        view = SnapshotView()
        view.images[1] = (0x3000_0000, 0x3000_0000 + IMAGE_SIZE)
        view.add_pool(None, 0x3000_0000, 16)
        assert view.legal(None, 0x3000_0008, EXECUTE)
        assert view.legal(None, 0x3000_0008, READ)

    @settings(max_examples=300, deadline=None)
    @given(_views())
    def test_the_owner_scan_agrees_with_the_owner_set(self, drawn):
        """For every actor, access kind and sampled byte, legal decides as the
        rule over the page's set of pool owners does."""
        view, addresses = drawn
        for actor in (None, "A", "B"):
            for access in ACCESS_BIT:
                for dst in addresses:
                    assert view.legal(actor, dst, access) == _set_rule(view, actor, dst, access), (
                        actor, f"{dst:#x}", access)


class PolicyWalk(RuleBasedStateMachine):
    """Random event walks; the brute-force table must agree after every step.
    It drives the ledger directly, with no trace, so it stays apart from
    gen_random_trace's world, and it uses six image slots where that uses two."""

    def __init__(self):
        super().__init__()
        self.state = fresh()
        self.checker = OracleChecker()
        self.slots = [0x3000_0000 + i * 0x10_0000 for i in range(6)]
        self.loaded: dict[int, int] = {}    # slot index -> ept id
        self.cursor = 0x5000_0000
        self.pools: list[tuple[int, int]] = []   # (base, caller)
        self.pids: set[int] = set()

    @rule(slot=st.integers(0, 5))
    def load(self, slot):
        if slot in self.loaded:
            return
        self.loaded[slot] = self.state.on_driver_load(self.slots[slot], IMAGE_SIZE)

    @precondition(lambda self: self.loaded)
    @rule(pick=st.integers(0, 100))
    def unload(self, pick):
        slot = sorted(self.loaded)[pick % len(self.loaded)]
        self.state.on_driver_unload(self.loaded.pop(slot))
        self.pools = [p for p in self.pools if self.state._byte_pool(p[0]) is not None]

    @rule(pick=st.integers(0, 100), size=st.sampled_from([16, 0x40, 0x100, 0x1000]),
          from_kernel=st.booleans())
    def alloc(self, pick, size, from_kernel):
        if from_kernel:
            caller = KERNEL_CODE
        elif self.loaded:
            slot = sorted(self.loaded)[pick % len(self.loaded)]
            caller = self.slots[slot] + 0x100
        else:
            return
        base = self.cursor
        self.cursor += max(size, 16)
        self.state.on_alloc(caller, base, size)
        self.pools.append((base, caller))

    @precondition(lambda self: self.pools)
    @rule(pick=st.integers(0, 100))
    def free(self, pick):
        base, _ = self.pools.pop(pick % len(self.pools))
        self.state.on_free(base)

    @rule(pid=st.integers(1, 8))
    def process(self, pid):
        if pid in self.pids:
            self.state.on_process_exit(pid)
            self.pids.discard(pid)
        else:
            # page-disjoint slots: region pages carry a single overlay each
            region = (STRUCTS[0] + 0x2000 + pid * 0x1000, 0x200)
            self.state.on_process_create(pid, [region])
            self.pids.add(pid)

    @invariant()
    def tables_agree(self):
        assert self.checker.verify(self.state, self.state.epts) == []


def test_policy_walk():
    PolicyWalk.TestCase.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
    run_state_machine_as_test(PolicyWalk)


def _claims_from_facts(ledger) -> dict[int, tuple]:
    """What claims each page, derived from the ledger's raw facts: images,
    processes and live pools, a page of pools with two owners shared."""
    claims = {}
    for pid, regions in ledger.processes.items():
        for base, size in regions:
            claims.update(dict.fromkeys(address_space.pages_covering(base, size), ("process", pid)))
    for eid, rec in ledger.enclaves.items():
        claims.update(dict.fromkeys(address_space.pages_covering(rec.image_base, rec.image_size),
                                    ("image", eid)))
    owners: dict[int, set] = {}
    for pool in ledger.pools.values():
        for page in address_space.pages_covering(pool.base, pool.size):
            owners.setdefault(page, set()).add(pool.owner)
    for page, identities in owners.items():
        claims[page] = ("pool", *identities) if len(identities) == 1 else ("shared", None)
    return claims


def _owners_from_pools(view: SnapshotView) -> dict:
    """Each pool page's owner, derived from the view's pool entries."""
    owners = {}
    for page, pools in view.pools_by_page.items():
        identities = {identity for identity, _, _ in pools}
        owners[page] = identities.pop() if len(identities) == 1 else reference_oracle._SHARED
    return owners


@pytest.mark.parametrize("mode", ["off", "single-ept", "multi-ept"])
def test_the_kept_owner_maps_match_the_facts(mode):
    """After every event of 40 random traces, the ledger's claims map equals
    a derivation from its enclaves, processes and pools, and the shadow
    view's owner map equals a derivation from its pool entries."""
    shared = 0
    for seed in range(40):
        sim = Simulation(mode)
        shadow = _Shadow(sim.allocations)    # reads each allocation row as the replay adds it
        for index, event in enumerate(gen_random_trace(seed, length=200, attack_probability=0.4)):
            sim.step(event)
            shadow.step(index, event)
            assert sim.policy._claims == _claims_from_facts(sim.policy), (seed, index)
            assert shadow.view.page_owner == _owners_from_pools(shadow.view), (seed, index)
            shared += reference_oracle._SHARED in shadow.view.page_owner.values()
    assert shared > 0
