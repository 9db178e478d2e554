"""Policy choreography: who may touch what, in which translation context."""

import pytest

from memranger.address_space import PAGE_SHIFT, PAGE_SIZE, pages_covering
from memranger.address_space import OS_KERNEL_CODE as KERNEL
from memranger.address_space import OS_STRUCTURES as STRUCTS
from memranger.address_space import OTHER_DRIVER as OTHER
from memranger.ept_model import NONE, RW, RWX, Access, EptEntry
from memranger.errors import SimulationError
from memranger.kernel_sim import (
    IMAGE_SIZE,
    IMAGE_SLOTS,
    POOL_ARENA,
    PROCESS_REGION_SIZE,
    PROCESS_SLOT_BASE,
    PROCESS_SLOT_COUNT,
    PROCESS_SLOT_STRIDE,
    Simulation,
    gen_benchmark_trace,
    gen_demo1_trace,
    gen_privesc_trace,
    gen_random_trace,
)
from memranger.policy_map import (
    _STATIC_KIND,
    DEFAULT_EPT,
    STATIC_KINDS,
    DecisionKind,
    MapState,
    static_template,
)

IMAGE_A = 0x3000_0000
IMAGE_B = 0x3100_0000
POOL = 0x5000_0000

KERNEL_CODE = KERNEL[0] + 0x40
OTHER_CODE = OTHER[0] + 0x40


def attrs(state, ept_id, gpa):
    return state.epts[ept_id].entry_for(gpa >> 12).attrs


@pytest.fixture
def state():
    return MapState()


@pytest.fixture
def loaded(state):
    """Two enclaves, one page-disjoint pool each."""
    a = state.on_driver_load(IMAGE_A, IMAGE_SIZE)
    b = state.on_driver_load(IMAGE_B, IMAGE_SIZE)
    state.on_alloc(IMAGE_A + 0x100, POOL, 0x100)
    state.on_alloc(IMAGE_B + 0x100, POOL + PAGE_SIZE, 0x100)
    return state, a, b


def test_initial_default_context(state):
    assert set(state.epts) == {DEFAULT_EPT}
    assert attrs(state, DEFAULT_EPT, KERNEL[0]) == RWX
    assert attrs(state, DEFAULT_EPT, STRUCTS[0]) == RWX
    assert attrs(state, DEFAULT_EPT, OTHER[0]) == RWX
    # unclaimed memory is plain data
    assert attrs(state, DEFAULT_EPT, 0x9000_0000) == RW


def _overlap(a, b) -> bool:
    return a[0] < b[0] + b[1] and b[0] < a[0] + a[1]


def test_static_regions_are_laid_apart():
    """The machine's static regions are page-aligned and pairwise disjoint,
    clear of every image slot and of the pool arena, and every process slot
    lies inside the kernel structures."""
    static = [KERNEL, STRUCTS, OTHER]
    for base, size in static:
        assert size > 0 and (base | size) % PAGE_SIZE == 0
    images = [(slot, IMAGE_SIZE) for slot in IMAGE_SLOTS]
    for index, region in enumerate(static):
        for other in static[index + 1:] + images + [POOL_ARENA]:
            assert not _overlap(region, other), (region, other)
    for slot in range(PROCESS_SLOT_COUNT):
        base = PROCESS_SLOT_BASE + slot * PROCESS_SLOT_STRIDE
        assert STRUCTS[0] <= base and base + PROCESS_REGION_SIZE <= STRUCTS[0] + STRUCTS[1]


def test_enclave_view_after_load(loaded):
    state, a, b = loaded
    # own image runs, kernel code runs, structures sealed, other driver demoted
    assert attrs(state, a, IMAGE_A) == RWX
    assert attrs(state, a, KERNEL[0]) == RWX
    assert attrs(state, a, STRUCTS[0]) == NONE
    assert attrs(state, a, OTHER[0]) == RW
    # images hidden pairwise and from the default context
    assert attrs(state, a, IMAGE_B) == NONE
    assert attrs(state, b, IMAGE_A) == NONE
    assert attrs(state, DEFAULT_EPT, IMAGE_A) == NONE
    assert attrs(state, DEFAULT_EPT, IMAGE_B) == NONE


def test_exclusive_pool_attrs(loaded):
    state, a, b = loaded
    assert attrs(state, a, POOL) == RWX
    assert attrs(state, b, POOL) == NONE
    assert attrs(state, DEFAULT_EPT, POOL) == NONE
    assert attrs(state, b, POOL + PAGE_SIZE) == RWX
    assert attrs(state, a, POOL + PAGE_SIZE) == NONE


def test_kernel_pool_stays_open(state):
    state.on_alloc(KERNEL_CODE, POOL, 0x40)
    assert [pool.owner for pool in state.pools.values()] == [None]
    assert attrs(state, DEFAULT_EPT, POOL) == RW
    eid = state.on_driver_load(IMAGE_A, IMAGE_SIZE)
    assert attrs(state, eid, POOL) == RW


def test_image_overlap_rejected(loaded):
    state, _, _ = loaded
    with pytest.raises(SimulationError):
        state.on_driver_load(IMAGE_A + PAGE_SIZE, IMAGE_SIZE)
    with pytest.raises(SimulationError):
        state.on_driver_load(KERNEL[0], IMAGE_SIZE)


def test_alloc_overlap_rejected(loaded):
    state, _, _ = loaded
    with pytest.raises(SimulationError):
        state.on_alloc(IMAGE_A + 0x100, POOL + 0x80, 0x100)


def test_shared_page_locks_for_everyone(state):
    a = state.on_driver_load(IMAGE_A, IMAGE_SIZE)
    b = state.on_driver_load(IMAGE_B, IMAGE_SIZE)
    state.on_alloc(IMAGE_A + 0x100, POOL, 16)
    assert attrs(state, a, POOL) == RWX
    state.on_alloc(IMAGE_B + 0x100, POOL + 16, 16)
    assert set(state.epts) == {DEFAULT_EPT, a, b}
    for ept_id in state.epts:
        assert attrs(state, ept_id, POOL) == NONE, f"context {ept_id} not sealed"


def test_free_unlocks_the_survivor(state):
    a = state.on_driver_load(IMAGE_A, IMAGE_SIZE)
    state.on_driver_load(IMAGE_B, IMAGE_SIZE)
    state.on_alloc(IMAGE_A + 0x100, POOL, 16)
    state.on_alloc(IMAGE_B + 0x100, POOL + 16, 16)
    state.on_free(POOL + 16)
    # the survivor's owner gets the page back; every other context stays sealed
    assert attrs(state, a, POOL) == RWX
    for ept_id in set(state.epts) - {a}:
        assert attrs(state, ept_id, POOL) == NONE


def test_unload_releases_everything(loaded):
    state, a, b = loaded
    state.on_driver_unload(a)
    assert a not in state.epts
    # image pages fall back to unclaimed data
    assert attrs(state, DEFAULT_EPT, IMAGE_A) == RW
    assert attrs(state, b, IMAGE_A) == RW
    # its pool page too
    assert attrs(state, DEFAULT_EPT, POOL) == RW
    assert attrs(state, b, POOL) == RW
    with pytest.raises(SimulationError):
        state.on_driver_unload(a)


def test_process_regions_are_default_only(loaded):
    state, a, _ = loaded
    region = (STRUCTS[0] + 0x2000, 0x200)
    state.on_process_create(4, [region])
    assert attrs(state, DEFAULT_EPT, region[0]) == RWX
    assert attrs(state, a, region[0]) == NONE
    # a context created later inherits the seal
    c = state.on_driver_load(0x3200_0000, IMAGE_SIZE)
    assert attrs(state, c, region[0]) == NONE
    state.on_process_exit(4)
    assert attrs(state, DEFAULT_EPT, region[0]) == RWX  # structure page again
    assert attrs(state, c, region[0]) == NONE


def test_process_region_must_not_claim_code(state):
    with pytest.raises(SimulationError):
        state.on_process_create(1, [(KERNEL[0], 0x100)])


def test_layout_version_advances(loaded):
    state, a, _ = loaded
    seen = state.layout_version
    state.on_driver_unload(a)
    assert state.layout_version > seen


class TestClassify:
    """Violation verdicts. Only ever consulted after a refused translation."""

    def test_execute_of_image_switches_home(self, loaded):
        state, a, _ = loaded
        verdict = state.classify_access(DEFAULT_EPT, KERNEL_CODE, IMAGE_A + 0x100, Access.EXECUTE)
        assert verdict.kind is DecisionKind.SWITCH_EPT
        assert verdict.target_ept == a

    def test_execute_of_foreign_image_redirects_in_home(self, loaded):
        state, a, b = loaded
        # already in the image's context: nothing left to switch to
        verdict = state.classify_access(a, IMAGE_B + 0x100, IMAGE_A + 0x100, Access.EXECUTE)
        assert verdict.kind is DecisionKind.REDIRECT_TO_FAKE

    def test_structure_write_from_kernel_switches_back(self, loaded):
        state, a, _ = loaded
        verdict = state.classify_access(a, KERNEL_CODE, STRUCTS[0], Access.WRITE)
        assert verdict.kind is DecisionKind.SWITCH_EPT
        assert verdict.target_ept == DEFAULT_EPT

    def test_structure_write_from_driver_redirects(self, loaded):
        state, a, _ = loaded
        verdict = state.classify_access(a, IMAGE_A + 0x100, STRUCTS[0], Access.WRITE)
        assert verdict.kind is DecisionKind.REDIRECT_TO_FAKE

    def test_foreign_pool_read_redirects(self, loaded):
        state, a, b = loaded
        verdict = state.classify_access(b, IMAGE_B + 0x100, POOL, Access.READ)
        assert verdict.kind is DecisionKind.REDIRECT_TO_FAKE

    @pytest.fixture
    def locked(self, state):
        a = state.on_driver_load(IMAGE_A, IMAGE_SIZE)
        b = state.on_driver_load(IMAGE_B, IMAGE_SIZE)
        state.on_alloc(IMAGE_A + 0x100, POOL, 16)
        state.on_alloc(IMAGE_B + 0x100, POOL + 16, 16)
        return state, a, b

    def test_locked_page_owner_granted_at_home(self, locked):
        state, a, b = locked
        verdict = state.classify_access(a, IMAGE_A + 0x100, POOL + 4, Access.WRITE)
        assert verdict.kind is DecisionKind.TEMPORARY_GRANT
        verdict = state.classify_access(b, IMAGE_B + 0x100, POOL + 20, Access.READ)
        assert verdict.kind is DecisionKind.TEMPORARY_GRANT

    def test_locked_page_owner_routed_home_first(self, locked):
        state, a, b = locked
        verdict = state.classify_access(b, IMAGE_A + 0x100, POOL + 4, Access.READ)
        assert verdict.kind is DecisionKind.SWITCH_EPT
        assert verdict.target_ept == a

    def test_locked_page_wrong_bytes_redirect(self, locked):
        state, a, _ = locked
        # A touching B's half of the page
        verdict = state.classify_access(a, IMAGE_A + 0x100, POOL + 20, Access.READ)
        assert verdict.kind is DecisionKind.REDIRECT_TO_FAKE

    def test_locked_page_kernel_bytes_grant_in_default(self, state):
        state.on_driver_load(IMAGE_A, IMAGE_SIZE)
        state.on_alloc(IMAGE_A + 0x100, POOL, 16)
        state.on_alloc(KERNEL_CODE, POOL + 16, 16)
        verdict = state.classify_access(DEFAULT_EPT, KERNEL_CODE, POOL + 20, Access.READ)
        assert verdict.kind is DecisionKind.TEMPORARY_GRANT


def _single_ept_expectation(sim) -> dict[int, object]:
    """single-ept's table from raw region facts: protected data sealed, code
    executable, everything else plain data."""
    policy = sim.policy
    expected = {}
    for region, bits in ((KERNEL, RWX), (OTHER, RWX), (STRUCTS, NONE)):
        for page in pages_covering(*region):
            expected[page] = bits
    for regions in policy.processes.values():
        for base, size in regions:
            for page in pages_covering(base, size):
                expected[page] = NONE
    for eid, rec in policy.enclaves.items():
        for page in pages_covering(rec.image_base, rec.image_end - rec.image_base):
            expected[page] = RWX
        for pool in [p for p in policy.pools.values() if p.owner == eid]:
            for page in pages_covering(pool.base, pool.size):
                expected[page] = NONE
    return expected


def _ever_claimed(policy, history: set[int]) -> set[int]:
    """Add the pages the live facts claim now to history, a union kept over a
    trace that starts as the static pages, and return it."""
    history.update(policy._overlay, policy.pool_pages)
    return history


def _own_leaves(ept) -> set[int]:
    return {page for page, _ in ept.materialized_leaves()}


@pytest.mark.parametrize("seed", range(40))
def test_single_ept_table_matches_raw_facts(seed):
    """No oracle watches the single-ept context, so pin its whole table: after
    every event every static page, every page the trace ever claimed and every
    own leaf holds the bits the raw facts call for."""
    events = gen_random_trace(seed, length=200, attack_probability=0.4)
    sim = Simulation("single-ept")
    history = set(_STATIC_KIND)
    for index, event in enumerate(events):
        sim.step(event)
        assert set(sim.policy.epts) == {DEFAULT_EPT}
        ept = sim.policy.epts[DEFAULT_EPT]
        expected = _single_ept_expectation(sim)
        for page in _ever_claimed(sim.policy, history) | _own_leaves(ept):
            want = expected.get(page, RW)
            got = ept.entry_for(page).attrs
            assert got == want, f"seed {seed} event {index} page {page:#x}: {got} != {want}"


def _template_key(policy, ept_id):
    return tuple(policy._static_attrs(kind, ept_id) for kind in STATIC_KINDS)


@pytest.mark.parametrize("mode", ["single-ept", "multi-ept"])
def test_templates_stay_pristine(mode):
    """Every context reads its static pages from the one template of its rule,
    shared by reference across replays, and no replay writes into it: after
    demo1, privesc, a benchmark trace and 20 random traces, among them
    redirects on static pages, every template still equals a fresh build."""
    traces = [gen_demo1_trace(), gen_privesc_trace(), gen_benchmark_trace(600)]
    traces += [gen_random_trace(seed, attack_probability=0.6) for seed in range(20)]
    shared = {}
    static_redirects = 0
    for events in traces:
        sim = Simulation(mode)
        for event in events:
            sim.step(event)
            for ept_id, ept in sim.policy.epts.items():
                assert shared.setdefault(_template_key(sim.policy, ept_id), ept.base) is ept.base
        static_redirects += sum(
            1 for record in sim.log
            if record["decision"] == "redirect_to_fake"
            and int(record["dst"], 16) >> PAGE_SHIFT in _STATIC_KIND
        )
    assert static_redirects > 0
    assert len(shared) == (1 if mode == "single-ept" else 2)
    for bits, template in shared.items():
        assert template == static_template.__wrapped__(bits)


@pytest.mark.parametrize("mode", ["off", "single-ept", "multi-ept"])
def test_every_tracked_leaf_follows_the_rule(mode):
    """Between events no single-step window is open (the decoy frame has no
    entry, so reads zero), and in every context every static page, every page
    the trace ever claimed and every own leaf, whether its leaf is the
    context's own, the template's or the default, holds the identity frame
    and the bits its policy's rule gives."""
    for seed in range(20):
        sim = Simulation(mode)
        history = set(_STATIC_KIND)
        for index, event in enumerate(gen_random_trace(seed, length=100, attack_probability=0.6)):
            sim.step(event)
            assert sim.store.fake_pfn not in sim.store.frames
            policy = sim.policy
            claimed = _ever_claimed(policy, history)
            for ept_id, ept in policy.epts.items():
                pages = sorted(claimed | _own_leaves(ept))
                got = [ept.entry_for(page) for page in pages]
                want = [EptEntry(page, policy._attrs(page, ept_id)) for page in pages]
                assert got == want, (seed, index, ept_id)
