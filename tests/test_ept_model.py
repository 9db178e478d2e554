"""Per-context translation hierarchies: permissions, remaps, violations."""

import pytest
from hypothesis import given, strategies as st

from memranger.address_space import GPA_LIMIT, PAGE_SIZE
from memranger.ept_model import (
    NONE,
    RW,
    RWX,
    Access,
    EptEntry,
    EptViolation,
    Rwx,
    create_ept,
)


def test_rwx_permits():
    assert RWX.permits(Access.READ)
    assert RWX.permits(Access.WRITE)
    assert RWX.permits(Access.EXECUTE)
    assert RW.permits(Access.READ)
    assert not RW.permits(Access.EXECUTE)
    assert not NONE.permits(Access.READ)


def test_rwx_bits_packing():
    assert NONE.bits() == 0
    assert Rwx(True, False, False).bits() == 1
    assert Rwx(False, True, False).bits() == 2
    assert Rwx(False, False, True).bits() == 4
    assert RWX.bits() == 7


def test_fresh_context_identity_maps_rw():
    ept = create_ept(0)
    assert ept.translate(0x1234, Access.READ) == 0x1234
    assert ept.translate(0x1234, Access.WRITE) == 0x1234
    hit = ept.translate(0x1234, Access.EXECUTE)
    assert isinstance(hit, EptViolation)


def test_violation_carries_the_refusing_entry():
    ept = create_ept(3)
    ept.set_page_attrs(5, NONE)
    result = ept.translate(5 * PAGE_SIZE + 0x10, Access.READ)
    assert isinstance(result, EptViolation)
    assert result.ept == 3
    assert result.gpa == 5 * PAGE_SIZE + 0x10
    assert result.access is Access.READ
    assert result.entry == EptEntry(5, NONE)


def test_set_region_attrs_is_page_granular():
    ept = create_ept(0)
    # a 2-byte region straddling a boundary must seal both pages
    ept.set_region_attrs(PAGE_SIZE - 1, 2, NONE)
    assert isinstance(ept.translate(0, Access.READ), EptViolation)
    assert isinstance(ept.translate(PAGE_SIZE, Access.READ), EptViolation)
    assert ept.translate(2 * PAGE_SIZE, Access.READ) == 2 * PAGE_SIZE


def test_set_region_attrs_validation():
    ept = create_ept(0)
    with pytest.raises(ValueError):
        ept.set_region_attrs(0, 0, RWX)
    with pytest.raises(ValueError):
        ept.set_region_attrs(GPA_LIMIT - PAGE_SIZE, 2 * PAGE_SIZE, RWX)


def test_set_page_pfn_returns_prior_and_keeps_attrs():
    ept = create_ept(0)
    ept.set_page_attrs(7, RWX)
    prior = ept.set_page_pfn(7, 99)
    assert prior == EptEntry(7, RWX)
    assert ept.entry_for(7) == EptEntry(99, RWX)
    assert ept.translate(7 * PAGE_SIZE + 0x20, Access.READ) == 99 * PAGE_SIZE + 0x20
    # restoring the prior entry undoes the remap exactly
    ept.set_page_entry(7, prior)
    assert ept.entry_for(7) == prior


def test_mutations_counter_tracks_writes():
    ept = create_ept(0)
    before = ept.mutations
    ept.set_page_attrs(1, NONE)
    ept.set_page_pfn(2, 5)
    assert ept.mutations == before + 2
    ept.translate(0x100, Access.READ)  # lookups are pure
    assert ept.mutations == before + 2


def test_written_since_lists_later_pages_newest_first_once():
    ept = create_ept(0)
    ept.set_page_attrs(1, NONE)
    mark = ept.mutations
    assert ept.written_since(mark) == []
    ept.set_page_attrs(2, RWX)
    ept.set_page_pfn(3, 9)
    ept.set_page_attrs(2, NONE)           # rewritten: moves to the front, listed once
    ept.set_page_entry(4, EptEntry(4, RW))
    assert ept.written_since(mark) == [4, 2, 3]
    assert ept.written_since(0) == [4, 2, 3, 1]
    assert ept.written_since(ept.mutations) == []
    ept.set_page_attrs(1, RWX)            # a page written before the mark, written again
    assert ept.written_since(mark) == [1, 4, 2, 3]


def test_journal_holds_one_entry_per_page():
    ept = create_ept(0)
    for i in range(100_000):
        ept.set_page_attrs(i % 3, RWX if i & 1 else NONE)
    assert ept.mutations == 100_000
    assert len(ept._written) == 3
    assert ept.written_since(0) == [0, 2, 1]   # 99,999 % 3 == 0 was written last


def test_materialized_leaves_mirror_the_radix():
    ept = create_ept(0)
    ept.set_page_attrs(10, NONE)
    ept.set_page_attrs(600, RWX)  # different top-level slot
    leaves = dict(ept.materialized_leaves())
    assert leaves == {10: EptEntry(10, NONE), 600: EptEntry(600, RWX)}
    for page, entry in leaves.items():
        got = ept.translate(page * PAGE_SIZE, Access.READ)
        if entry.attrs.permits(Access.READ):
            assert got == entry.pfn * PAGE_SIZE
        else:
            assert isinstance(got, EptViolation)


@given(st.integers(0, GPA_LIMIT - 1), st.sampled_from(list(Access)))
def test_translate_agrees_with_entry_for(gpa, access):
    ept = create_ept(0)
    ept.set_page_attrs(0, NONE)
    ept.set_page_attrs(1, RWX)
    entry = ept.entry_for(gpa >> 12)
    result = ept.translate(gpa, access)
    if entry.attrs.permits(access):
        assert result == (entry.pfn << 12) | (gpa & (PAGE_SIZE - 1))
    else:
        assert isinstance(result, EptViolation)
        assert result.entry == entry
