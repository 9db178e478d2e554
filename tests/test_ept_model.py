"""Per-context translation hierarchies: permissions, remaps, refusals, and
access kinds that are the trace's own strings."""

import json

import pytest
from hypothesis import given, strategies as st

from memranger.address_space import GPA_LIMIT, PAGE_SIZE
from memranger.ept_model import (
    ACCESS_BIT,
    EXECUTE,
    NONE,
    READ,
    RW,
    RWX,
    WRITE,
    Ept,
    EptEntry,
    R,
    W,
    X,
)
from memranger.kernel_sim import (
    gen_benchmark_trace,
    gen_demo1_trace,
    gen_privesc_trace,
    gen_random_trace,
    run_trace,
)
from memranger.report_cli import MODES


def test_rwx_bits_packing():
    """R, W and X are bits 0-2 of a leaf, as in an Intel EPT entry."""
    assert (R, W, X) == (1, 2, 4)
    assert (NONE, RW, RWX) == (0, 3, 7)
    assert ACCESS_BIT == {"read": 1, "write": 2, "execute": 4}
    assert (READ, WRITE, EXECUTE) == tuple(ACCESS_BIT)


def test_rwx_permits():
    """Every combination of bits permits exactly the accesses whose bit is
    set, through the leaf's frame."""
    gpa = 7 * PAGE_SIZE + 0x20
    for attrs in range(8):
        ept = Ept(0)
        ept.set_page_entry(7, EptEntry(99, attrs))
        for access, bit in ((READ, 1), (WRITE, 2), (EXECUTE, 4)):
            got = ept.translate(gpa, access)
            if attrs & bit:
                assert got == 99 * PAGE_SIZE + 0x20
            else:
                assert got is None
            assert ept.entry_for(7) == EptEntry(99, attrs)    # a lookup leaves the leaf as it was


def test_fresh_context_identity_maps_rw():
    ept = Ept(0)
    assert ept.translate(0x1234, READ) == 0x1234
    assert ept.translate(0x1234, WRITE) == 0x1234
    assert ept.translate(0x1234, EXECUTE) is None


def test_a_refusal_leaves_the_refusing_entry_in_place():
    ept = Ept(3)
    ept.set_page_entry(5, EptEntry(5, NONE))
    assert ept.translate(5 * PAGE_SIZE + 0x10, READ) is None
    assert ept.entry_for(5) == EptEntry(5, NONE)


def test_a_page_or_address_outside_the_space_is_refused():
    ept = Ept(0)
    for page in (-1, GPA_LIMIT // PAGE_SIZE):
        with pytest.raises(ValueError, match=f"^page {page:#x} outside 48-bit space$"):
            ept.set_page_entry(page, EptEntry(0, RW))
    for gpa in (-1, GPA_LIMIT):
        with pytest.raises(ValueError, match=f"^gpa {gpa:#x} outside 48-bit space$"):
            ept.translate(gpa, READ)
    assert ept.mutations == 0


def test_mutations_counter_tracks_writes():
    ept = Ept(0)
    before = ept.mutations
    ept.set_page_entry(1, EptEntry(1, NONE))
    ept.set_page_entry(2, EptEntry(5, RW))
    assert ept.mutations == before + 2
    ept.translate(0x100, READ)  # lookups are pure
    assert ept.mutations == before + 2


def test_materialized_leaves_mirror_the_radix():
    ept = Ept(0)
    ept.set_page_entry(10, EptEntry(10, NONE))
    ept.set_page_entry(600, EptEntry(600, RWX))  # different top-level slot
    leaves = dict(ept.materialized_leaves())
    assert leaves == {10: EptEntry(10, NONE), 600: EptEntry(600, RWX)}
    for page, entry in leaves.items():
        got = ept.translate(page * PAGE_SIZE, READ)
        if entry.attrs & R:
            assert got == entry.pfn * PAGE_SIZE
        else:
            assert got is None


@given(st.integers(0, GPA_LIMIT - 1), st.sampled_from(list(ACCESS_BIT)))
def test_translate_agrees_with_entry_for(gpa, access):
    ept = Ept(0)
    ept.set_page_entry(0, EptEntry(0, NONE))
    ept.set_page_entry(1, EptEntry(1, RWX))
    entry = ept.entry_for(gpa >> 12)
    result = ept.translate(gpa, access)
    if entry.attrs & ACCESS_BIT[access]:
        assert result == (entry.pfn << 12) | (gpa & (PAGE_SIZE - 1))
    else:
        assert result is None
    assert ept.entry_for(gpa >> 12) == entry


def test_a_write_the_base_or_default_already_gives_drops_the_own_leaf():
    template = {5: EptEntry(5, NONE)}
    ept = Ept(1, template)
    ept.set_page_entry(7, EptEntry(7, NONE))
    before = {page: ept.entry_for(page) for page in (5, 7, 9)}
    saved = ept.entry_for(5)
    ept.set_page_entry(5, EptEntry(0xFA4E, RWX))   # a single-step window over a template page
    assert dict(ept.materialized_leaves()) == {5: EptEntry(0xFA4E, RWX), 7: EptEntry(7, NONE)}
    ept.set_page_entry(5, saved)                  # restored: the template gives it again
    ept.set_page_entry(7, EptEntry(7, RW))        # the identity default
    ept.set_page_entry(9, EptEntry(9, RW))        # never written, already the default
    assert list(ept.materialized_leaves()) == []
    assert {page: ept.entry_for(page) for page in (5, 9)} == {5: before[5], 9: before[9]}
    assert ept.entry_for(7) == EptEntry(7, RW)
    assert template == {5: EptEntry(5, NONE)}


@pytest.mark.parametrize("mode", MODES)
def test_every_record_access_is_a_plain_string(mode):
    """Whether the trace or the scheduler made the access, every record's
    access kind is exactly a str, one of the kinds, and renders as itself in
    an f-string, in as_dict() and in the report's JSON."""
    traces = [gen_demo1_trace(), gen_privesc_trace(), gen_benchmark_trace(n_accesses=300),
              *(gen_random_trace(seed, length=200, attack_probability=0.5) for seed in range(3))]
    for events in traces:
        report = run_trace(events, mode)
        rendered = json.loads(report.to_json())["log"]
        kinds = {record.access for record in report.log}
        assert EXECUTE in kinds and kinds <= set(ACCESS_BIT)    # the scheduler's fetches too
        for record, row in zip(report.log, rendered, strict=True):
            assert type(record.access) is str
            assert f"{record.access}" == record.as_dict()["access"] == row["access"] == record.access
