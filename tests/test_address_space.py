"""Guest address arithmetic and the backing frame store."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from memranger.address_space import (
    GPA_LIMIT,
    PAGE_SIZE,
    PFN_LIMIT,
    FrameStore,
    join_gpa,
    offset_in_page,
    page_of,
    pages_covering,
    split_gpa,
)
from memranger.errors import FrameFault


def test_split_worked_example():
    # indices brute-forced by shifting the raw value by hand:
    # 0x123456789ABC >> 39 = 36, (>> 30) & 511 = 209, (>> 21) & 511 = 179,
    # (>> 12) & 511 = 393, low twelve bits 0xABC
    assert split_gpa(0x1234_5678_9ABC) == (36, 209, 179, 393, 0xABC)


def test_split_extremes():
    assert split_gpa(0) == (0, 0, 0, 0, 0)
    assert split_gpa(GPA_LIMIT - 1) == (511, 511, 511, 511, 0xFFF)


@given(st.integers(min_value=0, max_value=GPA_LIMIT - 1))
def test_split_join_round_trip(gpa):
    assert join_gpa(*split_gpa(gpa)) == gpa


@given(
    st.integers(0, 511),
    st.integers(0, 511),
    st.integers(0, 511),
    st.integers(0, 511),
    st.integers(0, PAGE_SIZE - 1),
)
def test_join_split_round_trip(pml4, pdpt, pd, pt, offset):
    gpa = join_gpa(pml4, pdpt, pd, pt, offset)
    assert split_gpa(gpa) == (pml4, pdpt, pd, pt, offset)


@pytest.mark.parametrize("bad", [-1, GPA_LIMIT, 1 << 52])
def test_split_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        split_gpa(bad)


def test_join_rejects_oversized_index():
    with pytest.raises(ValueError):
        join_gpa(512, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        join_gpa(0, 0, 0, 0, PAGE_SIZE)


def test_page_helpers():
    assert page_of(0) == 0
    assert page_of(PAGE_SIZE - 1) == 0
    assert page_of(PAGE_SIZE) == 1
    assert offset_in_page(PAGE_SIZE + 7) == 7


def test_pages_covering_edges():
    assert pages_covering(0, 1) == [0]
    assert pages_covering(0, PAGE_SIZE) == [0]
    assert pages_covering(0, PAGE_SIZE + 1) == [0, 1]
    # one byte spilling over a boundary still claims both pages
    assert pages_covering(PAGE_SIZE - 1, 2) == [0, 1]
    assert pages_covering(3 * PAGE_SIZE + 16, 0x100) == [3]


def test_pages_covering_rejects_empty():
    with pytest.raises(ValueError):
        pages_covering(0, 0)


@given(st.integers(0, GPA_LIMIT - 1), st.integers(1, 1 << 20))
def test_pages_covering_is_contiguous(base, size):
    size = min(size, GPA_LIMIT - base)
    pages = pages_covering(base, size)
    assert pages == list(range(pages[0], pages[-1] + 1))
    assert pages[0] == base >> 12
    assert pages[-1] == (base + size - 1) >> 12


class TestFrameStore:
    def test_unmapped_frames_fault(self):
        store = FrameStore()
        with pytest.raises(FrameFault):
            store.read_bytes(5, 0, 8)
        with pytest.raises(FrameFault):
            store.write_bytes(5, 0, b"x")

    def test_fresh_frames_read_zero(self):
        store = FrameStore()
        store.ensure(5)
        assert store.read_bytes(5, 0, 8) == bytes(8)

    def test_write_then_read(self):
        store = FrameStore()
        store.ensure(5)
        store.write_bytes(5, 100, b"\x01\x02\x03")
        assert store.read_bytes(5, 99, 5) == b"\x00\x01\x02\x03\x00"

    def test_access_must_stay_inside_one_frame(self):
        store = FrameStore()
        store.ensure(0)
        with pytest.raises(ValueError):
            store.read_bytes(0, PAGE_SIZE - 2, 4)
        with pytest.raises(ValueError):
            store.write_bytes(0, PAGE_SIZE, b"x")

    def test_pfn_bounds(self):
        store = FrameStore()
        with pytest.raises(ValueError):
            store.ensure(PFN_LIMIT)
        with pytest.raises(FrameFault):
            store.read_bytes(PFN_LIMIT, 0, 1)

    def test_gpa_range_spans_pages(self):
        store = FrameStore()
        base = 3 * PAGE_SIZE - 4
        store.fill_gpa_range(base, 8, b"\xaa\xbb")
        assert store.read_gpa_range(base, 8) == b"\xaa\xbb" * 4
        # the tail lands on the next frame
        assert store.read_bytes(3, 0, 4) == b"\xaa\xbb\xaa\xbb"

    def test_fill_tiles_from_range_start(self):
        store = FrameStore()
        store.fill_gpa_range(0x1000, 10, b"\x01\x02\x03")
        assert store.read_gpa_range(0x1000, 10) == (b"\x01\x02\x03" * 4)[:10]
        # the tiling runs on across page boundaries, and the digest covers every page
        base, size = 2 * PAGE_SIZE - 5, 2 * PAGE_SIZE + 9
        want = (b"\x01\x02\x03" * size)[:size]
        store.fill_gpa_range(base, size, b"\x01\x02\x03")
        assert store.read_gpa_range(base, size) == want
        assert store.digest_gpa_range(base, size) == hashlib.sha256(want).hexdigest()

    def test_digest_matches_contents(self):
        store = FrameStore()
        store.fill_gpa_range(0x2000, 64, b"\x5a")
        expected = hashlib.sha256(b"\x5a" * 64).hexdigest()
        assert store.digest_gpa_range(0x2000, 64) == expected

    def test_fake_frame_starts_and_rezeros_clean(self):
        store = FrameStore()
        assert store.fake_pfn == PFN_LIMIT - 1
        store.write_bytes(store.fake_pfn, 0, b"\xff\xff")
        store.zero_fake()
        assert store.read_bytes(store.fake_pfn, 0, 4) == bytes(4)
