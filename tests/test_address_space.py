"""Guest address arithmetic and the backing frame store."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from memranger.address_space import (
    GPA_LIMIT,
    PAGE_SIZE,
    PFN_LIMIT,
    STATIC_REGIONS,
    ZERO_PAGE,
    FrameStore,
    join_gpa,
    pages_covering,
    pattern_page,
    split_gpa,
)


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
    def test_fresh_frames_read_zero(self):
        """A fresh store reads zero at any gpa, through every reader, and
        reading maps nothing."""
        store = FrameStore()
        zeros = hashlib.sha256(bytes(2 * PAGE_SIZE)).hexdigest()
        for gpa in (0, 0x5000, 0x1234_5678, GPA_LIMIT - 3 * PAGE_SIZE):
            page = gpa - gpa % PAGE_SIZE
            assert store.read_gpa(gpa, 8) == bytes(8)
            assert store.read_gpa_range(gpa + 3, PAGE_SIZE + 100) == bytes(PAGE_SIZE + 100)
            # whole pages take the memoised digest, a mid-page start the piecewise one
            assert store.digest_gpa_range(page, 2 * PAGE_SIZE) == zeros
            assert store.digest_gpa_range(page + 5, 2 * PAGE_SIZE) == zeros
        assert store.frames == {}

    def test_write_then_read(self):
        store = FrameStore()
        store.write_gpa(5 * PAGE_SIZE + 100, b"\x01\x02\x03")
        assert store.read_gpa(5 * PAGE_SIZE + 99, 5) == b"\x00\x01\x02\x03\x00"
        # the neighbours on both sides, and the rest of the page, still read zero
        assert store.read_gpa_range(4 * PAGE_SIZE, 3 * PAGE_SIZE) == (
            bytes(PAGE_SIZE + 100) + b"\x01\x02\x03" + bytes(2 * PAGE_SIZE - 103))
        assert list(store.frames) == [5]

    def test_access_must_stay_inside_one_frame(self):
        store = FrameStore()
        with pytest.raises(ValueError):
            store.read_gpa(PAGE_SIZE - 2, 4)
        with pytest.raises(ValueError):
            store.write_gpa(PAGE_SIZE - 1, b"xy")
        with pytest.raises(ValueError):
            store.read_gpa(0, PAGE_SIZE + 1)
        with pytest.raises(ValueError):
            store.read_gpa(0, -1)
        # a whole page, from its first byte, is still inside it
        assert store.read_gpa(PAGE_SIZE, PAGE_SIZE) == ZERO_PAGE
        assert store.frames == {}

    def test_pfn_bounds(self):
        """Only the frames below PFN_LIMIT exist: an access outside
        [0, GPA_LIMIT) is refused before anything is mapped."""
        store = FrameStore()
        for gpa in (-1, -PAGE_SIZE, GPA_LIMIT, GPA_LIMIT + 8, 1 << 52):
            with pytest.raises(ValueError):
                store.read_gpa(gpa, 1)
            with pytest.raises(ValueError):
                store.write_gpa(gpa, b"x")
        assert store.frames == {}
        # the last byte of the space is the fake frame's
        assert store.fake_pfn == PFN_LIMIT - 1
        assert store.read_gpa(GPA_LIMIT - 1, 1) == b"\x00"

    def test_gpa_range_spans_pages(self):
        store = FrameStore()
        base = 3 * PAGE_SIZE - 4
        store.fill_gpa_range(base, 8, b"\xaa\xbb")
        assert store.read_gpa_range(base, 8) == b"\xaa\xbb" * 4
        # the tail lands on the next frame
        assert store.read_gpa(3 * PAGE_SIZE, 4) == b"\xaa\xbb\xaa\xbb"

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

    def test_boot_fills_each_static_region_and_digests_it_under_its_label(self):
        """The booted store holds each static region tiled with its fill and
        nothing else, and its static digests are each region's digest_gpa_range
        under its label, a fresh sha256 of the fill."""
        store = FrameStore.booted()
        assert [label for label, _, _ in STATIC_REGIONS] == [
            "os_kernel_code", "os_structures", "other_driver:0"]
        for _, (base, size), fill in STATIC_REGIONS:
            assert store.read_gpa_range(base, size) == fill * size
        assert len(store.frames) == sum(size // PAGE_SIZE for _, (_, size), _ in STATIC_REGIONS)
        digests = store.static_digests()
        assert digests == {label: store.digest_gpa_range(*region) for label, region, _ in STATIC_REGIONS}
        assert digests == {label: hashlib.sha256(fill * size).hexdigest()
                           for label, (_, size), fill in STATIC_REGIONS}

    def test_fake_frame_starts_and_rezeros_clean(self):
        store, other = FrameStore(), FrameStore()
        fake = store.fake_pfn * PAGE_SIZE
        assert store.fake_pfn == PFN_LIMIT - 1
        assert store.fake_pfn not in store.frames
        store.write_gpa(fake, b"\xff\xff")
        assert store.read_gpa(fake, 4) == b"\xff\xff\x00\x00"
        # the write copied the shared zero page; no other store sees it
        assert other.read_gpa(fake, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert other.read_gpa(7 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert ZERO_PAGE == bytes(PAGE_SIZE)
        store.zero_fake()
        assert store.fake_pfn not in store.frames
        assert store.read_gpa(fake, PAGE_SIZE) == bytes(PAGE_SIZE)
        store.zero_fake()      # scrubbing a clean decoy is a no-op
        assert store.frames == {}

    def test_whole_pages_share_one_immutable_page(self):
        store = FrameStore()
        store.fill_gpa_range(0x10_000, 3 * PAGE_SIZE, b"\x90")
        frames = [store.frames[pfn] for pfn in (0x10, 0x11, 0x12)]
        assert all(frame is frames[0] for frame in frames)
        assert type(frames[0]) is bytes and frames[0] == b"\x90" * PAGE_SIZE

    def test_write_copies_only_its_own_page(self):
        """A write into a filled page changes neither a neighbour filled with
        the same pattern nor the same page in another store."""
        store, other = FrameStore(), FrameStore()
        for s in (store, other):
            s.fill_gpa_range(0x10_000, 2 * PAGE_SIZE, b"\xde\xad\xbe\xef")
        store.write_gpa(0x10_008, b"\x01\x02")
        want = b"\xde\xad\xbe\xef" * (PAGE_SIZE // 4)
        assert store.read_gpa(0x10_006, 6) == b"\xbe\xef\x01\x02\xbe\xef"
        assert store.read_gpa(0x11_000, PAGE_SIZE) == want
        assert other.read_gpa_range(0x10_000, 2 * PAGE_SIZE) == want * 2
        assert pattern_page(b"\xde\xad\xbe\xef", 0) == want
        assert store.digest_gpa_range(0x10_000, PAGE_SIZE) != other.digest_gpa_range(0x10_000, PAGE_SIZE)

    def test_whole_pages_keep_the_phase_of_an_unaligned_start(self):
        store = FrameStore()
        base, size = 0x10_003, 3 * PAGE_SIZE
        store.fill_gpa_range(base, size, b"\x01\x02\x03\x04")
        want = (b"\x01\x02\x03\x04" * size)[:size]
        assert store.read_gpa_range(base, size) == want
        assert store.read_gpa(0x11_000, 4) == b"\x02\x03\x04\x01"
        assert store.digest_gpa_range(0x11_000, PAGE_SIZE) == hashlib.sha256(
            want[PAGE_SIZE - 3:2 * PAGE_SIZE - 3]).hexdigest()

    @pytest.mark.parametrize("method", ["read_gpa_range", "digest_gpa_range", "fill_gpa_range"])
    def test_range_methods_check_the_range_up_front(self, method):
        store = FrameStore()
        extra = (b"\x01",) if method == "fill_gpa_range" else ()
        call = getattr(store, method)
        with pytest.raises(ValueError, match="size must be positive"):
            call(0x1000, 0, *extra)
        with pytest.raises(ValueError, match="outside 48-bit space"):
            call(-1, 4, *extra)
        with pytest.raises(ValueError, match="extends beyond 48-bit space"):
            call(GPA_LIMIT - PAGE_SIZE, 2 * PAGE_SIZE, *extra)
        # nothing was mapped before the check failed
        assert store.frames == {}


_PATTERNS = (st.sampled_from([b"\x90", b"\xde\xad\xbe\xef"])
             | st.binary(min_size=1, max_size=1) | st.binary(min_size=4, max_size=4))
_SPAN = 4 * PAGE_SIZE       # the model covers pages 0x10..0x13
_ORIGIN = 0x10 * PAGE_SIZE


@st.composite
def _ranges(draw):
    """(start, size) inside the model; half of them snapped out to page
    boundaries, so that whole pages get mapped shared and hashed from the memo."""
    start = draw(st.integers(0, _SPAN - 1))
    end = draw(st.integers(start + 1, _SPAN))
    if draw(st.booleans()):
        start, end = start - start % PAGE_SIZE, -(-end // PAGE_SIZE) * PAGE_SIZE
    return start, end - start


@st.composite
def _edge_reads(draw):
    """(start, size) of a 1-8 byte read that ends exactly on a page boundary,
    or that straddles one: the two sides of the one-page read path."""
    size = draw(st.integers(1, 8))
    if size > 1 and draw(st.booleans()):
        boundary = draw(st.integers(1, _SPAN // PAGE_SIZE - 1))
        before = draw(st.integers(1, size - 1))      # bytes left of the boundary
    else:
        boundary = draw(st.integers(1, _SPAN // PAGE_SIZE))
        before = size
    return boundary * PAGE_SIZE - before, size


_OPS = st.one_of(
    st.tuples(st.just("fill"), _ranges(), _PATTERNS),
    st.tuples(st.just("write"), st.integers(0, _SPAN - 1), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("read"), _ranges()),
    st.tuples(st.just("read"), _edge_reads()),
    st.tuples(st.just("digest"), _ranges()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, max_size=25))
def test_store_matches_a_bytearray_model(ops):
    """Random fills (unaligned, 1- and 4-byte patterns), in-page writes, reads
    (short ones ending on or straddling a page boundary among them) and
    digests over a few pages agree with a plain bytearray and hashlib."""
    store, model = FrameStore(), bytearray(_SPAN)
    store.fill_gpa_range(_ORIGIN, _SPAN, b"\x00")
    for op in ops:
        if op[0] == "fill":
            _, (start, size), pattern = op
            store.fill_gpa_range(_ORIGIN + start, size, pattern)
            model[start:start + size] = (pattern * size)[:size]
        elif op[0] == "write":
            _, start, data = op
            data = data[:PAGE_SIZE - start % PAGE_SIZE]
            store.write_gpa(_ORIGIN + start, data)
            model[start:start + len(data)] = data
        elif op[0] == "read":
            _, (start, size) = op
            assert store.read_gpa_range(_ORIGIN + start, size) == model[start:start + size]
        else:
            _, (start, size) = op
            want = hashlib.sha256(model[start:start + size]).hexdigest()
            assert store.digest_gpa_range(_ORIGIN + start, size) == want
    assert store.read_gpa_range(_ORIGIN, _SPAN) == model
    assert store.digest_gpa_range(_ORIGIN, _SPAN) == hashlib.sha256(model).hexdigest()
