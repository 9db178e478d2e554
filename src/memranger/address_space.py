"""Guest-physical address arithmetic and the flat frame store.

Addresses are plain ints. A guest-physical address (gpa) is at most 48 bits
wide and splits 9/9/9/9/12 across the four paging levels plus the page
offset. A page frame number (pfn) is the gpa shifted down by the page bits.

The machine's three static regions (its kernel code, its kernel structures
and one pre-existing driver) and its pool arena are fixed from boot; the
engine and both checkers read them from here. The last page of the space,
DECOY_PFN, holds the decoy frame that redirected accesses land on, so no
region may claim it.

The frame store holds guest memory by gpa; a frame never filled or written
reads as zeros. Filled frames are shared pattern pages until their first
write, which copies the page into a private frame.
"""

import hashlib
from functools import lru_cache
from itertools import cycle

PAGE_SIZE = 4096
PAGE_SHIFT = 12
GPA_BITS = 48
GPA_LIMIT = 1 << GPA_BITS
PFN_LIMIT = 1 << (GPA_BITS - PAGE_SHIFT)

INDEX_BITS = 9
INDEX_MASK = (1 << INDEX_BITS) - 1
OFFSET_MASK = PAGE_SIZE - 1

# The static regions, (base, size): page-aligned and pairwise disjoint.
OS_KERNEL_CODE = (0x1000_0000, 0x0010_0000)
OS_STRUCTURES = (0x2000_0000, 0x0001_0000)
OTHER_DRIVER = (0x2800_0000, 0x0002_0000)
# The pool arena, (base, size), that every allocation comes from.
POOL_ARENA = (0x5000_0000, 0x0100_0000)
# The page of the decoy frame: the last of the space, reserved from boot.
DECOY_PFN = PFN_LIMIT - 1

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "GPA_BITS",
    "GPA_LIMIT",
    "PFN_LIMIT",
    "OS_KERNEL_CODE",
    "OS_STRUCTURES",
    "OTHER_DRIVER",
    "POOL_ARENA",
    "DECOY_PFN",
    "split_gpa",
    "join_gpa",
    "pages_covering",
    "FrameStore",
]


def check_gpa(gpa: int) -> int:
    if not 0 <= gpa < GPA_LIMIT:
        raise ValueError(f"gpa {gpa:#x} outside 48-bit space")
    return gpa


def split_gpa(gpa: int) -> tuple[int, int, int, int, int]:
    """Split a gpa into (pml4, pdpt, pd, pt, offset) table indices."""
    check_gpa(gpa)
    return (
        (gpa >> 39) & INDEX_MASK,
        (gpa >> 30) & INDEX_MASK,
        (gpa >> 21) & INDEX_MASK,
        (gpa >> PAGE_SHIFT) & INDEX_MASK,
        gpa & OFFSET_MASK,
    )


def join_gpa(pml4: int, pdpt: int, pd: int, pt: int, offset: int) -> int:
    """Inverse of split_gpa."""
    for part, width in ((pml4, INDEX_MASK), (pdpt, INDEX_MASK), (pd, INDEX_MASK), (pt, INDEX_MASK), (offset, OFFSET_MASK)):
        if not 0 <= part <= width:
            raise ValueError(f"index {part} out of range")
    return (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << PAGE_SHIFT) | offset


def _range_end(base: int, size: int) -> int:
    """End of [base, base+size) after checking it is a non-empty range in the 48-bit space."""
    if size <= 0:
        raise ValueError("size must be positive")
    check_gpa(base)
    end = base + size
    if end > GPA_LIMIT:
        raise ValueError(f"range [{base:#x}, {end:#x}) extends beyond 48-bit space")
    return end


def pages_covering(base: int, size: int) -> list[int]:
    """All pfns touched by [base, base+size), ascending, no duplicates."""
    end = _range_end(base, size)
    return list(range(base >> PAGE_SHIFT, (end - 1 >> PAGE_SHIFT) + 1))


ZERO_PAGE = bytes(PAGE_SIZE)


@lru_cache(maxsize=64)
def pattern_page(pattern: bytes, phase: int) -> bytes:
    """The shared page tiled with pattern, starting phase bytes into it."""
    return (pattern * (PAGE_SIZE // len(pattern) + 2))[phase:phase + PAGE_SIZE]


@lru_cache(maxsize=128)
def _pages_digest(pages: tuple[bytes, ...]) -> str:
    digest = hashlib.sha256()
    for page in pages:
        digest.update(page)
    return digest.hexdigest()


class FrameStore:
    """Backing content for physical frames, 4096 bytes each.

    A frame never filled or written has no entry and reads as the zero page.
    An entry is either a private bytearray or a shared, immutable bytes page:
    the zero page, or a pattern page that fills map whole pages to. Shared
    pages are never written; write_gpa copies one into a private frame first.
    A digest over whole shared pages is a pure function of those page objects
    and is computed once.

    The decoy frame sits at DECOY_PFN; redirected accesses land there. It
    has no entry, so reads zero, whenever no single-step window is in flight.
    """

    fake_pfn = DECOY_PFN

    def __init__(self):
        self.frames: dict[int, bytes | bytearray] = {}

    def read_gpa(self, gpa: int, length: int) -> bytes:
        """The length bytes at gpa, which must stay inside one page."""
        offset = gpa & OFFSET_MASK
        if not 0 <= gpa < GPA_LIMIT or length < 0 or offset + length > PAGE_SIZE:
            raise ValueError(f"read of {length} bytes at {gpa:#x} leaves its page or the space")
        return bytes(self.frames.get(gpa >> PAGE_SHIFT, ZERO_PAGE)[offset:offset + length])

    def write_gpa(self, gpa: int, data: bytes) -> None:
        """The only writer, inside one page: a shared page is copied first."""
        offset = gpa & OFFSET_MASK
        if not 0 <= gpa < GPA_LIMIT or offset + len(data) > PAGE_SIZE:
            raise ValueError(f"write of {len(data)} bytes at {gpa:#x} leaves its page or the space")
        pfn = gpa >> PAGE_SHIFT
        frame = self.frames.get(pfn, ZERO_PAGE)
        if type(frame) is bytes:
            frame = self.frames[pfn] = bytearray(frame)
        frame[offset:offset + len(data)] = data

    def zero_fake(self) -> None:
        """Scrub the decoy frame: drop its entry, so it reads zero again."""
        self.frames.pop(self.fake_pfn, None)

    def _pieces(self, base: int, end: int):
        """(pfn, offset, length) of each in-page piece of [base, end), in order;
        end comes from _range_end, so the range is checked once."""
        pos = base
        while pos < end:
            stop = min((pos | OFFSET_MASK) + 1, end)
            yield pos >> PAGE_SHIFT, pos & OFFSET_MASK, stop - pos
            pos = stop

    def read_gpa_range(self, base: int, size: int) -> bytes:
        """Direct (policy-free) readout of a byte range, identity-mapped."""
        end = _range_end(base, size)
        if base >> PAGE_SHIFT == (end - 1) >> PAGE_SHIFT:      # one page: one slice
            offset = base & OFFSET_MASK
            return bytes(self.frames.get(base >> PAGE_SHIFT, ZERO_PAGE)[offset:offset + size])
        frames = self.frames
        return b"".join(frames.get(pfn, ZERO_PAGE)[offset:offset + length]
                        for pfn, offset, length in self._pieces(base, end))

    def fill_gpa_range(self, base: int, size: int, pattern: bytes) -> None:
        """Tile a pattern across a byte range, identity-mapped, from its start.
        Each whole page maps the shared pattern page of its phase; the partial
        pages at either end are written from a piece-sized tile, so short
        writes cache nothing."""
        end = _range_end(base, size)
        head = min(end, (base + OFFSET_MASK) & ~OFFSET_MASK)   # end of a partial first page
        tail = max(head, end & ~OFFSET_MASK)                   # start of a partial last page
        frames = self.frames
        whole = range(head >> PAGE_SHIFT, tail >> PAGE_SHIFT)
        # a page's phase repeats every len(pattern) pages
        pages = [pattern_page(pattern, ((pfn << PAGE_SHIFT) - base) % len(pattern))
                 for pfn in whole[:len(pattern)]]
        frames.update(zip(whole, cycle(pages)))
        for start, stop in ((base, head), (tail, end)):
            if start < stop:
                phase = (start - base) % len(pattern)
                tile = pattern * ((stop - start) // len(pattern) + 2)
                self.write_gpa(start, tile[phase:phase + stop - start])

    def digest_gpa_range(self, base: int, size: int) -> str:
        """sha256 of a byte range, hashed piece by piece without copying it.
        A page-aligned range of shared pages takes its memoised digest."""
        end = _range_end(base, size)
        frames = self.frames
        if not (base | size) & OFFSET_MASK:
            pages = tuple(frames.get(pfn, ZERO_PAGE)
                          for pfn in range(base >> PAGE_SHIFT, end >> PAGE_SHIFT))
            if bytearray not in map(type, pages):
                return _pages_digest(pages)
        digest = hashlib.sha256()
        for pfn, offset, length in self._pieces(base, end):
            digest.update(memoryview(frames.get(pfn, ZERO_PAGE))[offset:offset + length])
        return digest.hexdigest()
