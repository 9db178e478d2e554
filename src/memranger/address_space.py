"""Guest-physical address arithmetic and the flat frame store.

Addresses are plain ints. A guest-physical address (gpa) is at most 48 bits
wide and splits 9/9/9/9/12 across the four paging levels plus the page
offset. A page frame number (pfn) is the gpa shifted down by the page bits.
"""

import hashlib

from .errors import FrameFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12
GPA_BITS = 48
GPA_LIMIT = 1 << GPA_BITS
PFN_LIMIT = 1 << (GPA_BITS - PAGE_SHIFT)

INDEX_BITS = 9
INDEX_MASK = (1 << INDEX_BITS) - 1
OFFSET_MASK = PAGE_SIZE - 1

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "GPA_BITS",
    "GPA_LIMIT",
    "PFN_LIMIT",
    "split_gpa",
    "join_gpa",
    "page_of",
    "offset_in_page",
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


def page_of(gpa: int) -> int:
    check_gpa(gpa)
    return gpa >> PAGE_SHIFT


def offset_in_page(gpa: int) -> int:
    return gpa & OFFSET_MASK


def pages_covering(base: int, size: int) -> list[int]:
    """All pfns touched by [base, base+size), ascending, no duplicates."""
    if size <= 0:
        raise ValueError("size must be positive")
    check_gpa(base)
    end = base + size
    if end > GPA_LIMIT:
        raise ValueError(f"range [{base:#x}, {end:#x}) extends beyond 48-bit space")
    return list(range(base >> PAGE_SHIFT, (end - 1 >> PAGE_SHIFT) + 1))


class FrameStore:
    """Backing content for physical frames, 4096 bytes each.

    One designated fake frame sits at the top of the pfn space; redirected
    accesses land there. Its content is all-zero whenever no single-step
    window is in flight.
    """

    FAKE_PFN = PFN_LIMIT - 1

    def __init__(self):
        self.frames: dict[int, bytearray] = {}
        self.fake_pfn = self.FAKE_PFN
        self.ensure(self.fake_pfn)

    def ensure(self, pfn: int) -> None:
        """Map a frame if absent; fresh frames are zero-filled."""
        if not 0 <= pfn < PFN_LIMIT:
            raise ValueError(f"pfn {pfn:#x} out of range")
        if pfn not in self.frames:
            self.frames[pfn] = bytearray(PAGE_SIZE)

    def ensure_range(self, base: int, size: int) -> None:
        for pfn in pages_covering(base, size):
            self.ensure(pfn)

    def _frame(self, pfn: int) -> bytearray:
        try:
            return self.frames[pfn]
        except KeyError:
            raise FrameFault(f"pfn {pfn:#x} not mapped") from None

    def read_bytes(self, pfn: int, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise ValueError("read crosses frame boundary")
        return bytes(self._frame(pfn)[offset:offset + length])

    def write_bytes(self, pfn: int, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses frame boundary")
        self._frame(pfn)[offset:offset + len(data)] = data

    def zero_fake(self) -> None:
        self.frames[self.fake_pfn][:] = bytes(PAGE_SIZE)

    def _pieces(self, base: int, size: int):
        """(pfn, offset, length) of each in-page piece of [base, base+size), in order."""
        pos, end = base, base + size
        while pos < end:
            offset = offset_in_page(pos)
            length = min(PAGE_SIZE - offset, end - pos)
            yield page_of(pos), offset, length
            pos += length

    def read_gpa_range(self, base: int, size: int) -> bytes:
        """Direct (policy-free) readout of a byte range, identity-mapped."""
        return b"".join(self.read_bytes(*piece) for piece in self._pieces(base, size))

    def fill_gpa_range(self, base: int, size: int, pattern: bytes) -> None:
        """Tile a pattern across a byte range, identity-mapped. Pieces are cut
        from one page-sized tile, so no range-sized buffer is built."""
        self.ensure_range(base, size)
        tile = memoryview(pattern * (PAGE_SIZE // len(pattern) + 2))
        done = 0
        for pfn, offset, length in self._pieces(base, size):
            phase = done % len(pattern)
            self.write_bytes(pfn, offset, tile[phase:phase + length])
            done += length

    def digest_gpa_range(self, base: int, size: int) -> str:
        """sha256 of a byte range, hashed piece by piece without copying it."""
        digest = hashlib.sha256()
        for pfn, offset, length in self._pieces(base, size):
            digest.update(memoryview(self._frame(pfn))[offset:offset + length])
        return digest.hexdigest()
