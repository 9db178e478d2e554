"""Second-level translation model: per-context leaf entries with R/W/X bits.

Each translation context maps guest page frames to host page frames. Only
the leaf level is modelled, since permissions live on leaf entries and the
intermediate tables are always permissive. A context is a view: the leaves
it has written itself sit in its own flat map keyed by guest page number,
over an optional shared base map that it only reads (the template of the
static pages, shared by every context of one rule); a page in neither
translates identity, readable and writable but not executable. A leaf's
attributes are the int R|W|X, bits 0-2 as in an Intel EPT entry. (The
9/9/9/9/12 split of a gpa across the paging levels is
address_space.split_gpa.) A refused translation returns None, not an
exception.

An access kind is the trace's own string, "read", "write" or "execute",
whether the trace or the scheduler makes the access; ACCESS_BIT gives each
its bit, and its keys, in that order, are the kinds.

Every leaf write goes through Ept.set_page_entry into the context's own map,
never into the base. A write that gives a page what the base or the identity
default already gives drops the page's own leaf instead of storing it, so
the own map holds only the pages that differ, not every page ever written,
and a context's effective leaves change exactly when its own map does.
"""

from typing import ItemsView, Mapping, NamedTuple

from .address_space import GPA_LIMIT, OFFSET_MASK, PAGE_SHIFT, PFN_LIMIT, check_gpa

READ, WRITE, EXECUTE = "read", "write", "execute"

R, W, X = 1, 2, 4
RWX = R | W | X
RW = R | W
NONE = 0

ACCESS_BIT = {READ: R, WRITE: W, EXECUTE: X}


class EptEntry(NamedTuple):
    pfn: int
    attrs: int                   # R|W|X bits


_NO_BASE: Mapping[int, EptEntry] = {}
# Builds the default leaf EptEntry(page, RW) without the named tuple's
# Python-level __new__, which costs more than the lookups before it.
_new_tuple = tuple.__new__


class Ept:
    """One translation context, identity-mapped over the whole gpa space.

    base, when given, holds leaves the context reads but never writes; its
    own leaves override it page by page.
    """

    def __init__(self, ept_id: int, base: Mapping[int, EptEntry] = _NO_BASE):
        self.id = ept_id
        self.base = base
        self._flat: dict[int, EptEntry] = {}    # page -> the context's own leaf
        # leaf writes so far; the benchmark's policy_map.leaf_writes gauge reads it
        self.mutations = 0

    def entry_for(self, page: int) -> EptEntry:
        """Effective leaf entry governing a page: own, else base, else default."""
        hit = self._flat.get(page)
        if hit is None:
            hit = self.base.get(page)
            if hit is None:
                return _new_tuple(EptEntry, (page, RW))
        return hit

    def set_page_entry(self, page: int, entry: EptEntry) -> None:
        if not 0 <= page < PFN_LIMIT:
            raise ValueError(f"page {page:#x} outside 48-bit space")
        flat = self._flat
        if entry == self.base.get(page, (page, RW)):
            if page in flat:
                del flat[page]
        else:
            flat[page] = entry
        self.mutations += 1

    def translate(self, gpa: int, access: str) -> int | None:
        """Pure lookup: host address on success, None on refusal."""
        if not 0 <= gpa < GPA_LIMIT:
            check_gpa(gpa)                  # raises, with the one out-of-space message
        page = gpa >> PAGE_SHIFT
        entry = self._flat.get(page)
        if entry is None:
            entry = self.base.get(page)
            if entry is None:                        # the identity RW default
                return gpa if ACCESS_BIT[access] & RW else None
        if entry.attrs & ACCESS_BIT[access]:
            return (entry.pfn << PAGE_SHIFT) | (gpa & OFFSET_MASK)
        return None

    def materialized_leaves(self) -> ItemsView[int, EptEntry]:
        """A live view of the context's own leaves; pages of the base map are
        not listed."""
        return self._flat.items()

