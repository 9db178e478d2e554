"""Brute-force permission oracle, independent of the policy engine.

The oracle consumes only raw region facts (static ranges, enclave image
ranges, live pool extents, process regions) and recomputes, from scratch,
the attribute triple every translation context must hold for every tracked
page. It shares no rule code with the policy engine it checks; agreement
between the two is the product's central correctness property.
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .address_space import PAGE_SHIFT, pages_covering
from .ept_model import Access, Ept

DEFAULT_BITS = 0b011   # readable, writable, not executable
RWX_BITS = 0b111
NONE_BITS = 0b000
BAD_PFN_BITS = 0xFF    # sentinel: leaf points at a non-identity frame


@dataclass(frozen=True)
class EnclaveFacts:
    ept_id: int
    image_base: int
    image_end: int
    pools: tuple[tuple[int, int], ...]   # (base, size) of live pools


@dataclass(frozen=True)
class RegionSnapshot:
    """Raw facts the oracle reasons from. No attribute data, ever."""

    os_kernel_ranges: tuple[tuple[int, int], ...]
    os_structure_ranges: tuple[tuple[int, int], ...]
    other_driver_ranges: tuple[tuple[int, int], ...]
    enclaves: tuple[EnclaveFacts, ...]
    foreign_pools: tuple[tuple[int, int], ...]
    processes: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def snapshot_from_map(m) -> RegionSnapshot:
    """Duck-read the live facts out of a policy map state object."""
    enclaves = tuple(
        EnclaveFacts(
            e.ept_id,
            e.image_base,
            e.image_end,
            tuple((p.base, p.size) for p in e.drv_allocs),
        )
        for e in m.enclaves.values()
    )
    return RegionSnapshot(
        os_kernel_ranges=tuple(m.config.os_kernel_ranges),
        os_structure_ranges=tuple(m.config.os_structure_ranges),
        other_driver_ranges=tuple(m.config.other_driver_ranges),
        enclaves=enclaves,
        foreign_pools=tuple((p.base, p.size) for p in m.foreign_pools),
        processes=tuple((pr.pid, tuple(pr.regions)) for pr in m.processes.values()),
    )


class SnapshotView:
    """Indexed form of a snapshot: page ownership and byte membership queries."""

    def __init__(self, snap: RegionSnapshot):
        self.snap = snap
        self.image_ranges = [(e.ept_id, e.image_base, e.image_end) for e in snap.enclaves]
        self.process_ranges = [
            (pid, base, base + size) for pid, regions in snap.processes for base, size in regions
        ]
        # identity is the enclave id for enclave pools, None for everything else
        self.pools: list[tuple[int | None, int, int]] = []
        for e in snap.enclaves:
            for base, size in e.pools:
                self.pools.append((e.ept_id, base, base + size))
        for base, size in snap.foreign_pools:
            self.pools.append((None, base, base + size))
        self.pools_by_page: dict[int, list[tuple[int | None, int, int]]] = {}
        for identity, base, end in self.pools:
            for page in pages_covering(base, end - base):
                self.pools_by_page.setdefault(page, []).append((identity, base, end))

    def page_pool_identities(self, page: int) -> list:
        return [identity for identity, _, _ in self.pools_by_page.get(page, [])]

    def page_locked(self, page: int) -> bool:
        """A page hosting bytes of two distinct owners, at least one enclaved."""
        identities = set(self.page_pool_identities(page))
        return len(identities) >= 2 and any(i is not None for i in identities)

    def byte_pool_identity(self, gpa: int):
        """Identity of the live pool whose bytes contain gpa, or a miss marker."""
        for identity, base, end in self.pools_by_page.get(gpa >> PAGE_SHIFT, []):
            if base <= gpa < end:
                return identity
        return _NO_POOL

    def image_enclave(self, gpa: int) -> int | None:
        for eid, base, end in self.image_ranges:
            if base <= gpa < end:
                return eid
        return None

    def in_process_region(self, gpa: int) -> bool:
        return any(base <= gpa < end for _, base, end in self.process_ranges)

    def _in_ranges(self, gpa: int, ranges) -> bool:
        return any(base <= gpa < base + size for base, size in ranges)

    def in_os_kernel(self, gpa: int) -> bool:
        return self._in_ranges(gpa, self.snap.os_kernel_ranges)

    def in_os_structures(self, gpa: int) -> bool:
        return self._in_ranges(gpa, self.snap.os_structure_ranges)

    def in_other_driver(self, gpa: int) -> bool:
        return self._in_ranges(gpa, self.snap.other_driver_ranges)

    def owner_identity(self, gpa: int) -> int | None:
        """Enclave id if gpa lies in an enclave's image or pools, else None."""
        eid = self.image_enclave(gpa)
        if eid is not None:
            return eid
        identity = self.byte_pool_identity(gpa)
        if identity is not _NO_POOL and identity is not None:
            return identity
        return None

    def legal(self, src: int, dst: int, access: Access) -> bool:
        """Minimal-privilege legality: does src's owner get true data at dst?"""
        actor = self.owner_identity(src)
        page = dst >> PAGE_SHIFT
        pool_identities = set(self.page_pool_identities(page))
        if access is Access.EXECUTE:
            if self.image_enclave(dst) is not None:
                return True
            if pool_identities:
                if self.page_locked(page):
                    identity = self.byte_pool_identity(dst)
                    return identity is not _NO_POOL and identity == actor
                sole = next(iter(pool_identities))
                # an enclave's pool is executable in its owner's context only
                return len(pool_identities) == 1 and sole is not None
            return self.in_os_kernel(dst) or self.in_other_driver(dst)
        # data access
        if pool_identities:
            if self.page_locked(page):
                identity = self.byte_pool_identity(dst)
                return identity is not _NO_POOL and identity == actor
            sole = next(iter(pool_identities))
            if len(pool_identities) == 1 and sole is not None:
                return actor == sole
            return True   # pages holding only non-enclaved allocations stay open
        eid = self.image_enclave(dst)
        if eid is not None:
            return actor == eid
        if self.in_process_region(dst) or self.in_os_structures(dst):
            return actor is None   # kernel and pre-existing drivers, not enclaves
        return True


_NO_POOL = object()


class Mismatch(NamedTuple):
    ept: int
    page: int
    expected: str
    actual: str


def _render(bits: int) -> str:
    if bits == BAD_PFN_BITS:
        return "redirected-pfn"
    return ("r" if bits & 1 else "-") + ("w" if bits & 2 else "-") + ("x" if bits & 4 else "-")


@dataclass
class FlatPolicy:
    """Ground-truth attribute table: (context id, page) -> permission bits."""

    universe: list[int]
    index: dict[int, int]
    table: dict[int, list[int]]


def rebuild(snap: RegionSnapshot, extra_pages: Iterable[int] = ()) -> FlatPolicy:
    """Recompute the full expected table from scratch. Never incremental."""
    view = SnapshotView(snap)
    kinds: dict[int, tuple] = {}
    for page in extra_pages:
        kinds[page] = ("unclaimed",)
    for base, size in snap.os_kernel_ranges:
        for page in pages_covering(base, size):
            kinds[page] = ("kernel",)
    for base, size in snap.os_structure_ranges:
        for page in pages_covering(base, size):
            kinds[page] = ("structure",)
    for base, size in snap.other_driver_ranges:
        for page in pages_covering(base, size):
            kinds[page] = ("other",)
    for pid, regions in snap.processes:
        for base, size in regions:
            for page in pages_covering(base, size):
                kinds[page] = ("process", pid)
    for e in snap.enclaves:
        for page in pages_covering(e.image_base, e.image_end - e.image_base):
            kinds[page] = ("image", e.ept_id)
    for page in view.pools_by_page:
        identities = set(view.page_pool_identities(page))
        kinds[page] = ("pool", identities)

    universe = sorted(kinds)
    index = {page: pos for pos, page in enumerate(universe)}
    ept_ids = [0] + [e.ept_id for e in snap.enclaves]
    table: dict[int, list[int]] = {}
    for ept_id in ept_ids:
        row = []
        for page in universe:
            row.append(_expected(kinds[page], ept_id))
        table[ept_id] = row
    return FlatPolicy(universe=universe, index=index, table=table)


def _expected(kind: tuple, ept_id: int) -> int:
    tag = kind[0]
    if tag == "kernel":
        return RWX_BITS                      # executable everywhere by design
    if tag == "structure" or tag == "process":
        return RWX_BITS if ept_id == 0 else NONE_BITS
    if tag == "other":
        return RWX_BITS if ept_id == 0 else DEFAULT_BITS
    if tag == "image":
        return RWX_BITS if ept_id == kind[1] else NONE_BITS
    if tag == "pool":
        identities = kind[1]
        if len(identities) >= 2 and any(i is not None for i in identities):
            return NONE_BITS                 # shared page: sealed in every context
        sole = next(iter(identities))
        if sole is None:
            return DEFAULT_BITS              # non-enclaved allocations stay open
        return RWX_BITS if ept_id == sole else NONE_BITS
    return DEFAULT_BITS                      # unclaimed


def _actual_bits(ept: Ept, policy: FlatPolicy) -> list[int]:
    default = ept.default_attrs.bits()
    row = [default] * len(policy.universe)
    index = policy.index
    for page, entry in ept.materialized_leaves():
        pos = index.get(page)
        if pos is None:
            continue   # untracked pages are out of scope
        row[pos] = entry.attrs.bits() if entry.pfn == page else BAD_PFN_BITS
    return row


def check_against(
    policy: FlatPolicy,
    epts: dict[int, Ept],
    cache: dict[int, tuple[int, int, list[int]]] | None = None,
) -> list[Mismatch]:
    """Compare every context against the expected table; [] means agreement."""
    mismatches: list[Mismatch] = []
    for ept_id in policy.table:
        if ept_id not in epts:
            mismatches.append(Mismatch(ept_id, -1, "present", "missing"))
    for ept_id in epts:
        if ept_id not in policy.table:
            mismatches.append(Mismatch(ept_id, -1, "absent", "present"))
    for ept_id, expected_row in policy.table.items():
        ept = epts.get(ept_id)
        if ept is None:
            continue
        key = (ept.mutations, len(policy.universe))
        if cache is not None and cache.get(ept_id, (None, None, None))[:2] == key:
            actual_row = cache[ept_id][2]
        else:
            actual_row = _actual_bits(ept, policy)
            if cache is not None:
                cache[ept_id] = (key[0], key[1], actual_row)
        if actual_row == expected_row:
            continue
        for pos, (want, got) in enumerate(zip(expected_row, actual_row)):
            if want != got:
                page = policy.universe[pos]
                mismatches.append(Mismatch(ept_id, page, _render(want), _render(got)))
    return mismatches


class OracleChecker:
    """Stateful wrapper: rebuilds on layout changes, caches per-context sweeps."""

    def __init__(self):
        self._version = None
        self._policy: FlatPolicy | None = None
        self._cache: dict[int, tuple[int, int, list[int]]] = {}

    def policy_for(self, map_state) -> FlatPolicy:
        if self._policy is None or map_state.layout_version != self._version:
            snap = snapshot_from_map(map_state)
            self._policy = rebuild(snap, extra_pages=map_state.tracked)
            self._version = map_state.layout_version
            self._cache.clear()
        return self._policy

    def verify(self, map_state, epts: dict[int, Ept]) -> list[Mismatch]:
        return check_against(self.policy_for(map_state), epts, cache=self._cache)
