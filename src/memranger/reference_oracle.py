"""Brute-force permission oracle, independent of the policy engine.

The oracle consumes only raw region facts (static ranges, enclave image
ranges, live pool extents, process regions) and recomputes the attribute
triple every translation context must hold for every tracked page. It shares
no rule code with the policy engine it checks; agreement between the two is
the product's central correctness property.

The check stays brute force on the expected side: after every layout change
every page that an event can affect (images, pools, processes, unclaimed
tracked pages) is classified again from the raw facts. The one memo is the
rows of the static pages (kernel code, OS structures, other driver), a pure
function of the static ranges, which no event changes. On the actual side
every leaf is read through Ept.entry_for, so a context's own leaves and the
engine's shared template alike are read as the translation sees them; the
oracle never reads the template or the engine's rules itself.

OracleChecker checks only what changed. It keeps each context's bits per page,
rereads only the pages its Ept's write journal lists since the last check,
and keeps the set of mismatched (context, page) pairs:

* after a layout change, or when a context is replaced, whole rows are
  compared again (check_against with the cache);
* with the layout unchanged, only the pages each context wrote since the
  last check are compared, and their pairs enter or leave the set;
* with nothing written at all, the previous answer is returned.

Every check reports the whole set, so a fault gives the mismatches a fresh
sweep gives. check_against without a cache reads every page from scratch; a
caller runs that full sweep as a backstop against writes that bypass the
journal.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, NamedTuple

from .address_space import PAGE_SHIFT, pages_covering
from .ept_model import NONE, RW, RWX, Access, Ept, R, W, X

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
    return ("r" if bits & R else "-") + ("w" if bits & W else "-") + ("x" if bits & X else "-")


@dataclass
class FlatPolicy:
    """Ground-truth attribute table: context id -> {page: permission bits}.

    Every row holds exactly the pages of the universe: the static pages, the
    tracked pages and every page a live region claims, sorted.
    """

    universe: list[int]
    table: dict[int, dict[int, int]]


# Expected bits of a static page in (the default context, any enclave context).
_STATIC_BITS = {
    "kernel": (RWX, RWX),    # executable everywhere by design
    "structure": (RWX, NONE),
    "other": (RWX, RW),
}


@lru_cache(maxsize=8)
def _static_rows(
    os_kernel_ranges: tuple[tuple[int, int], ...],
    os_structure_ranges: tuple[tuple[int, int], ...],
    other_driver_ranges: tuple[tuple[int, int], ...],
) -> tuple[dict[int, int], dict[int, int]]:
    """Expected rows of the static pages: (default context, every enclave context).

    A pure function of the static ranges, which no event changes, so it is
    memoised; the rows are shared by every caller and never mutated. Later
    ranges take precedence where ranges share a page.
    """
    tags: dict[int, str] = {}
    for tag, ranges in (("kernel", os_kernel_ranges), ("structure", os_structure_ranges),
                        ("other", other_driver_ranges)):
        for base, size in ranges:
            for page in pages_covering(base, size):
                tags[page] = tag
    return (
        {page: _STATIC_BITS[tag][0] for page, tag in tags.items()},
        {page: _STATIC_BITS[tag][1] for page, tag in tags.items()},
    )


def rebuild(snap: RegionSnapshot, extra_pages: Iterable[int] = ()) -> FlatPolicy:
    """Recompute the expected table from the snapshot's raw facts.

    Only the static pages' rows are memoised (see _static_rows). Every other
    page is classified again from the snapshot on every call, and its bits in
    every context recomputed; its claim overrides a static one on the same
    page (a process region may lie over a structure page).
    """
    default_row, enclave_row = _static_rows(
        snap.os_kernel_ranges, snap.os_structure_ranges, snap.other_driver_ranges,
    )
    view = SnapshotView(snap)
    unclaimed = set(extra_pages).difference(default_row)
    kinds: dict[int, tuple] = dict.fromkeys(unclaimed, ("unclaimed",))
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

    table = {}
    for ept_id, static_row in [(0, default_row)] + [(e.ept_id, enclave_row) for e in snap.enclaves]:
        dynamic = {page: _expected(kind, ept_id) for page, kind in kinds.items()}
        table[ept_id] = {**static_row, **dynamic}
    return FlatPolicy(universe=sorted(table[0]), table=table)


def _expected(kind: tuple, ept_id: int) -> int:
    """Expected bits of a page that is not static, in context ept_id."""
    tag = kind[0]
    if tag == "process":
        return RWX if ept_id == 0 else NONE
    if tag == "image":
        return RWX if ept_id == kind[1] else NONE
    if tag == "pool":
        identities = kind[1]
        if len(identities) >= 2 and any(i is not None for i in identities):
            return NONE                      # shared page: sealed in every context
        sole = next(iter(identities))
        if sole is None:
            return RW                        # non-enclaved allocations stay open
        return RWX if ept_id == sole else NONE
    return RW                                # unclaimed


def _page_bits(ept: Ept, page: int) -> int:
    entry = ept.entry_for(page)
    return entry.attrs if entry.pfn == page else BAD_PFN_BITS


def _read_row(ept: Ept, pages: Collection[int]) -> dict[int, int]:
    """Actual bits of every page in pages, read from scratch: the context's
    own leaves first, then every other page through entry_for."""
    row = {}
    for page, entry in ept.materialized_leaves():
        if page in pages:
            row[page] = entry.attrs if entry.pfn == page else BAD_PFN_BITS
    entry_for = ept.entry_for
    for page in pages:
        if page not in row:
            entry = entry_for(page)
            row[page] = entry.attrs if entry.pfn == page else BAD_PFN_BITS
    return row


class ActualRows:
    """Each context's actual bits per universe page, kept current from its
    Ept's write journal instead of being read again in full on every check.

    Keyed by the Ept object itself, so a context that is dropped and created
    again under the same id starts from a full read.
    """

    def __init__(self):
        self._universe: list[int] = []
        self._pages: frozenset[int] = frozenset()
        self._rows: dict[Ept, tuple[int, dict[int, int]]] = {}   # ept -> (serial, row)

    def follow(self, policy: FlatPolicy, epts: dict[int, Ept]) -> None:
        """On a new universe, drop the pages that left it and read the ones
        that joined it, and forget the contexts that are gone."""
        if policy.universe is self._universe or policy.universe == self._universe:
            return
        pages = frozenset(policy.universe)
        left, joined = self._pages - pages, pages - self._pages
        rows = {}
        for ept, (serial, row) in self._rows.items():
            if epts.get(ept.id) is not ept:
                continue
            for page in left:
                del row[page]
            for page in joined:
                row[page] = _page_bits(ept, page)
            rows[ept] = (serial, row)
        self._rows = rows
        self._universe, self._pages = policy.universe, pages

    def reread(self, ept: Ept) -> tuple[dict[int, int], Collection[int]]:
        """The context's row and the pages reread for it since the last call:
        the journaled ones, or all of them on the context's first read."""
        cached = self._rows.get(ept)
        if cached is None:
            row = _read_row(ept, self._pages)
            changed: Collection[int] = row.keys()
        else:
            serial, row = cached
            if serial == ept.mutations:
                return row, ()
            changed = ept.written_since(serial)
            for page in changed:
                if page in row:
                    row[page] = _page_bits(ept, page)
        self._rows[ept] = (ept.mutations, row)
        return row, changed


def check_against(
    policy: FlatPolicy,
    epts: dict[int, Ept],
    cache: ActualRows | None = None,
) -> list[Mismatch]:
    """Compare every context against the expected table; [] means agreement.

    Without a cache every context's universe pages are read from scratch.
    """
    mismatches: list[Mismatch] = []
    for ept_id in policy.table:
        if ept_id not in epts:
            mismatches.append(Mismatch(ept_id, -1, "present", "missing"))
    for ept_id in epts:
        if ept_id not in policy.table:
            mismatches.append(Mismatch(ept_id, -1, "absent", "present"))
    if cache is not None:
        cache.follow(policy, epts)
    for ept_id, expected_row in policy.table.items():
        ept = epts.get(ept_id)
        if ept is None:
            continue
        actual_row = _read_row(ept, expected_row) if cache is None else cache.reread(ept)[0]
        if actual_row == expected_row:
            continue
        for page in policy.universe:
            want, got = expected_row[page], actual_row[page]
            if want != got:
                mismatches.append(Mismatch(ept_id, page, _render(want), _render(got)))
    return mismatches


class OracleChecker:
    """Stateful wrapper: rebuilds on layout changes, keeps actual rows current,
    and compares only what changed since its last check."""

    def __init__(self):
        self._version = None
        self._policy: FlatPolicy | None = None
        self._actual = ActualRows()
        self._checked: FlatPolicy | None = None           # table of the last check
        self._seen: dict[int, tuple[Ept, int]] = {}       # id -> (context, serial) then
        # (context, page) -> mismatch; page -1 for a missing or surplus context
        self._bad: dict[tuple[int, int], Mismatch] = {}
        self._answer: list[Mismatch] = []

    def policy_for(self, map_state) -> FlatPolicy:
        if self._policy is None or map_state.layout_version != self._version:
            snap = snapshot_from_map(map_state)
            self._policy = rebuild(snap, extra_pages=map_state.tracked)
            self._version = map_state.layout_version
        return self._policy

    def verify(self, map_state, epts: dict[int, Ept]) -> list[Mismatch]:
        """Every mismatch a fresh check_against would report, found by
        comparing only the pages written since the last check while the
        layout and the contexts stay the same."""
        policy = self.policy_for(map_state)
        seen = {ept_id: (ept, ept.mutations) for ept_id, ept in epts.items()}
        if policy is self._checked and seen == self._seen:
            return list(self._answer)
        same_contexts = seen.keys() == self._seen.keys() and all(
            ept is self._seen[ept_id][0] for ept_id, (ept, _) in seen.items()
        )
        if policy is self._checked and same_contexts:
            self._compare_written(policy, epts)
        else:
            found = check_against(policy, epts, cache=self._actual)
            self._bad = {(m.ept, m.page): m for m in found}
        self._checked, self._seen = policy, seen
        self._answer = sorted(self._bad.values())
        return list(self._answer)

    def _compare_written(self, policy: FlatPolicy, epts: dict[int, Ept]) -> None:
        """Compare the pages each context wrote since the last check; each
        page's (context, page) pair enters or leaves the mismatch set."""
        bad = self._bad
        for ept_id, expected_row in policy.table.items():
            ept = epts.get(ept_id)
            if ept is None:
                continue
            row, changed = self._actual.reread(ept)
            for page in changed:
                want = expected_row.get(page)
                if want is None:
                    continue                     # outside the universe
                got = row[page]
                if want == got:
                    bad.pop((ept_id, page), None)
                else:
                    bad[(ept_id, page)] = Mismatch(ept_id, page, _render(want), _render(got))
