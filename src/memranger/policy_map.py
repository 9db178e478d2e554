"""Memory access policy: who may touch what, and through which context.

RegionLedger holds the region facts every mode shares (driver images, live
pools, process regions), rejects any change that would make them overlap
each other, the machine's static regions or the decoy frame's page, keeps
pools wholly inside the pool arena and images and processes out of it (so
it never refuses a pool the allocator placed), and answers ownership
queries. Each live pool is one record, kept by its base in pools and indexed
by page in pool_pages; its owner is an enclave id, or None for a kernel-side
caller. What claims each page is decided once, when an event changes the
layout, into one claims map: ("image", eid), ("process", pid), ("pool",
owner) when the page's live pools have one owner, or ("shared", None) when
they have two; _claim_pool_pages is the one place that reads owners out of
pool_pages. claim_of reads any page's claim: a page off the map reads as its
static claim, (kind, None), or as ("free", None).
Each event hook updates the facts and then restamps the pages it changed in
every translation context; _restamp is the one writer of rule leaves. A
policy subclass says two things only: which contexts exist (_context_ids)
and which bits a page holds in a context (_attrs, a pure function of the
page's claim that states every kind, static kinds included). Mode ``off``
uses the ledger bare, with no contexts to stamp.

The static regions are address_space's three constants (kernel code, kernel
structures, the pre-existing driver); _STATIC_KIND gives each of their pages
its claim, once, at import. A static page's leaf in a context follows from
its claim alone, which no event changes. The leaves are built once per
bits-per-kind into a template that every context with those bits, in every
ledger, shares by reference as its read-only base map (static_template). A
new context therefore writes only the pages of images, processes and pools
into its own map; a page an event restamps, or a single-step window opens,
gets its own leaf over the template.

* MapState (``multi-ept``) keeps one default context plus one per enclave:
  - the default context opens the kernel's world and seals every enclave's
    image and pools;
  - each driver context opens its own image and pools plus kernel code,
    seals kernel structures and every other enclave, and leaves
    pre-existing drivers readable but not executable;
  - a page carrying bytes of two different owners is sealed in every
    context, and only single-stepped grants let the owners through;
* SingleEptPolicy (``single-ept``) keeps one context that seals protected
  data outright.

Allocation ownership is attributed by the caller's code address, which lies
in an image or in kernel-side code, never in a pool. classify_access is each
policy's violation brain: for a refused translation it reads the target
page's claim and returns a context id (an int) to switch to, or the label of
the single-step window to open, REDIRECT or GRANT, which the dispatcher
writes into the access's record as it is. The dispatcher checks an
access's addresses before any translation, so every address it is asked
about lies in the modelled space.
"""

from dataclasses import dataclass
from functools import lru_cache

from .address_space import DECOY_PFN, GPA_LIMIT, PAGE_SHIFT, pages_covering
from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, POOL_ARENA
from .ept_model import EXECUTE, NONE, RW, RWX, Ept, EptEntry
from .errors import SimulationError

DEFAULT_EPT = 0
# No image or process region may outgrow the pool arena (16 MiB):
# a region's pages are listed, filled and stamped one by one, so a region
# near the 48-bit limit would exhaust memory before any overlap check ran.
MAX_REGION_SIZE = POOL_ARENA[1]


@dataclass
class AllocatedPool:
    base: int
    size: int
    owner: int | None            # enclave id; None for kernel-side callers

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class EnclaveRecord:
    image_base: int
    image_end: int

    @property
    def image_size(self) -> int:
        return self.image_end - self.image_base


# The decisions that open a single-step window, as a record labels them; any
# other decision is the int id of the context to switch to.
REDIRECT = "redirect_to_fake"
GRANT = "temporary_grant"


def _check_range(base: int, size: int, what: str) -> None:
    if size <= 0:
        raise SimulationError(f"{what}: size must be positive")
    if size > MAX_REGION_SIZE:
        raise SimulationError(f"{what}: size {size:#x} exceeds {MAX_REGION_SIZE:#x}")
    if base < 0 or base + size > GPA_LIMIT:
        raise SimulationError(f"{what}: outside 48-bit space")
    if base + size > DECOY_PFN << PAGE_SHIFT:
        raise SimulationError(f"{what}: overlaps the decoy frame's page {DECOY_PFN:#x}")
    if base < POOL_ARENA[0] + POOL_ARENA[1] and POOL_ARENA[0] < base + size:
        raise SimulationError(f"{what}: overlaps the pool arena")


STATIC_KINDS = ("kernel", "structure", "other")

# Static page -> its claim, (kind, None). Shared by every ledger and never written.
_STATIC_KIND = {
    page: (kind, None)
    for kind, region in zip(STATIC_KINDS, (OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER))
    for page in pages_covering(*region)
}
_FREE = ("free", None)           # the claim of a page nothing claims
_SHARED = ("shared", None)       # the claim of a page whose live pools have two owners
_KERNEL_SIDE = (("kernel", None), ("other", None))   # the claims of kernel-side code


@lru_cache(maxsize=16)
def static_template(bits: tuple[int, ...]) -> dict[int, EptEntry]:
    """Identity leaves of every static page, kind STATIC_KINDS[i] holding
    bits[i]: the read-only base map of every context whose rule gives those
    bits. Shared by reference, so nothing may write it."""
    of_kind = dict(zip(STATIC_KINDS, bits))
    return {page: EptEntry(page, of_kind[kind]) for page, (kind, _) in _STATIC_KIND.items()}


def _region_pages(regions) -> dict[int, None]:
    """Pages touched by any of the regions, in order, each once."""
    return {page: None for base, size in regions for page in pages_covering(base, size)}


class RegionLedger:
    """Region facts, their validation, the claims map and the restamp loop."""

    def __init__(self):
        self.epts: dict[int, Ept] = {}
        self.enclaves: dict[int, EnclaveRecord] = {}
        self.processes: dict[int, tuple[tuple[int, int], ...]] = {}   # pid -> its regions
        self.pools: dict[int, AllocatedPool] = {}           # base -> live pool
        self.pool_pages: dict[int, list[AllocatedPool]] = {}  # page -> its live pools
        self.layout_version = 0
        self._next_ept_id = DEFAULT_EPT + 1
        self._claims: dict[int, tuple] = {}    # page -> its claim (module docstring)
        self._sync_contexts()
        self.layout_version += 1

    # -- the page rule, given by the policies --------------------------------

    def _context_ids(self) -> list[int]:
        """Contexts the facts call for; the bare ledger keeps none."""
        return []

    def _attrs(self, claim: tuple, ept_id: int) -> int:
        """Bits a page with this claim holds in a context."""
        raise NotImplementedError

    def _restamp(self, pages, epts=None) -> None:
        """Give every page its rule's bits on its identity frame in the given
        contexts, every context by default. Between events no single-step
        window is open, so every leaf's frame is the identity one."""
        contexts = (self.epts if epts is None else epts).items()
        if not contexts:
            return                       # mode off: no claim to look up
        for page in pages:
            claim = self.claim_of(page)
            for ept_id, ept in contexts:
                ept.set_page_entry(page, EptEntry(page, self._attrs(claim, ept_id)))

    def _sync_contexts(self) -> None:
        """Drop contexts the facts no longer call for and create the missing
        ones: each reads the static pages from its rule's shared template and
        gets its own leaf for every claimed page."""
        wanted = self._context_ids()
        for ept_id in [e for e in self.epts if e not in wanted]:
            del self.epts[ept_id]
        fresh = {}
        for ept_id in wanted:
            if ept_id not in self.epts:
                bits = tuple(self._attrs((kind, None), ept_id) for kind in STATIC_KINDS)
                fresh[ept_id] = self.epts[ept_id] = Ept(ept_id, static_template(bits))
        self._restamp(self._claims, fresh)

    # -- queries -----------------------------------------------------------

    def claim_of(self, page: int) -> tuple:
        """The page's claim: its image, process or pools, else its static
        claim, else free."""
        return self._claims.get(page) or _STATIC_KIND.get(page, _FREE)

    def _byte_pool(self, gpa: int) -> AllocatedPool | None:
        for pool in self.pool_pages.get(gpa >> PAGE_SHIFT, ()):
            if pool.base <= gpa < pool.end:
                return pool
        return None

    def _enclave_of_code(self, gpa: int) -> int | None:
        """Enclave whose image bytes contain gpa, if any."""
        kind, eid = self._claims.get(gpa >> PAGE_SHIFT, _FREE)
        if kind == "image":
            rec = self.enclaves[eid]
            if rec.image_base <= gpa < rec.image_end:
                return eid
        return None

    def _claim_pool_pages(self, pages) -> list[int]:
        """Decide each page's claim from its live pools: their one owner, or
        shared when they have two; a page with none left loses its claim.
        Returns the pages."""
        claims = self._claims
        for page in pages:
            pools = self.pool_pages.get(page)
            if pools is None:
                claims.pop(page, None)
                continue
            owner = pools[0].owner
            claims[page] = _SHARED if any(p.owner != owner for p in pools) else ("pool", owner)
        return pages

    def _unindex(self, pool: AllocatedPool) -> list[int]:
        """Drop a pool from the page index; returns the pages it covered."""
        pages = pages_covering(pool.base, pool.size)
        for page in pages:
            remaining = self.pool_pages[page]
            remaining.remove(pool)
            if not remaining:
                del self.pool_pages[page]
        return pages

    # -- events --------------------------------------------------------------

    def on_driver_load(self, image_base: int, image_size: int) -> int:
        _check_range(image_base, image_size, "driver image")
        pages = pages_covering(image_base, image_size)
        for page in pages:
            if page in _STATIC_KIND or page in self._claims:
                raise SimulationError(f"driver image overlaps page {page:#x}")
        eid = self._next_ept_id
        self._next_ept_id += 1
        self.enclaves[eid] = EnclaveRecord(image_base, image_base + image_size)
        self._claims.update(dict.fromkeys(pages, ("image", eid)))
        self._sync_contexts()
        self._restamp(pages)
        self.layout_version += 1
        return eid

    def on_driver_unload(self, eid: int) -> None:
        rec = self.enclaves.pop(eid, None)
        if rec is None:
            raise SimulationError(f"unload of unknown enclave {eid}")
        # the image's pages hold no pool, so the claims helper drops them too
        pages = dict.fromkeys(pages_covering(rec.image_base, rec.image_size))
        for pool in [pool for pool in self.pools.values() if pool.owner == eid]:
            del self.pools[pool.base]
            pages.update(dict.fromkeys(self._unindex(pool)))
        self._claim_pool_pages(pages)
        self._sync_contexts()
        self._restamp(pages)
        self.layout_version += 1

    def on_alloc(self, caller_addr: int, base: int, size: int) -> AllocatedPool:
        """Record an allocation and return its live record. A pool whose
        caller is not enclaved stays open data, recorded only so that
        overlaps and shared pages are seen."""
        end = base + size
        if size <= 0 or base < POOL_ARENA[0] or end > POOL_ARENA[0] + POOL_ARENA[1]:
            raise SimulationError(f"allocation [{base:#x}, +{size:#x}) outside the pool arena")
        pages = pages_covering(base, size)
        for page in pages:
            for pool in self.pool_pages.get(page, ()):
                if pool.base < end and base < pool.end:
                    raise SimulationError(f"allocation overlaps live pool at {pool.base:#x}")
        pool = self.pools[base] = AllocatedPool(base, size, self._enclave_of_code(caller_addr))
        for page in pages:
            self.pool_pages.setdefault(page, []).append(pool)
        self._restamp(self._claim_pool_pages(pages))
        self.layout_version += 1
        return pool

    def on_free(self, base: int) -> None:
        pool = self.pools.pop(base, None)
        if pool is None:
            raise SimulationError(f"free of unknown pool base {base:#x}")
        self._restamp(self._claim_pool_pages(self._unindex(pool)))
        self.layout_version += 1

    def on_process_create(self, pid: int, regions) -> None:
        if pid in self.processes:
            raise SimulationError(f"process {pid} already exists")
        regions = tuple((int(base), int(size)) for base, size in regions)
        for base, size in regions:
            _check_range(base, size, f"process {pid} region")
        pages = _region_pages(regions)
        for page in pages:
            if page in self._claims:
                raise SimulationError(f"process region overlaps page {page:#x}")
            if _STATIC_KIND.get(page) in _KERNEL_SIDE:
                raise SimulationError(f"process region overlaps code at page {page:#x}")
        self._claims.update(dict.fromkeys(pages, ("process", pid)))
        self.processes[pid] = regions
        self._restamp(pages)
        self.layout_version += 1

    def on_process_exit(self, pid: int) -> None:
        regions = self.processes.pop(pid, None)
        if regions is None:
            raise SimulationError(f"exit of unknown process {pid}")
        pages = _region_pages(regions)
        for page in pages:
            del self._claims[page]
        self._restamp(pages)
        self.layout_version += 1


class MapState(RegionLedger):
    """Multi-context policy: one default context plus one context per enclave."""

    def _context_ids(self) -> list[int]:
        return [DEFAULT_EPT, *self.enclaves]

    def _attrs(self, claim: tuple, ept_id: int) -> int:
        kind, who = claim
        if kind == "image":
            return RWX if ept_id == who else NONE
        if kind == "process":
            return RWX if ept_id == DEFAULT_EPT else NONE
        if kind == "pool":
            if who is None:
                return RW                                      # kernel-side data stays open
            return RWX if ept_id == who else NONE
        if kind == "shared":
            return NONE                                        # sealed for every owner
        if kind == "free":
            return RW
        if kind == "kernel" or ept_id == DEFAULT_EPT:
            return RWX                   # the default context opens the kernel's world
        return NONE if kind == "structure" else RW            # pre-existing drivers: no execute

    # -- violation brain -----------------------------------------------------

    def classify_access(self, current_ept: int, src: int, dst: int, access: str) -> int | str:
        """Decide what a refused translation means: a context to switch to,
        REDIRECT or GRANT. Called on violations only."""
        kind, who = self.claim_of(dst >> PAGE_SHIFT)
        if kind == "shared":
            # the pool holding the byte decides: its owner is granted in the
            # owner's home context; bytes outside enclaves never run as code
            pool = self._byte_pool(dst)
            if pool is None or pool.owner != self._enclave_of_code(src) or (
                    pool.owner is None and access == EXECUTE):
                return REDIRECT
            home = DEFAULT_EPT if pool.owner is None else pool.owner
            return GRANT if current_ept == home else home
        if access == EXECUTE:
            # code runs in its home context: an enclave's own, else the default
            if kind == "image" or kind == "pool" and who is not None:
                home = who
            elif kind in ("kernel", "other", "free"):
                home = DEFAULT_EPT
            else:
                return REDIRECT
            return REDIRECT if current_ept == home else home
        if kind == "process" or kind == "structure":
            if current_ept != DEFAULT_EPT and _STATIC_KIND.get(src >> PAGE_SHIFT) in _KERNEL_SIDE:
                return DEFAULT_EPT
        return REDIRECT


class SingleEptPolicy(RegionLedger):
    """Competitor baseline: one context for everyone.

    Protected data (enclave pools, process regions, kernel structures) is
    sealed outright, so every touch of it, legal or not, costs a trap plus a
    single-stepped window. Code is never sealed and the context never changes.
    """

    def _context_ids(self) -> list[int]:
        return [DEFAULT_EPT]

    def _attrs(self, claim: tuple, ept_id: int) -> int:
        kind, who = claim
        if kind in ("image", "kernel", "other"):
            return RWX                   # code is never sealed
        if kind == "pool" and who is None or kind == "free":
            return RW
        return NONE         # kernel structures, a process, an enclave's pool or a shared page

    def classify_access(self, current_ept: int, src: int, dst: int, access: str) -> int | str:
        if access == EXECUTE:
            return REDIRECT
        kind, who = self._claims.get(dst >> PAGE_SHIFT, _FREE)
        if kind == "pool":
            return GRANT if self._enclave_of_code(src) == who else REDIRECT
        if kind == "shared":
            # the pool holding the byte decides
            pool = self._byte_pool(dst)
            return GRANT if pool is not None and pool.owner == self._enclave_of_code(src) else REDIRECT
        return GRANT if _STATIC_KIND.get(src >> PAGE_SHIFT) in _KERNEL_SIDE else REDIRECT
