"""Memory access policy: who may touch what, and through which context.

RegionLedger holds the region facts every mode shares (driver images, live
pools, process regions), rejects any change that would make them overlap
each other or the machine's static regions, and answers ownership queries.
Each live pool is one record, kept by its base in pools and indexed by page
in pool_pages; its owner is an enclave id, or None for a kernel-side caller. Each event hook updates the
facts and then restamps the pages it changed in every translation context.
A policy subclass says two things only: which contexts exist (_context_ids)
and which bits a page holds in a context (_attrs, a pure function of the
facts, whose static branch is _static_attrs(kind, context)). Mode ``off``
uses the ledger bare, with no contexts to stamp.

The static regions are address_space's three constants (kernel code, kernel
structures, the pre-existing driver); _STATIC_KIND gives each of their pages
its kind, once, at import. A static page's leaf in a context follows from
its kind and the bits _static_attrs gives that kind, which no event changes.
The leaves are built once per bits-per-kind into a template that every
context with those bits, in every ledger, shares by reference as its
read-only base map (static_template). A new context therefore writes only
the pages of images, processes and pools into its own map; a page an event
restamps, or a single-step window opens, gets its own leaf over the
template.

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

Allocation ownership is attributed by the caller's code address.
classify_access is each policy's violation brain: for a refused translation
it picks switch / redirect / grant. The dispatcher checks an access's
addresses before any translation, so every address it is asked about lies in
the modelled space.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .address_space import GPA_LIMIT, PAGE_SHIFT, pages_covering
from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, POOL_ARENA
from .ept_model import EXECUTE, NONE, RW, RWX, Access, Ept, EptEntry
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


class DecisionKind(Enum):
    SWITCH_EPT = "switch_ept"
    REDIRECT_TO_FAKE = "redirect_to_fake"
    TEMPORARY_GRANT = "temporary_grant"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    target_ept: int | None = None


REDIRECT = Decision(DecisionKind.REDIRECT_TO_FAKE)
GRANT = Decision(DecisionKind.TEMPORARY_GRANT)


def switch_to(ept_id: int) -> Decision:
    return Decision(DecisionKind.SWITCH_EPT, target_ept=ept_id)


def _check_range(base: int, size: int, what: str) -> None:
    if size <= 0:
        raise SimulationError(f"{what}: size must be positive")
    if size > MAX_REGION_SIZE:
        raise SimulationError(f"{what}: size {size:#x} exceeds {MAX_REGION_SIZE:#x}")
    if base < 0 or base + size > GPA_LIMIT:
        raise SimulationError(f"{what}: outside 48-bit space")


STATIC_KINDS = ("kernel", "structure", "other")

# Static page -> its kind. Shared by every ledger and never written.
_STATIC_KIND = {
    page: kind
    for kind, region in zip(STATIC_KINDS, (OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER))
    for page in pages_covering(*region)
}


@lru_cache(maxsize=16)
def static_template(bits: tuple[int, ...]) -> dict[int, EptEntry]:
    """Identity leaves of every static page, kind STATIC_KINDS[i] holding
    bits[i]: the read-only base map of every context whose rule gives those
    bits. Shared by reference, so nothing may write it."""
    of_kind = dict(zip(STATIC_KINDS, bits))
    return {page: EptEntry(page, of_kind[kind]) for page, kind in _STATIC_KIND.items()}


def _region_pages(regions) -> dict[int, None]:
    """Pages touched by any of the regions, in order, each once."""
    return {page: None for base, size in regions for page in pages_covering(base, size)}


class RegionLedger:
    """Region facts, their validation, ownership queries and the restamp loop."""

    def __init__(self):
        self.epts: dict[int, Ept] = {}
        self.enclaves: dict[int, EnclaveRecord] = {}
        self.processes: dict[int, tuple[tuple[int, int], ...]] = {}   # pid -> its regions
        self.pools: dict[int, AllocatedPool] = {}           # base -> live pool
        self.pool_pages: dict[int, list[AllocatedPool]] = {}  # page -> its live pools
        self.layout_version = 0
        self._next_ept_id = DEFAULT_EPT + 1
        self._overlay: dict[int, tuple] = {}   # page -> ("image", eid) | ("process", pid)
        self._sync_contexts()
        self.layout_version += 1

    # -- the page rule, given by the policies --------------------------------

    def _context_ids(self) -> list[int]:
        """Contexts the facts call for; the bare ledger keeps none."""
        return []

    def _attrs(self, page: int, ept_id: int) -> int:
        """Bits a page holds in a context, from the facts alone."""
        raise NotImplementedError

    def _static_attrs(self, kind: str, ept_id: int) -> int:
        """Bits a static page of the kind holds in a context while no image,
        process or pool claims it."""
        raise NotImplementedError

    def _restamp(self, pages) -> None:
        """Give every page its rule's bits in every context."""
        for ept_id, ept in self.epts.items():
            for page in pages:
                ept.set_page_attrs(page, self._attrs(page, ept_id))

    def _sync_contexts(self) -> None:
        """Drop contexts the facts no longer call for and create the missing
        ones: each reads the static pages from its rule's shared template and
        gets its own leaf for every page an image, process or pool claims. A
        fresh context maps every page identity, so those leaves are written
        directly."""
        wanted = self._context_ids()
        for ept_id in [e for e in self.epts if e not in wanted]:
            del self.epts[ept_id]
        for ept_id in wanted:
            if ept_id not in self.epts:
                bits = tuple(self._static_attrs(kind, ept_id) for kind in STATIC_KINDS)
                ept = self.epts[ept_id] = Ept(ept_id, static_template(bits))
                for page in {**self._overlay, **self.pool_pages}:
                    ept.set_page_entry(page, EptEntry(page, self._attrs(page, ept_id)))

    # -- queries -----------------------------------------------------------

    def _byte_pool(self, gpa: int) -> AllocatedPool | None:
        for pool in self.pool_pages.get(gpa >> PAGE_SHIFT, ()):
            if pool.base <= gpa < pool.end:
                return pool
        return None

    def _enclave_of_code(self, gpa: int) -> int | None:
        """Enclave whose image or pool bytes contain gpa, if any."""
        overlay = self._overlay.get(gpa >> PAGE_SHIFT)
        if overlay is not None and overlay[0] == "image":
            eid = overlay[1]
            rec = self.enclaves[eid]
            if rec.image_base <= gpa < rec.image_end:
                return eid
        pool = self._byte_pool(gpa)
        if pool is not None:
            return pool.owner
        return None

    def _kernel_side_code(self, gpa: int) -> bool:
        return (OS_KERNEL_CODE[0] <= gpa < OS_KERNEL_CODE[0] + OS_KERNEL_CODE[1]
                or OTHER_DRIVER[0] <= gpa < OTHER_DRIVER[0] + OTHER_DRIVER[1])

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
            if page in _STATIC_KIND or page in self._overlay or page in self.pool_pages:
                raise SimulationError(f"driver image overlaps page {page:#x}")
        eid = self._next_ept_id
        self._next_ept_id += 1
        self.enclaves[eid] = EnclaveRecord(image_base, image_base + image_size)
        self._overlay.update(dict.fromkeys(pages, ("image", eid)))
        self._sync_contexts()
        self._restamp(pages)
        self.layout_version += 1
        return eid

    def on_driver_unload(self, eid: int) -> None:
        rec = self.enclaves.pop(eid, None)
        if rec is None:
            raise SimulationError(f"unload of unknown enclave {eid}")
        pages = dict.fromkeys(pages_covering(rec.image_base, rec.image_size))
        for page in pages:
            del self._overlay[page]
        for pool in [pool for pool in self.pools.values() if pool.owner == eid]:
            del self.pools[pool.base]
            pages.update(dict.fromkeys(self._unindex(pool)))
        self._sync_contexts()
        self._restamp(pages)
        self.layout_version += 1

    def on_alloc(self, caller_addr: int, base: int, size: int) -> AllocatedPool:
        """Record an allocation and return its live record. A pool whose
        caller is not enclaved stays open data, recorded only so that
        overlaps and shared pages are seen."""
        if size <= 0 or base < 0 or base + size > GPA_LIMIT:
            raise SimulationError(f"allocation [{base:#x}, +{size:#x}) out of range")
        pages = pages_covering(base, size)
        end = base + size
        for page in pages:
            if page in _STATIC_KIND or page in self._overlay:
                raise SimulationError(f"allocation overlaps configured region at page {page:#x}")
            for pool in self.pool_pages.get(page, ()):
                if pool.base < end and base < pool.end:
                    raise SimulationError(f"allocation overlaps live pool at {pool.base:#x}")
        pool = self.pools[base] = AllocatedPool(base, size, self._enclave_of_code(caller_addr))
        for page in pages:
            self.pool_pages.setdefault(page, []).append(pool)
        self._restamp(pages)
        self.layout_version += 1
        return pool

    def on_free(self, base: int) -> None:
        pool = self.pools.pop(base, None)
        if pool is None:
            raise SimulationError(f"free of unknown pool base {base:#x}")
        self._restamp(self._unindex(pool))
        self.layout_version += 1

    def on_process_create(self, pid: int, regions) -> None:
        if pid in self.processes:
            raise SimulationError(f"process {pid} already exists")
        regions = tuple((int(base), int(size)) for base, size in regions)
        for base, size in regions:
            _check_range(base, size, f"process {pid} region")
        pages = _region_pages(regions)
        for page in pages:
            if page in self._overlay or page in self.pool_pages:
                raise SimulationError(f"process region overlaps page {page:#x}")
            if _STATIC_KIND.get(page) in ("kernel", "other"):
                raise SimulationError(f"process region overlaps code at page {page:#x}")
        self._overlay.update(dict.fromkeys(pages, ("process", pid)))
        self.processes[pid] = regions
        self._restamp(pages)
        self.layout_version += 1

    def on_process_exit(self, pid: int) -> None:
        regions = self.processes.pop(pid, None)
        if regions is None:
            raise SimulationError(f"exit of unknown process {pid}")
        pages = _region_pages(regions)
        for page in pages:
            del self._overlay[page]
        self._restamp(pages)
        self.layout_version += 1


class MapState(RegionLedger):
    """Multi-context policy: one default context plus one context per enclave."""

    def _context_ids(self) -> list[int]:
        return [DEFAULT_EPT, *self.enclaves]

    def _attrs(self, page: int, ept_id: int) -> int:
        overlay = self._overlay.get(page)
        if overlay is not None:
            kind, who = overlay
            if kind == "image":
                return RWX if ept_id == who else NONE
            return RWX if ept_id == DEFAULT_EPT else NONE     # process region
        pools = self.pool_pages.get(page)
        if pools:
            identities = {p.owner for p in pools}
            if len(identities) >= 2:
                return NONE                                    # sealed for every owner
            owner = next(iter(identities))
            if owner is None:
                return RW                                      # kernel-side data stays open
            return RWX if ept_id == owner else NONE
        kind = _STATIC_KIND.get(page)
        return RW if kind is None else self._static_attrs(kind, ept_id)

    def _static_attrs(self, kind: str, ept_id: int) -> int:
        if kind == "kernel" or ept_id == DEFAULT_EPT:
            return RWX                   # the default context opens the kernel's world
        return NONE if kind == "structure" else RW

    # -- violation brain -----------------------------------------------------

    def classify_access(self, current_ept: int, src: int, dst: int, access: Access) -> Decision:
        """Decide what a refused translation means. Called on violations only."""
        page = dst >> PAGE_SHIFT
        overlay = self._overlay.get(page)
        pools = self.pool_pages.get(page, ())
        identities = {pool.owner for pool in pools}
        locked = len(identities) >= 2    # two owners, so at least one enclave

        if access == EXECUTE:
            if overlay is not None and overlay[0] == "image":
                eid = overlay[1]
                if current_ept != eid:
                    return switch_to(eid)
                return REDIRECT
            if pools and not locked:
                sole = next(iter(identities))
                if sole is not None:
                    # an enclave's pool runs only in its owner's context
                    if current_ept != sole:
                        return switch_to(sole)
                    return REDIRECT
            if locked:
                pool = self._byte_pool(dst)
                if (
                    pool is not None
                    and pool.owner is not None
                    and pool.owner == self._enclave_of_code(src)
                ):
                    if current_ept != pool.owner:
                        return switch_to(pool.owner)
                    return GRANT
                return REDIRECT
            static = _STATIC_KIND.get(page)
            if static in ("kernel", "other") or (static is None and overlay is None and not pools):
                if current_ept != DEFAULT_EPT:
                    return switch_to(DEFAULT_EPT)
            return REDIRECT

        # data access
        if (overlay is not None and overlay[0] == "process") or _STATIC_KIND.get(page) == "structure":
            if self._kernel_side_code(src) and current_ept != DEFAULT_EPT:
                return switch_to(DEFAULT_EPT)
            return REDIRECT
        if locked:
            pool = self._byte_pool(dst)
            if pool is not None and self._enclave_of_code(src) == pool.owner:
                # grants happen only in the owner identity's home context
                home = pool.owner if pool.owner is not None else DEFAULT_EPT
                if current_ept != home:
                    return switch_to(home)
                return GRANT
        return REDIRECT


class SingleEptPolicy(RegionLedger):
    """Competitor baseline: one context for everyone.

    Protected data (enclave pools, process regions, kernel structures) is
    sealed outright, so every touch of it, legal or not, costs a trap plus a
    single-stepped window. Code is never sealed and the context never changes.
    """

    def _context_ids(self) -> list[int]:
        return [DEFAULT_EPT]

    def _attrs(self, page: int, ept_id: int) -> int:
        overlay = self._overlay.get(page)
        if overlay is not None:
            return RWX if overlay[0] == "image" else NONE
        pools = self.pool_pages.get(page)
        if pools:
            return NONE if any(p.owner is not None for p in pools) else RW
        kind = _STATIC_KIND.get(page)
        return RW if kind is None else self._static_attrs(kind, ept_id)

    def _static_attrs(self, kind: str, ept_id: int) -> int:
        return NONE if kind == "structure" else RWX

    def classify_access(self, current_ept: int, src: int, dst: int, access: Access) -> Decision:
        if access == EXECUTE:
            return REDIRECT
        actor = self._enclave_of_code(src)
        pools = self.pool_pages.get(dst >> PAGE_SHIFT, ())
        if pools:
            identities = {p.owner for p in pools}
            if len(identities) == 1:
                return GRANT if actor == next(iter(identities)) else REDIRECT
            pool = self._byte_pool(dst)
            if pool is not None and pool.owner == actor:
                return GRANT
            return REDIRECT
        if actor is None and self._kernel_side_code(src):
            return GRANT
        return REDIRECT

