"""Brute-force permission oracle, independent of the policy engine.

The oracle consumes only raw region facts (the machine's static regions,
which it reads from address_space, enclave image ranges, live pool extents,
process regions) and recomputes the attribute triple every translation
context must hold for every page. It shares no rule code with the policy
engine it checks, not even the page-span arithmetic (_pages); agreement
between the two is the product's central correctness property.

SnapshotView is the one type those facts take, for both checkers: the oracle
fills one from the engine's ledger (snapshot_from_map) before each rebuild,
and the shadow verifier keeps one live through its replay. Its identities are
opaque: the oracle's are context ids, the shadow's are driver names. The
legality predicate, SnapshotView.legal, takes the actor's identity.

The expected side is total over live state: rebuild classifies every page
live images, pools and processes claim (the claims map, page -> claim) and
lists the contexts the facts call for; a claimed page's bits in a context
are a function of its claim and the context id, a static page's come from
the static rows, and every other page is expected to translate identity,
readable and writable. The expected side stays brute force: after every
layout change every claimed page is classified again from the raw facts.
The static rows (kernel code, OS structures, other driver) are the one
thing computed ahead: no event changes them, so they are built once, at
import, with the oracle's own _pages. A context's full row, its bits on every
static and claimed page, is built only when something reads it: a full read
of a context, check_against, or a test. The actual side is read only
through Ept.entry_for and Ept.materialized_leaves, so a context's own leaves
and the engine's shared template alike are read as the translation sees
them; the oracle never reads the template or the engine's rules itself.

check_against is the from-scratch reference: for every context it compares
the row's pages and the context's own leaves, so a stray leaf on a page no
region claims is caught too, and it alone reports mismatches. OracleChecker
only proves a clean state still clean. It keeps the claims map of its last
check and a copy of each context's own leaves at that check, and compares
the candidates: the pages whose own leaf differs from that copy; after a
layout change, the pages whose claim changed (the symmetric difference of
the last-checked and the new claims maps); for a context object not seen
before, every row page and own leaf. A check after which nothing changed
(the same layout, the same context objects, every own map equal to its
copy) compares nothing. Each context's compare stops at the first
disagreement. When the last check found something, the contexts differ from
the policy's, or a candidate disagrees, it returns check_against's list as
is. The proof, from a clean state: a page's expected bits in a context
already seen change only when its claim changes (static rows never change,
and unclaimed pages expect RW), so only the pages whose claim changed can
newly disagree there; an effective leaf changes only through the context's
own map (the shared template is never written), whatever path writes it; a
new or replaced context object is read in full. So if every candidate
agrees, no other page can disagree.
"""

from typing import NamedTuple

from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, PAGE_SHIFT
from .ept_model import EXECUTE, NONE, RW, RWX, Ept, EptEntry, R, W, X

BAD_PFN_BITS = 0xFF    # sentinel: leaf points at a non-identity frame


def _pages(base: int, size: int) -> range:
    """Pages touched by the byte range [base, base + size), ascending.

    The oracle's own span arithmetic: a fault in the engine's page math must
    not be mirrored on the expected side.
    """
    return range(base >> PAGE_SHIFT, ((base + size - 1) >> PAGE_SHIFT) + 1)


def _within(gpa: int, region: tuple[int, int]) -> bool:
    base, size = region
    return base <= gpa < base + size


class SnapshotView:
    """The raw region facts the checkers reason from, indexed for page
    ownership and byte membership queries. No attribute data, ever.

    It starts empty over the static regions. A caller then applies each fact:
    images (identity -> (base, end)) and processes (pid -> (base, size)
    regions) are plain dicts, and pools enter and leave the page index
    through add_pool and remove_pool, which also keep each pool page's owner:
    the one identity of its pools, or _SHARED when they have two (two
    distinct identities always include an enclave). An identity names an
    enclave; the view only compares identities, and None marks everything
    outside enclaves.
    """

    def __init__(self):
        self.images: dict = {}                         # identity -> (base, end)
        self.processes: dict[int, tuple[tuple[int, int], ...]] = {}
        self.pools_by_page: dict[int, list[tuple]] = {}    # page -> [(identity, base, end)]
        self.page_owner: dict = {}                     # pool page -> identity | _SHARED

    def add_pool(self, identity, base: int, size: int) -> None:
        pool = (identity, base, base + size)
        for page in _pages(base, size):
            self.pools_by_page.setdefault(page, []).append(pool)
            self._decide_owner(page)

    def remove_pool(self, identity, base: int, size: int) -> None:
        pool = (identity, base, base + size)
        for page in _pages(base, size):
            self.pools_by_page[page].remove(pool)
            self._decide_owner(page)

    def _decide_owner(self, page: int) -> None:
        """Decide a pool page's owner from its pools; a page with none left
        leaves both maps."""
        pools = self.pools_by_page[page]
        if not pools:
            del self.pools_by_page[page], self.page_owner[page]
            return
        sole = pools[0][0]
        self.page_owner[page] = _SHARED if any(p[0] != sole for p in pools) else sole

    def byte_pool_identity(self, gpa: int):
        """Identity of the live pool whose bytes contain gpa, or a miss marker."""
        for identity, base, end in self.pools_by_page.get(gpa >> PAGE_SHIFT, ()):
            if base <= gpa < end:
                return identity
        return _NO_POOL

    def image_enclave(self, gpa: int):
        for eid, (base, end) in self.images.items():
            if base <= gpa < end:
                return eid
        return None

    def in_process_region(self, gpa: int) -> bool:
        return any(_within(gpa, region)
                   for regions in self.processes.values() for region in regions)

    def legal(self, actor, dst: int, access: str) -> bool:
        """Minimal-privilege legality: does the actor, by its enclave identity
        (None for the kernel and pre-existing drivers), get true data at dst?"""
        execute = access == EXECUTE
        if execute and self.image_enclave(dst) is not None:
            return True
        owner = self.page_owner.get(dst >> PAGE_SHIFT, _NO_POOL)
        if owner is _SHARED:
            identity = self.byte_pool_identity(dst)
            return identity is not _NO_POOL and identity == actor
        if owner is not _NO_POOL:
            if execute:
                # an enclave's pool is executable in its owner's context only
                return owner is not None
            # pages holding only non-enclaved allocations stay open
            return owner is None or actor == owner
        if execute:
            return _within(dst, OS_KERNEL_CODE) or _within(dst, OTHER_DRIVER)
        eid = self.image_enclave(dst)
        if eid is not None:
            return actor == eid
        if self.in_process_region(dst) or _within(dst, OS_STRUCTURES):
            return actor is None   # kernel and pre-existing drivers, not enclaves
        return True


def snapshot_from_map(m) -> SnapshotView:
    """Duck-read the live facts out of a policy map state object; an enclave's
    identity is its context id."""
    view = SnapshotView()
    view.images = {eid: (e.image_base, e.image_end) for eid, e in m.enclaves.items()}
    view.processes = dict(m.processes)
    for pool in m.pools.values():
        view.add_pool(pool.owner, pool.base, pool.size)
    return view


_NO_POOL = object()
_SHARED = object()      # the owner of a page whose pools have two identities


class Mismatch(NamedTuple):
    ept: int
    page: int
    expected: str
    actual: str


def _render(bits: int) -> str:
    if bits == BAD_PFN_BITS:
        return "redirected-pfn"
    return ("r" if bits & R else "-") + ("w" if bits & W else "-") + ("x" if bits & X else "-")


class FlatPolicy:
    """Ground truth over live state: the claim of every page a live region
    claims (claims) and the contexts the facts call for (ept_ids). A
    context's row, its expected bits on every static and claimed page, is
    built on first read (row); a page off every row expects identity RW in
    every context.
    """

    def __init__(self, claims: dict[int, tuple], ept_ids: list[int]):
        self.claims = claims
        self.ept_ids = ept_ids
        self._rows: dict[int, dict[int, int]] = {}

    def bits(self, ept_id: int, page: int) -> int:
        """Expected bits of one page in one context: from its claim, else
        from the static row."""
        claim = self.claims.get(page)
        if claim is None:
            return _static_row(ept_id).get(page, RW)
        return _expected(claim, ept_id)

    def row(self, ept_id: int) -> dict[int, int]:
        """Expected bits of every static and claimed page in one context; a
        claim overrides a static one on the same page (a process region may
        lie over a structure page)."""
        row = self._rows.get(ept_id)
        if row is None:
            dynamic = {page: _expected(claim, ept_id) for page, claim in self.claims.items()}
            row = self._rows[ept_id] = {**_static_row(ept_id), **dynamic}
        return row

    @property
    def universe(self) -> list[int]:
        """The pages every row lists: the static pages and the claimed ones."""
        return list(self.row(0))


# Each static region with the bits its pages hold in the default context and
# in any enclave context.
_STATIC_BITS = (
    (OS_KERNEL_CODE, RWX, RWX),    # executable everywhere by design
    (OS_STRUCTURES, RWX, NONE),
    (OTHER_DRIVER, RWX, RW),
)
# Expected rows of the static pages, shared by every policy and never mutated.
_DEFAULT_ROW = {page: bits for region, bits, _ in _STATIC_BITS for page in _pages(*region)}
_ENCLAVE_ROW = {page: bits for region, _, bits in _STATIC_BITS for page in _pages(*region)}


def _static_row(ept_id: int) -> dict[int, int]:
    return _DEFAULT_ROW if ept_id == 0 else _ENCLAVE_ROW


def rebuild(view: SnapshotView) -> FlatPolicy:
    """Recompute the ground truth from the view's raw facts, reading each
    enclave identity as its context id (the default context is 0).

    Every page a live region claims is classified again from the view on
    every call; a page claimed twice keeps the last claim (pools over images
    over processes). Only the static pages' rows are computed ahead
    (_DEFAULT_ROW and _ENCLAVE_ROW); the policy builds a context's row when
    something reads it.
    """
    claims: dict[int, tuple] = {}
    for pid, regions in view.processes.items():
        for base, size in regions:
            for page in _pages(base, size):
                claims[page] = ("process", pid)
    for eid, (base, end) in view.images.items():
        for page in _pages(base, end - base):
            claims[page] = ("image", eid)
    for page, owner in view.page_owner.items():
        claims[page] = ("pool", owner)
    return FlatPolicy(claims, [0, *view.images])


def _expected(claim: tuple, ept_id: int) -> int:
    """Expected bits of a claimed page in context ept_id."""
    tag = claim[0]
    if tag == "process":
        return RWX if ept_id == 0 else NONE
    if tag == "image":
        return RWX if ept_id == claim[1] else NONE
    owner = claim[1]                         # a pool page
    if owner is _SHARED:
        return NONE                          # shared page: sealed in every context
    if owner is None:
        return RW                            # non-enclaved allocations stay open
    return RWX if ept_id == owner else NONE


def _compare(ept_id: int, row: dict[int, int], ept: Ept, page: int) -> Mismatch | None:
    """The mismatch of one page in one context, or None when it agrees."""
    want = row.get(page, RW)
    entry = ept.entry_for(page)
    got = entry.attrs if entry.pfn == page else BAD_PFN_BITS
    return None if want == got else Mismatch(ept_id, page, _render(want), _render(got))


def _every_page(row: dict[int, int], ept: Ept) -> set[int]:
    """The pages a from-scratch read of a context covers: the row's and the
    context's own leaves; every other page reads as the identity default."""
    return {*row, *(page for page, _ in ept.materialized_leaves())}


def _context_mismatches(policy: FlatPolicy, epts: dict[int, Ept]) -> list[Mismatch]:
    """Contexts the facts call for that are missing, and surplus ones."""
    return [Mismatch(ept_id, -1, "present", "missing")
            for ept_id in policy.ept_ids if ept_id not in epts] + [
            Mismatch(ept_id, -1, "absent", "present")
            for ept_id in epts if ept_id not in policy.ept_ids]


def check_against(policy: FlatPolicy, epts: dict[int, Ept]) -> list[Mismatch]:
    """Compare every context against its expected row, from scratch; []
    means agreement. The mismatches come sorted."""
    mismatches = _context_mismatches(policy, epts)
    for ept_id in policy.ept_ids:
        ept = epts.get(ept_id)
        if ept is not None:
            row = policy.row(ept_id)
            found = (_compare(ept_id, row, ept, page) for page in _every_page(row, ept))
            mismatches.extend(m for m in found if m is not None)
    return sorted(mismatches)


def _agrees(ept: Ept, want: dict[int, int]) -> bool:
    """Whether every wanted page's effective leaf is its identity frame with
    the wanted bits; stops at the first disagreement."""
    for page, bits in want.items():
        entry = ept.entry_for(page)
        if entry.pfn != page or entry.attrs != bits:
            return False
    return True


class OracleChecker:
    """Stateful wrapper: rebuilds on layout changes, proves a clean state
    still clean by comparing only what may have changed, and otherwise
    answers with check_against (see the module docstring)."""

    def __init__(self):
        self._version = None
        self._policy: FlatPolicy | None = None
        self._checked: FlatPolicy | None = None           # policy of the last check
        # id -> (context, copy of the own leaves it held when last checked)
        self._seen: dict[int, tuple[Ept, dict[int, EptEntry]]] = {}
        self._clean = True      # the last check returned []; nothing seen yet is read in full

    def policy_for(self, map_state) -> FlatPolicy:
        if self._policy is None or map_state.layout_version != self._version:
            self._policy = rebuild(snapshot_from_map(map_state))
            self._version = map_state.layout_version
        return self._policy

    def _quiet(self, policy: FlatPolicy, epts: dict[int, Ept]) -> bool:
        """Nothing changed since a clean check: the same policy, the same
        context objects, and each one's own leaves equal to their copy."""
        if not (self._clean and policy is self._checked and epts.keys() == self._seen.keys()):
            return False
        for ept_id, (ept, kept) in self._seen.items():
            if epts[ept_id] is not ept or ept.materialized_leaves().mapping != kept:
                return False
        return True

    def verify(self, map_state, epts: dict[int, Ept]) -> list[Mismatch]:
        """[] when the contexts agree with the policy, else check_against's list."""
        policy = self.policy_for(map_state)
        if self._quiet(policy, epts):
            return []
        relaid: frozenset[int] = frozenset()
        if policy is not self._checked:
            before = self._checked.claims if self._checked is not None else {}
            relaid = frozenset(page for page, _ in policy.claims.items() ^ before.items())
        clean, seen = self._clean and epts.keys() == set(policy.ept_ids), {}
        for ept_id in policy.ept_ids:
            ept = epts.get(ept_id)
            if ept is None:
                continue
            own = ept.materialized_leaves().mapping     # read-only, live
            last = self._seen.get(ept_id)
            if last is not None and last[0] is ept:
                kept, pages = last[1], relaid
                if own != kept:
                    pages = relaid.union(page for page, _ in own.items() ^ kept.items())
                    kept = own.copy()
                want = {page: policy.bits(ept_id, page) for page in pages}
            else:       # read in full: every row page and own leaf
                kept, want = own.copy(), {**dict.fromkeys(own, RW), **policy.row(ept_id)}
            clean = clean and _agrees(ept, want)
            seen[ept_id] = (ept, kept)
        self._checked, self._seen = policy, seen
        found = [] if clean else check_against(policy, epts)
        self._clean = not found
        return found
