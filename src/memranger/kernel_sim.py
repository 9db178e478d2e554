"""Deterministic kernel-memory simulator.

Replays a trace of driver lifecycle, allocation, scheduling and access events
against one of three protection modes:

* ``off``        - plain memory: the bare region ledger validates the layout
  but keeps no contexts, so every access lands untrapped;
* ``single-ept`` - one translation context that seals protected data and
  single-steps every touch of it, legal or not;
* ``multi-ept``  - per-driver contexts with fake-page redirection and
  identity-checked grants.

The mode picks the policy class and names the report; every mode replays
through the same handlers and the same dispatcher.execute_access.

The policies live in policy_map; this module owns the replay (Simulation),
its configuration and report (SimConfig, CostModel, RunReport), the pool
allocator, the trace JSON-lines codec and the trace generators (demo,
privilege-escalation, benchmark, seeded random). Each event class states its
fields once; its construction checks them, so the codec and the replay never
check an event, and the codec reads and writes them from that same statement.
A run is priced once, when its report is made, from the counters the
dispatcher keeps.
"""

import bisect
import hashlib
import itertools
import json
import random
import string
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, POOL_ARENA
from .address_space import PAGE_SIZE, FrameStore
from .dispatcher import AccessRecord, VcpuState, execute_access, switch_ept
from .ept_model import EXECUTE, WRITE, Access
from .errors import SimulationError, TraceParseError
from .policy_map import DEFAULT_EPT, AllocatedPool, MapState, RegionLedger, SingleEptPolicy

# Static fixture: one synthetic machine shared by every trace, around the
# static regions and pool arena address_space states.
IMAGE_SLOTS = (0x3000_0000, 0x4000_0000)
IMAGE_SIZE = 0x2000

CODE_ENTRY_OFFSET = 0x100
SCHEDULER_STUB = OS_KERNEL_CODE[0] + 0x40

# Planted content, one recognizable pattern per region family.
SECRET_FILL = b"\xde\xad\xbe\xef"
OS_KERNEL_FILL = b"\x90"
OS_STRUCT_FILL = b"\x55"
OTHER_DRIVER_FILL = b"\xcc"
FOREIGN_POOL_FILL = b"\x11"
DEFAULT_WRITE = b"\xab\xab\xab\xab"

# Process regions live inside the kernel-structures range, one page apart.
PROCESS_SLOT_BASE = OS_STRUCTURES[0] + 0x2000
PROCESS_SLOT_STRIDE = 0x1000
PROCESS_REGION_SIZE = 0x200
PROCESS_SLOT_COUNT = (OS_STRUCTURES[1] - 0x2000) // PROCESS_SLOT_STRIDE


def image_fill(name: str) -> bytes:
    """Deterministic one-byte fill pattern for a driver image."""
    return bytes([0x41 + sum(name.encode()) % 26])


class Mode(Enum):
    OFF = "off"
    SINGLE_EPT = "single-ept"
    MULTI_EPT = "multi-ept"


@dataclass(frozen=True)
class CostModel:
    """Tick prices for the modeled cost account. Defaults follow the rough
    magnitude ordering of the real hardware events they stand in for."""

    base_access: int = 1
    vmexit_cost: int = 2000
    ept_switch_cost: int = 500
    mtf_roundtrip_cost: int = 4000
    page_walk_after_flush: int = 50

    @classmethod
    def from_dict(cls, raw: dict) -> "CostModel":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown cost model fields: {sorted(unknown)}")
        for key, value in raw.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"cost model field {key!r} must be a non-negative integer")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "CostModel":
        try:
            raw = json.loads(Path(path).read_text())
        except RecursionError:
            raise ValueError("cost model json is nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("cost model file must hold a json object")
        return cls.from_dict(raw)

    def as_dict(self) -> dict:
        return asdict(self)

    def ticks(self, counters: dict) -> int:
        """The modeled total of a run: each price times the counter it is
        charged per. The switch forced by an unload makes no access and is
        not charged."""
        return (
            self.base_access * counters["accesses"]
            + self.vmexit_cost * counters["ept_violations"]
            + (self.ept_switch_cost + self.page_walk_after_flush)
            * (counters["ept_switches"] - counters["forced_switches"])
            + self.mtf_roundtrip_cost * counters["mtf_windows"]
        )


@dataclass
class SimConfig:
    force_page_aligned: bool = False
    cost_model: CostModel = field(default_factory=CostModel)


REPORT_SCHEMA = "ranger-report/1"


@dataclass
class RunReport:
    mode: str
    config: dict
    counters: dict
    log: list                   # dispatcher.AccessRecord, one per access
    allocations: list
    digests: dict
    modeled_total_ticks: int

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "mode": self.mode,
            "config": self.config,
            "counters": self.counters,
            "allocations": self.allocations,
            "digests": self.digests,
            "modeled_total_ticks": self.modeled_total_ticks,
            "log": [record.as_dict() for record in self.log],
        }

    def to_json(self, extra: dict | None = None) -> str:
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- trace events -----------------------------------------------------------
#
# Each event class states its fields once: the dataclass gives each field's
# name and default (None: it may be null or absent), _spec its codec form and
# JSON key. From these, once at import, _event compiles the class's field check
# into one expression, which every construction runs: an event that breaks its
# spec is refused as it is built, so no consumer checks an event again. The
# decoder and the encoder walk the same spec rows, so they agree on every key.

@dataclass(frozen=True, eq=False)
class _Form:
    """A field's codec form: its check over one value ({v} in test), what an
    error says a good value is, the conversion from JSON, which hands back a
    value it cannot convert for the check to refuse, and the conversion to
    JSON."""
    test: str
    what: str
    decode: Callable | None = None      # None: the JSON value is the field value
    encode: Callable | None = None      # None: the field value is the JSON value
    nested: type | None = None          # the event class a JSON object decodes to


def _int(value):
    if type(value) is str:              # "0x10", "16": whatever int(text, 0) reads
        try:
            return int(value, 0)
        except ValueError:
            pass
    return value


def _hex_bytes(value):
    if type(value) is str:
        try:
            return bytes.fromhex(value)
        except ValueError:
            pass
    return value


def _regions(value):
    if type(value) is list and value and all(type(pair) is list and len(pair) == 2
                                             for pair in value):
        return tuple((_int(base), _int(size)) for base, size in value)
    return value


def _hex(value: int) -> str:
    return f"{value:#x}"


# INT is written decimal, which json reads back for any 64-bit integer; HEX,
# for addresses, sizes and offsets, is an INT written as a hex string
INT = _Form("type({v}) is int and -2**63 <= {v} < 2**63", "a 64-bit integer", _int)
HEX = replace(INT, encode=_hex)
STR = _Form("type({v}) is str", "a string")
HEX_BYTES = _Form("type({v}) is bytes and len({v}) > 0", "a non-empty hex string", _hex_bytes,
                  bytes.hex)
REGIONS = _Form("type({v}) is tuple and len({v}) > 0 and all(type(r) is tuple and len(r) == 2"
                " and type(r[0]) is int and type(r[1]) is int for r in {v})",
                "a non-empty list of [base, size] pairs", _regions,
                lambda regions: [[_hex(base), _hex(size)] for base, size in regions])


def _one_of(values: tuple) -> _Form:
    return _Form(f"type({{v}}) is str and {{v}} in {values!r}", "one of " + ", ".join(values))


def _nested(cls) -> _Form:
    """A field holding a cls, which was checked when it was built."""
    return _Form(f"type({{v}}) is {cls.__name__}", "an object", encode=_written, nested=cls)


def _spec(form: _Form, default=MISSING, key: str | None = None):
    return field(default=default, metadata={"form": form, "key": key})


# event class -> (name, JSON key, form, default, that field's check) per field, in order
_SPECS: dict[type, tuple] = {}
_EVENT_OF: dict[str, type] = {}         # trace name ("ev") -> event class
_NAME_OF: dict[type, str] = {}          # event class -> trace name


def _compiled(test: str) -> Callable:
    """The check test states over {v}, as a function; test is built from the
    spec's own constants only, the way dataclasses builds __init__."""
    return eval("lambda e: " + test.replace("{v}", "e"), globals())


def _fault(cls, values) -> tuple:
    """The spec row of the first field whose value (one per field) fails its check."""
    return next(row for row, value in zip(_SPECS[cls], values) if not row[4](value))


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:                  # an int past Python's decimal-digit limit
        return f"<{type(value).__name__} too long to show>"


def _event(ev: str | None = None):
    """Make cls a frozen dataclass whose construction runs the field check its
    spec states, raising TraceParseError (line 0) that names the first bad
    field."""
    def derive(cls):
        def __post_init__(self):
            if not check(self):
                name, key, form, _, _ = _fault(cls, [getattr(self, row[0]) for row in rows])
                raise TraceParseError(f"field {key!r} is not {form.what}: "
                                      f"{_shown(getattr(self, name))}")

        cls.__post_init__ = __post_init__       # the __init__ dataclass writes calls it
        cls = dataclass(frozen=True)(cls)
        rows, tests = [], []
        for f in fields(cls):
            form = f.metadata["form"]
            test = form.test if f.default is not None else "{v} is None or " + form.test
            rows.append((f.name, f.metadata["key"] or f.name, form, f.default, _compiled(test)))
            tests.append("(" + test.replace("{v}", "{v}." + f.name) + ")")
        rows = _SPECS[cls] = tuple(rows)
        check = _compiled(" and ".join(tests))
        if ev is not None:
            _EVENT_OF[ev] = cls
            _NAME_OF[cls] = ev
        return cls
    return derive


_INDEXED_KINDS = ("own_pool", "pool_of", "other_driver")   # target kinds that take an index


def _written(value) -> dict:
    """value's fields as JSON: each field that is not None, under its key, in
    its form. A target's index is written where its kind takes one or it is
    not 0, so a target whose kind takes none reads back as itself."""
    out = {}
    for name, key, form, _, _ in _SPECS[type(value)]:
        item = getattr(value, name)
        if item is not None:
            out[key] = item if form.encode is None else form.encode(item)
    if type(value) is DstRef and value.index == 0 and value.kind not in _INDEXED_KINDS:
        del out["index"]
    return out


ALIGNS = ("natural", "page")    # "natural" packs at 16 bytes, "page" at 4 KiB


@_event("load_driver")
class LoadDriver:
    name: str = _spec(STR)
    image_base: int = _spec(HEX)
    image_size: int = _spec(HEX, IMAGE_SIZE)


@_event("unload_driver")
class UnloadDriver:
    name: str = _spec(STR)


@_event("create_process")
class CreateProcess:
    pid: int = _spec(INT)
    regions: tuple[tuple[int, int], ...] = _spec(REGIONS)


@_event("exit_process")
class ExitProcess:
    pid: int = _spec(INT)


@_event("alloc")
class Alloc:
    actor: str = _spec(STR)
    size: int = _spec(HEX)
    align: str = _spec(_one_of(ALIGNS), "natural")


@_event("free")
class Free:
    actor: str = _spec(STR)
    pool: int = _spec(INT)      # ordinal among the actor's allocations, frees included


@_event("schedule")
class Schedule:
    actor: str = _spec(STR)


@_event()
class DstRef:
    """Symbolic access target, resolved against live regions at replay time."""
    kind: str = _spec(_one_of(("own_pool", "pool_of", "image_of", "eprocess",
                               "os_kernel_code", "os_structures", "other_driver")), key="ref")
    driver: str | None = _spec(STR, None)
    index: int = _spec(INT, 0)
    pid: int | None = _spec(INT, None)
    offset: int = _spec(HEX, 0)


@_event("access")
class AccessEvent:
    actor: str = _spec(STR)
    dst: DstRef = _spec(_nested(DstRef))
    access: str = _spec(_one_of(tuple(access.value for access in Access)))
    payload: bytes | None = _spec(HEX_BYTES, None)
    expect: str | None = _spec(_one_of(("legal", "illegal")), None)   # the generator's own label


TraceEvent = (
    LoadDriver | UnloadDriver | CreateProcess | ExitProcess
    | Alloc | Free | Schedule | AccessEvent
)


# -- JSON-lines codec --------------------------------------------------------

def event_to_dict(event: TraceEvent) -> dict:
    name = _NAME_OF.get(type(event))
    if name is None:
        raise TypeError(f"not a trace event: {event!r}")
    return {"ev": name, **_written(event)}


def _decoded(cls, obj: dict, line: int, prefix: str = ""):
    """cls built from obj, each value converted by its field's form; a missing
    field without a default is passed as MISSING, which no check accepts. A
    refusal names the field by its path from the line and shows its JSON
    value."""
    args = []
    for _, key, form, default, _ in _SPECS[cls]:
        if key not in obj:
            args.append(default)
        elif form.nested is not None and type(obj[key]) is dict:
            args.append(_decoded(form.nested, obj[key], line, f"{prefix}{key}."))
        else:
            args.append(obj[key] if form.decode is None else form.decode(obj[key]))
    try:
        return cls(*args)
    except TraceParseError:
        _, key, form, _, _ = _fault(cls, args)
    if key not in obj:
        raise TraceParseError(f"missing field {prefix + key!r}", line)
    raise TraceParseError(f"field {prefix + key!r} is not {form.what}: {obj[key]!r}", line)


def event_from_dict(obj: dict, line: int = 0) -> TraceEvent:
    ev = obj.get("ev")
    cls = _EVENT_OF.get(ev) if type(ev) is str else None
    if cls is None:
        raise TraceParseError(f"unknown event kind {ev!r}" if "ev" in obj
                              else "missing field 'ev'", line)
    return _decoded(cls, obj, line)


def serialize_trace(events) -> str:
    """Encode events as JSON lines that parse_trace reads back. Each distinct
    event object is encoded once per call and a repeat reuses its line; the
    memo holds the event too, so its id cannot be reused by another object
    while the call runs."""
    lines: dict[int, tuple] = {}
    out = []
    for event in events:
        known = lines.get(id(event))
        if known is None:
            known = lines[id(event)] = (event, json.dumps(event_to_dict(event)) + "\n")
        out.append(known[1])
    return "".join(out)


def parse_trace(text: str) -> list[TraceEvent]:
    """Decode a JSON-lines trace. Each distinct stripped line is decoded once
    per call and a repeat reuses its (frozen) event, so an error names the
    line where its text first appears."""
    events = []
    decoded: dict[str, TraceEvent] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        event = decoded.get(raw)
        if event is None:
            if not raw or raw.startswith("#"):
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"bad json: {exc.msg}", line_no) from exc
            except (RecursionError, ValueError) as exc:    # nested too deep; an int too long
                raise TraceParseError(f"bad json: {exc}", line_no) from None
            if not isinstance(obj, dict):
                raise TraceParseError("event must be a json object", line_no)
            event = decoded[raw] = event_from_dict(obj, line_no)
        events.append(event)
    return events


# -- allocator ---------------------------------------------------------------

class BumpAllocator:
    """Pool arena: bump allocation until the arena's end, then first-fit over
    the holes that freed pools left, with neighbouring holes coalesced.

    natural packs at 16 bytes; a page allocation starts on a page and never
    shares one, since its extent runs to the end of its last page. Every
    address the bump gives is the one a bump-only arena gives, so a trace that
    never fills the arena keeps its layout.
    """

    def __init__(self, base: int, size: int):
        self.base = base
        self.end = base + size
        self.cursor = base
        self.holes: list[tuple[int, int]] = []   # (start, end), sorted, never adjacent
        self._extents: dict[int, int] = {}       # base of a live allocation -> end of its extent

    def take(self, size: int, align: str) -> int:
        if size <= 0:
            raise SimulationError("allocation size must be positive")
        grain = PAGE_SIZE if align == "page" else 16
        start, end = _placed(self.cursor, size, grain)
        if end <= self.end:
            if start > self.cursor:
                self._free(self.cursor, start)    # the gap before an aligned start
            self.cursor = end
        else:
            if self.cursor < self.end:            # the bump is over: its tail is a hole
                self._free(self.cursor, self.end)
                self.cursor = self.end
            start, end = self._first_fit(size, grain)
        self._extents[start] = end
        return start

    def release(self, base: int) -> None:
        """Return a live allocation's whole extent to the holes."""
        end = self._extents.pop(base, None)
        if end is None:
            raise SimulationError(f"release of unknown pool base {base:#x}")
        self._free(base, end)

    def _first_fit(self, size: int, grain: int) -> tuple[int, int]:
        holes = self.holes
        for i, (low, high) in enumerate(holes):
            start, end = _placed(low, size, grain)
            if end <= high:
                holes[i:i + 1] = [hole for hole in ((low, start), (end, high)) if hole[0] < hole[1]]
                return start, end
        raise SimulationError("pool arena exhausted")

    def _free(self, low: int, high: int) -> None:
        holes = self.holes
        i = bisect.bisect_left(holes, (low,))
        if i > 0 and holes[i - 1][1] == low:
            i -= 1
            low = holes.pop(i)[0]
        if i < len(holes) and holes[i][0] == high:
            high = holes.pop(i)[1]
        holes.insert(i, (low, high))


def _placed(cursor: int, size: int, grain: int) -> tuple[int, int]:
    """Start and extent end of an allocation placed at or after cursor."""
    start = (cursor + grain - 1) // grain * grain
    return start, (start + size + grain - 1) // grain * grain


# -- simulation ----------------------------------------------------------------

@dataclass
class ActorInfo:
    name: str
    kind: str                   # "driver" | "os" | "other"
    code: int
    enclave_id: int | None = None


_POLICIES = {Mode.OFF: RegionLedger, Mode.SINGLE_EPT: SingleEptPolicy, Mode.MULTI_EPT: MapState}


class Simulation:
    """One trace replay: regions, frames, policy, vcpu, and the access log."""

    def __init__(self, mode, config: SimConfig | None = None):
        self.mode = mode if isinstance(mode, Mode) else Mode(mode)
        self.config = config or SimConfig()
        self.store = FrameStore()
        # mode off keeps the bare ledger: the same input checks, no contexts
        self.policy = _POLICIES[self.mode]()
        self.vcpu = VcpuState(current_ept=DEFAULT_EPT)
        for (base, size), fill in (
            (OS_KERNEL_CODE, OS_KERNEL_FILL),
            (OS_STRUCTURES, OS_STRUCT_FILL),
            (OTHER_DRIVER, OTHER_DRIVER_FILL),
        ):
            self.store.fill_gpa_range(base, size, fill)
        self.allocator = BumpAllocator(*POOL_ARENA)
        self.actors: dict[str, ActorInfo] = {
            "os_kernel": ActorInfo("os_kernel", "os", OS_KERNEL_CODE[0] + CODE_ENTRY_OFFSET),
            "other_driver_0": ActorInfo("other_driver_0", "other", OTHER_DRIVER[0] + CODE_ENTRY_OFFSET),
        }
        self.ordinals: dict[str, int] = {}       # allocations made, frees included
        self.pools: dict[str, dict[int, AllocatedPool]] = {}   # live pools by ordinal
        self.scheduled = "os_kernel"
        self.log: list[AccessRecord] = []
        self.allocations: list[dict] = []
        self.event_index = -1

    # -- plumbing ---------------------------------------------------------

    def _actor(self, name: str) -> ActorInfo:
        info = self.actors.get(name)
        if info is None:
            raise SimulationError(f"unknown actor {name!r}")
        return info

    def _fetch(self, target: str) -> None:
        """Scheduler stub fetches the target's entry point; in multi-ept mode
        this is the moment contexts actually change."""
        info = self._actor(target)
        # dispatching the os restores its home context; drivers reach theirs
        # through the fetch fault, their code runs nowhere else
        home = DEFAULT_EPT if info.kind == "os" else None
        record = execute_access(
            self.vcpu, self.policy, self.store,
            SCHEDULER_STUB, info.code, EXECUTE, actor=target, home_ept=home,
            seq=len(self.log), event=self.event_index,
        )
        self.log.append(record)
        self.scheduled = target

    def _ensure_running(self, name: str) -> None:
        if self.scheduled != name:
            self._fetch(name)

    def _pool_addr(self, owner: str, index: int, offset: int) -> int:
        made = self.ordinals.get(owner, 0)
        if not made:
            raise SimulationError(f"actor {owner!r} has no allocations")
        if not 0 <= index < made:
            raise SimulationError(f"no pool ordinal {index} for actor {owner!r}")
        pool = self.pools.get(owner, {}).get(index)
        if pool is None:
            raise SimulationError(f"pool {owner}:{index} already freed")
        if not 0 <= offset < pool.size:
            raise SimulationError(f"offset {offset:#x} outside pool {owner}:{index}")
        return pool.base + offset

    def _resolve(self, info: ActorInfo, ref: DstRef) -> int:
        def bounded(base: int, size: int) -> int:
            if not 0 <= ref.offset < size:
                raise SimulationError(f"offset {ref.offset:#x} outside {ref.kind}")
            return base + ref.offset

        if ref.kind == "own_pool":
            return self._pool_addr(info.name, ref.index, ref.offset)
        if ref.kind == "pool_of":
            if ref.driver is None:
                raise SimulationError("pool_of needs a driver name")
            return self._pool_addr(ref.driver, ref.index, ref.offset)
        if ref.kind == "image_of":
            owner = self.actors.get(ref.driver)
            if owner is None or owner.kind != "driver":
                raise SimulationError(f"no loaded image for {ref.driver!r}")
            image = self.policy.enclaves[owner.enclave_id]
            return bounded(image.image_base, image.image_size)
        if ref.kind == "eprocess":
            regions = self.policy.processes.get(ref.pid)
            if regions is None:
                raise SimulationError(f"no live process {ref.pid}")
            return bounded(*regions[0])
        if ref.kind == "os_kernel_code":
            return bounded(*OS_KERNEL_CODE)
        if ref.kind == "os_structures":
            return bounded(*OS_STRUCTURES)
        if ref.kind == "other_driver":
            if ref.index != 0:
                raise SimulationError(f"no pre-existing driver {ref.index}")
            return bounded(*OTHER_DRIVER)
        raise SimulationError(f"unknown target kind {ref.kind!r}")

    # -- event handlers -----------------------------------------------------

    def step(self, event: TraceEvent) -> None:
        """Apply the event; its fields were checked when it was built."""
        handle = _EVENT_KINDS.get(type(event))
        if handle is None:
            raise SimulationError(f"unknown event {event!r}")
        self.event_index += 1
        handle(self, event)

    def _on_schedule(self, event: Schedule) -> None:
        self._fetch(event.actor)

    def _on_load(self, event: LoadDriver) -> None:
        if event.name in self.actors:
            raise SimulationError(f"driver {event.name!r} already loaded")
        eid = self.policy.on_driver_load(event.image_base, event.image_size)
        self.store.fill_gpa_range(event.image_base, event.image_size, image_fill(event.name))
        self.actors[event.name] = ActorInfo(
            event.name, "driver", event.image_base + CODE_ENTRY_OFFSET, eid,
        )

    def _on_unload(self, event: UnloadDriver) -> None:
        info = self._actor(event.name)
        if info.kind != "driver":
            raise SimulationError(f"{event.name!r} is not an unloadable driver")
        self.policy.on_driver_unload(info.enclave_id)
        if self.vcpu.current_ept == info.enclave_id:
            # the departed context cannot stay active; fall back, counted
            switch_ept(self.vcpu, self.policy, DEFAULT_EPT)
            self.vcpu.counters["forced_switches"] += 1
        del self.actors[event.name]
        for pool in self.pools.pop(event.name, {}).values():
            self.allocator.release(pool.base)
        if self.scheduled == event.name:
            self.scheduled = "os_kernel"

    def _on_process_create(self, event: CreateProcess) -> None:
        self.policy.on_process_create(event.pid, event.regions)
        for base, size in self.policy.processes[event.pid]:
            self.store.fill_gpa_range(base, size, SECRET_FILL)

    def _on_process_exit(self, event: ExitProcess) -> None:
        self.policy.on_process_exit(event.pid)

    def _on_alloc(self, event: Alloc) -> None:
        info = self._actor(event.actor)
        self._ensure_running(event.actor)
        align = "page" if self.config.force_page_aligned else event.align
        base = self.allocator.take(event.size, align)
        fill = SECRET_FILL if info.kind == "driver" else FOREIGN_POOL_FILL
        self.store.fill_gpa_range(base, event.size, fill)
        pool = self.policy.on_alloc(info.code, base, event.size)
        ordinal = self.ordinals.get(event.actor, 0)
        self.ordinals[event.actor] = ordinal + 1
        self.pools.setdefault(event.actor, {})[ordinal] = pool
        self.allocations.append({
            "event": self.event_index,
            "actor": event.actor,
            "ordinal": ordinal,
            "base": _hex(base),
            "size": _hex(event.size),
            "align": align,
        })

    def _on_free(self, event: Free) -> None:
        self._actor(event.actor)
        self._ensure_running(event.actor)
        if not 0 <= event.pool < self.ordinals.get(event.actor, 0):
            raise SimulationError(f"free of unknown pool ordinal {event.pool}")
        pool = self.pools.get(event.actor, {}).get(event.pool)
        if pool is None:
            raise SimulationError(f"double free of pool {event.actor}:{event.pool}")
        self.policy.on_free(pool.base)
        self.allocator.release(pool.base)
        del self.pools[event.actor][event.pool]

    def _on_access(self, event: AccessEvent) -> None:
        info = self._actor(event.actor)
        access = event.access
        self._ensure_running(event.actor)
        dst = self._resolve(info, event.dst)
        payload = event.payload
        if access == WRITE and payload is None:
            payload = DEFAULT_WRITE
        record = execute_access(
            self.vcpu, self.policy, self.store,
            info.code, dst, access, payload=payload, actor=event.actor,
            seq=len(self.log), event=self.event_index, expect=event.expect,
        )
        self.log.append(record)
        if record.ept_after != record.ept_before and access == EXECUTE:
            # a call into another context: the actor's next event returns to
            # its own code, which a fresh fetch of its entry models
            self.scheduled = None

    # -- results ------------------------------------------------------------

    def digests(self) -> dict[str, str]:
        """sha256 of every region alive at end of trace, keyed by stable label."""
        out = {
            "os_kernel_code": self.store.digest_gpa_range(*OS_KERNEL_CODE),
            "os_structures": self.store.digest_gpa_range(*OS_STRUCTURES),
            "other_driver:0": self.store.digest_gpa_range(*OTHER_DRIVER),
        }
        for name, info in self.actors.items():
            if info.kind == "driver":
                image = self.policy.enclaves[info.enclave_id]
                out[f"image:{name}"] = self.store.digest_gpa_range(image.image_base, image.image_size)
        for name, pools in self.pools.items():
            for ordinal, pool in pools.items():
                out[f"pool:{name}:{ordinal}"] = self.store.digest_gpa_range(pool.base, pool.size)
        for pid, regions in self.policy.processes.items():
            digest = hashlib.sha256()
            for base, size in regions:
                digest.update(self.store.read_gpa_range(base, size))
            out[f"eprocess:{pid}"] = digest.hexdigest()
        return out

    def report(self) -> RunReport:
        counters = dict(self.vcpu.counters)
        cost_model = self.config.cost_model
        return RunReport(
            mode=self.mode.value,
            config={
                "force_page_aligned": self.config.force_page_aligned,
                "cost_model": cost_model.as_dict(),
            },
            counters=counters,
            log=list(self.log),
            allocations=list(self.allocations),
            digests=self.digests(),
            modeled_total_ticks=cost_model.ticks(counters),
        )


# Each event class's handler, looked up once per step.
_EVENT_KINDS = {
    LoadDriver: Simulation._on_load,
    UnloadDriver: Simulation._on_unload,
    CreateProcess: Simulation._on_process_create,
    ExitProcess: Simulation._on_process_exit,
    Alloc: Simulation._on_alloc,
    Free: Simulation._on_free,
    Schedule: Simulation._on_schedule,
    AccessEvent: Simulation._on_access,
}


def run_trace(events, mode, config: SimConfig | None = None, after_event=None) -> RunReport:
    """Replay events under the given mode; after_event(sim, index, event) runs
    after each step (the equivalence harness hangs its oracle there)."""
    sim = Simulation(mode, config)
    for index, event in enumerate(events):
        sim.step(event)
        if after_event is not None:
            after_event(sim, index, event)
    return sim.report()


# -- trace generators ----------------------------------------------------------

def gen_demo1_trace() -> list[TraceEvent]:
    """Two drivers, two secrets, four cross-enclave attempts, four redirects."""
    a_pool = DstRef("own_pool", index=0)
    b_pool = DstRef("own_pool", index=0)
    return [
        LoadDriver("A", IMAGE_SLOTS[0]),
        LoadDriver("B", IMAGE_SLOTS[1]),
        Schedule("A"),
        Alloc("A", 0x100, "page"),
        Schedule("B"),
        Alloc("B", 0x100, "page"),
        Schedule("A"),
        AccessEvent("A", a_pool, "write", payload=bytes.fromhex("11223344"), expect="legal"),
        AccessEvent("A", a_pool, "read", expect="legal"),
        AccessEvent("A", DstRef("pool_of", driver="B", index=0), "read", expect="illegal"),
        AccessEvent("A", DstRef("pool_of", driver="B", index=0), "write",
                    payload=DEFAULT_WRITE, expect="illegal"),
        Schedule("B"),
        AccessEvent("B", b_pool, "write", payload=bytes.fromhex("55667788"), expect="legal"),
        AccessEvent("B", b_pool, "read", expect="legal"),
        AccessEvent("B", DstRef("pool_of", driver="A", index=0), "read", expect="illegal"),
        AccessEvent("B", DstRef("pool_of", driver="A", index=0), "write",
                    payload=DEFAULT_WRITE, expect="illegal"),
        Schedule("A"),
        AccessEvent("A", a_pool, "read", expect="legal"),
    ]


def gen_privesc_trace() -> list[TraceEvent]:
    """A rootkit-style driver tries to overwrite a process token field."""
    token = DstRef("eprocess", pid=4)
    return [
        LoadDriver("A", IMAGE_SLOTS[0]),
        CreateProcess(4, ((PROCESS_SLOT_BASE, PROCESS_REGION_SIZE),)),
        Schedule("os_kernel"),
        AccessEvent("os_kernel", token, "read", expect="legal"),
        Schedule("A"),
        AccessEvent("A", token, "write", payload=bytes(4), expect="illegal"),
        Schedule("os_kernel"),
        AccessEvent("os_kernel", token, "read", expect="legal"),
    ]


def _check_count(name: str, value, least: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")


def gen_benchmark_trace(n_accesses: int = 10_000, align: str = "page",
                        quantum: int = 64) -> list[TraceEvent]:
    """One driver reading its own pool, preempted every quantum accesses."""
    _check_count("n_accesses", n_accesses, 0)
    _check_count("quantum", quantum, 1)
    if align not in ALIGNS:
        raise ValueError(f"align must be one of {ALIGNS}, not {align!r}")
    events: list[TraceEvent] = [
        LoadDriver("X", IMAGE_SLOTS[0]),
        Schedule("X"),
        Alloc("X", 0x1000, align),
    ]
    # each distinct (frozen) event is built once and repeated by reference
    slots = 0x1000 // 4
    reads = [AccessEvent("X", DstRef("own_pool", index=0, offset=slot * 4), "read", expect="legal")
             for slot in range(min(n_accesses, slots))]
    preempt = (Schedule("other_driver_0"), Schedule("X"))
    for i in range(n_accesses):
        if i and i % quantum == 0:
            events += preempt
        events.append(reads[i % slots])
    return events


def _driver_names():
    """Driver names without end: A, B, ..., Z, then A1, ..., Z1, A2, ..."""
    for round_no in itertools.count():
        suffix = str(round_no) if round_no else ""
        for letter in string.ascii_uppercase:
            yield letter + suffix


class _RandomTraceState:
    """Generator-side mirror of liveness, enough to label legality."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.events: list[TraceEvent] = []
        self.drivers: dict[str, int] = {}          # name -> image slot index
        self.free_slots = [0, 1]
        self.names = _driver_names()
        self.sizes: dict[str, list[int]] = {}      # actor -> size of each allocation
        self.live: dict[str, list[int]] = {}       # actor -> its live ordinals, ascending
        self.pids: list[int] = []
        self.free_pid_slots = list(range(PROCESS_SLOT_COUNT))
        self.pid_slot: dict[int, int] = {}
        self.next_pid = 4

    def load_driver(self):
        if not self.free_slots:
            return False
        name = next(self.names)
        slot = self.free_slots.pop(0)
        self.drivers[name] = slot
        self.events.append(LoadDriver(name, IMAGE_SLOTS[slot]))
        return True

    def unload_driver(self, name: str):
        slot = self.drivers.pop(name)
        self.free_slots.append(slot)
        self.free_slots.sort()
        self.live.pop(name, None)
        self.events.append(UnloadDriver(name))

    def create_process(self):
        if not self.free_pid_slots:
            return False
        pid = self.next_pid
        self.next_pid += 4
        slot = self.free_pid_slots.pop(0)
        self.pid_slot[pid] = slot
        self.pids.append(pid)
        base = PROCESS_SLOT_BASE + slot * PROCESS_SLOT_STRIDE
        self.events.append(CreateProcess(pid, ((base, PROCESS_REGION_SIZE),)))
        return True

    def exit_process(self, pid: int):
        self.pids.remove(pid)
        self.free_pid_slots.append(self.pid_slot.pop(pid))
        self.free_pid_slots.sort()
        self.events.append(ExitProcess(pid))

    def alloc(self, actor: str):
        rng = self.rng
        size = rng.choice((0x80, 0x100, 0x200, 0x1000))
        align = rng.choice(("page", "natural"))
        sizes = self.sizes.setdefault(actor, [])
        self.live.setdefault(actor, []).append(len(sizes))
        sizes.append(size)
        self.events.append(Alloc(actor, size, align))


def gen_random_trace(seed: int, length: int = 200,
                     attack_probability: float = 0.3) -> list[TraceEvent]:
    """Seeded random trace: driver churn, allocation churn, scheduling noise,
    and a mix of legal accesses and cross-boundary attacks. Labels are correct
    by construction: attacks always target bytes the actor does not own."""
    _check_count("length", length, 0)
    if not 0.0 <= attack_probability <= 1.0:    # also rejects NaN
        raise ValueError(f"attack_probability must lie in [0, 1], not {attack_probability}")
    rng = random.Random(seed)
    st = _RandomTraceState(rng)

    def offset_in(size: int) -> int:
        return rng.randrange(max(size - 3, 1) // 4 or 1) * 4

    no_ref = (None, 0, None)

    # fixed opening so every trace has victims from the start
    st.load_driver()                      # A
    st.load_driver()                      # B
    st.create_process()                   # pid 4
    first, second = sorted(st.drivers)
    st.events.append(Schedule(first))
    st.alloc(first)
    st.events.append(Schedule(second))
    st.alloc(second)

    def driver_names() -> list[str]:
        return sorted(st.drivers)

    def weighted_actor() -> str:
        choices: list[str] = []
        for name in driver_names():
            choices.extend([name] * 3)
        choices.extend(["os_kernel", "os_kernel", "other_driver_0"])
        return rng.choice(choices)

    # menu entries: (target kind, its (driver, index, pid), size to draw an offset in, access)
    def add_pools(menu: list, owner: str, kind: str, driver: str | None = None) -> None:
        for ordinal in st.live.get(owner, ()):
            which, size = (driver, ordinal, None), st.sizes[owner][ordinal]
            menu.append((kind, which, size, "read"))
            menu.append((kind, which, size, "write"))

    def legal_access(actor: str) -> AccessEvent:
        menu: list[tuple] = []
        if actor in st.drivers:
            add_pools(menu, actor, "own_pool")
            menu.append(("image_of", (actor, 0, None), IMAGE_SIZE, "read"))
            menu.append(("other_driver", no_ref, OTHER_DRIVER[1], "read"))
        else:
            menu.append(("os_structures", no_ref, 0x2000, "read"))
            menu.append(("os_structures", no_ref, 0x2000, "write"))
            for pid in st.pids:
                menu.append(("eprocess", (None, 0, pid), PROCESS_REGION_SIZE, "read"))
                menu.append(("eprocess", (None, 0, pid), PROCESS_REGION_SIZE, "write"))
            add_pools(menu, actor, "own_pool")
        menu.append(("os_kernel_code", no_ref, OS_KERNEL_CODE[1], "read"))
        kind, which, size, access = rng.choice(menu)
        dst = DstRef(kind, *which, offset_in(size))
        payload = bytes([0xA0 + rng.randrange(16)]) * 4 if access == "write" else None
        return AccessEvent(actor, dst, access, payload, "legal")

    def attack_access(actor: str) -> AccessEvent | None:
        menu: list[tuple] = []
        if actor in st.drivers:
            for victim in driver_names():
                if victim != actor:
                    add_pools(menu, victim, "pool_of", victim)
                    menu.append(("image_of", (victim, 0, None), IMAGE_SIZE, "read"))
                    menu.append(("image_of", (victim, 0, None), IMAGE_SIZE, "write"))
            for pid in st.pids:
                menu.append(("eprocess", (None, 0, pid), PROCESS_REGION_SIZE, "read"))
                menu.append(("eprocess", (None, 0, pid), PROCESS_REGION_SIZE, "write"))
            menu.append(("os_structures", no_ref, 0x2000, "read"))
            menu.append(("os_structures", no_ref, 0x2000, "write"))
            menu.append(("os_structures", no_ref, 0x2000, "execute"))
        else:
            for victim in driver_names():
                add_pools(menu, victim, "pool_of", victim)
                menu.append(("image_of", (victim, 0, None), IMAGE_SIZE, "write"))
        if not menu:
            return None
        kind, which, size, access = rng.choice(menu)
        dst = DstRef(kind, *which, offset_in(size))
        payload = DEFAULT_WRITE if access == "write" else None
        return AccessEvent(actor, dst, access, payload, "illegal")

    def all_actors() -> list[str]:
        return driver_names() + ["os_kernel", "other_driver_0"]

    while len(st.events) < length:
        roll = rng.random()
        if roll < 0.62:
            actor = weighted_actor()
            event = None
            if rng.random() < attack_probability:
                event = attack_access(actor)
            if event is None:
                event = legal_access(actor)
            st.events.append(event)
        elif roll < 0.72:
            st.events.append(Schedule(rng.choice(all_actors())))
        elif roll < 0.82:
            st.alloc(weighted_actor())
        elif roll < 0.87:
            victims = [(actor, ordinal) for actor in sorted(st.live) for ordinal in st.live[actor]]
            if victims:
                actor, ordinal = rng.choice(victims)
                st.live[actor].remove(ordinal)
                st.events.append(Free(actor, ordinal))
            else:
                st.alloc(weighted_actor())
        elif roll < 0.92:
            if len(st.pids) >= 2 and rng.random() < 0.5:
                st.exit_process(rng.choice(sorted(st.pids)))
            elif not st.create_process():
                st.events.append(Schedule(rng.choice(all_actors())))
        else:
            if len(st.drivers) >= 2 and rng.random() < 0.5:
                st.unload_driver(rng.choice(driver_names()))
            elif not st.load_driver():
                st.events.append(Schedule(rng.choice(all_actors())))

    return st.events[:length]
