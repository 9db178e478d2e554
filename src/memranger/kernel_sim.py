"""Deterministic kernel-memory simulator.

Replays a trace of driver lifecycle, allocation, scheduling and access events
against one of three protection modes:

* ``off``        - plain memory: the bare region ledger validates the layout
  but keeps no contexts, so every access lands untrapped;
* ``single-ept`` - one translation context that seals protected data and
  single-steps every touch of it, legal or not;
* ``multi-ept``  - per-driver contexts with fake-page redirection and
  identity-checked grants.

POLICIES maps each mode's name to its policy class, and the name also names
the report; every mode replays through the same handlers and the same
dispatcher.execute_access.

The policies live in policy_map; this module owns the replay (Simulation),
its configuration and report (SimConfig, CostModel, RunReport), the pool
allocator, the trace JSON-lines codec and the trace generators (demo,
privilege-escalation, benchmark, seeded random). The seeded random generator
keeps only live facts (drivers, pools, processes) in one world object: one
table states its action mix, one method states each actor's legal and illegal
targets, and every choice is drawn from one seeded rng. Each event class
states its fields once; its construction runs a check compiled from that
statement, so the codec and the replay never check an event. The decoder
reads the fields from the same statement, and the encoder writes each event
with a line writer compiled from it, which writes what json.dumps would.
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
from pathlib import Path
from types import MappingProxyType

from .address_space import OS_KERNEL_CODE, OS_STRUCTURES, OTHER_DRIVER, POOL_ARENA
from .address_space import PAGE_SIZE, FrameStore
from .dispatcher import AccessRecord, VcpuState, execute_access, switch_ept
from .ept_model import ACCESS_BIT, EXECUTE, WRITE
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
# spec is refused as it is built, so no consumer checks an event again. It
# compiles the class's writer the same way, one expression that writes the
# event as json.dumps would write its JSON object. The decoder walks the same
# spec rows, so the two agree on every key.

@dataclass(frozen=True, eq=False)
class _Form:
    """A field's codec form: its check over one value ({v} in test), what an
    error says a good value is, its JSON text ({v} in write), as json.dumps
    writes it, and the conversion from JSON, which hands back a value it
    cannot convert for the check to refuse."""
    test: str
    what: str
    write: str
    decode: Callable | None = None      # None: the JSON value is the field value
    nested: type | None = None          # the event class a JSON object decodes to


# the string quoting json.dumps itself uses under ensure_ascii
_quoted = json.encoder.encode_basestring_ascii


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
INT = _Form("type({v}) is int and -2**63 <= {v} < 2**63", "a 64-bit integer",
            "int.__repr__({v})", _int)
HEX = replace(INT, write="'\"%#x\"' % {v}")
STR = _Form("type({v}) is str", "a string", "_quoted({v})")
HEX_BYTES = _Form("type({v}) is bytes and len({v}) > 0", "a non-empty hex string",
                  "'\"' + {v}.hex() + '\"'", _hex_bytes)
# each base and size of a region pair is bounded as an INT is
REGIONS = _Form("type({v}) is tuple and len({v}) > 0 and all(type(r) is tuple and len(r) == 2"
                " and " + INT.test.replace("{v}", "r[0]") + " and " + INT.test.replace("{v}", "r[1]")
                + " for r in {v})",
                "a non-empty list of [base, size] pairs of 64-bit integers",
                "'[' + ', '.join('[\"%#x\", \"%#x\"]' % r for r in {v}) + ']'", _regions)


def _one_of(values: tuple) -> _Form:
    return _Form(f"type({{v}}) is str and {{v}} in {values!r}", "one of " + ", ".join(values),
                 STR.write)


def _nested(cls) -> _Form:
    """A field holding a cls, which was checked when it was built; its class's
    writer writes it."""
    return _Form(f"type({{v}}) is {cls.__name__}", "an object",
                 f"_WRITERS[{cls.__name__}]({{v}})", nested=cls)


def _spec(form: _Form, default=MISSING, key: str | None = None, skip: str | None = None):
    """A field's spec row; skip states, over the event ({v}), when the writer
    leaves the field out, which by default is when its value is None."""
    return field(default=default, metadata={"form": form, "key": key, "skip": skip})


# event class -> (name, JSON key, form, default, that field's check) per field, in order
_SPECS: dict[type, tuple] = {}
_WRITERS: dict[type, Callable] = {}     # event class -> its writer: event -> JSON text
_KEYS: dict[type, frozenset] = {}       # event class -> the JSON keys its object may hold
_EVENT_OF: dict[str, type] = {}         # trace name ("ev") -> event class
_NAME_OF: dict[type, str] = {}          # event class -> trace name


def _compiled(expr: str) -> Callable:
    """expr, an expression over {v}, as a function of {v}; expr is built
    from the spec's own constants only, the way dataclasses builds
    __init__."""
    return eval("lambda e: " + expr.replace("{v}", "e"), globals())


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
    field, and compile its writer: its trace name as "ev", if it has one, then
    each field its spec does not skip, in order, under its key, in its form,
    with json.dumps's separators. A class without a trace name starts with a
    field that is always written."""
    def derive(cls):
        def __post_init__(self):
            if not check(self):
                name, key, form, _, _ = _fault(cls, [getattr(self, row[0]) for row in rows])
                raise TraceParseError(f"field {key!r} is not {form.what}: "
                                      f"{_shown(getattr(self, name))}")

        cls.__post_init__ = __post_init__       # the __init__ dataclass writes calls it
        cls = dataclass(frozen=True)(cls)
        rows, tests, values = [], [], []
        line = "{" if ev is None else '{"ev": ' + json.dumps(ev)
        for f in fields(cls):
            form, key = f.metadata["form"], f.metadata["key"] or f.name
            test = form.test if f.default is not None else "{v} is None or " + form.test
            rows.append((f.name, key, form, f.default, _compiled(test)))
            tests.append("(" + test.replace("{v}", "{v}." + f.name) + ")")
            piece = ("" if line == "{" else ", ") + json.dumps(key) + ": "
            value = "(" + form.write.replace("{v}", "{v}." + f.name) + ")"
            skip = f.metadata["skip"] or (f"{{v}}.{f.name} is None" if f.default is None else None)
            if skip is None:
                line += piece + "%s"
            else:
                line += "%s"
                value = f"('' if {skip} else {piece!r} + {value})"
            values.append(value)
        rows = _SPECS[cls] = tuple(rows)
        _KEYS[cls] = frozenset([row[1] for row in rows] + ([] if ev is None else ["ev"]))
        check = _compiled(" and ".join(tests))
        _WRITERS[cls] = _compiled(f"{line + '}'!r} % ({', '.join(values)},)")
        if ev is not None:
            _EVENT_OF[ev] = cls
            _NAME_OF[cls] = ev
        return cls
    return derive


_INDEXED_KINDS = ("own_pool", "pool_of", "other_driver")   # target kinds that take an index
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
    # written where the kind takes an index or it is not 0, so a target whose
    # kind takes none reads back as itself
    index: int = _spec(INT, 0, skip="{v}.index == 0 and {v}.kind not in _INDEXED_KINDS")
    pid: int | None = _spec(INT, None)
    offset: int = _spec(HEX, 0)


@_event("access")
class AccessEvent:
    actor: str = _spec(STR)
    dst: DstRef = _spec(_nested(DstRef))
    access: str = _spec(_one_of(tuple(ACCESS_BIT)))
    payload: bytes | None = _spec(HEX_BYTES, None)
    expect: str | None = _spec(_one_of(("legal", "illegal")), None)   # the generator's own label


TraceEvent = (
    LoadDriver | UnloadDriver | CreateProcess | ExitProcess
    | Alloc | Free | Schedule | AccessEvent
)


# -- JSON-lines codec --------------------------------------------------------

def _line(event: TraceEvent) -> str:
    """event's JSON text, as its class's writer writes it."""
    if type(event) not in _NAME_OF:
        raise TypeError(f"not a trace event: {event!r}")
    return _WRITERS[type(event)](event)


def event_to_dict(event: TraceEvent) -> dict:
    return json.loads(_line(event))


def _decoded(cls, obj: dict, line: int, prefix: str = ""):
    """cls built from obj, each value converted by its field's form; a key
    that no field states is refused, and a missing field without a default is
    passed as MISSING, which no check accepts. A refusal names the field by
    its path from the line and shows its JSON value."""
    if not _KEYS[cls].issuperset(obj):
        unknown = next(key for key in obj if key not in _KEYS[cls])
        raise TraceParseError(f"unknown field {prefix + str(unknown)!r}", line)
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
            known = lines[id(event)] = (event, _line(event) + "\n")
        out.append(known[1])
    return "".join(out)


def parse_trace(text: str) -> list[TraceEvent]:
    """Decode a JSON-lines trace. A line ends at \\n, \\r\\n or \\r only: a
    string or a comment may hold any other character str.splitlines breaks
    at. Each distinct stripped line is decoded once per call and a repeat
    reuses its (frozen) event, so an error names the line where its text first
    appears."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    events = []
    decoded: dict[str, TraceEvent] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
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
    never fills the arena keeps its layout. A refused request changes nothing.
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
                _free(self.holes, self.cursor, start)    # the gap before an aligned start
            self.cursor = end
        else:
            # the bump is over and its tail is a hole, but a refused request
            # must leave the allocator as it was: place it first, then commit
            holes = self.holes
            if self.cursor < self.end:
                holes = holes.copy()
                _free(holes, self.cursor, self.end)
            start, end = _first_fit(holes, size, grain)
            self.holes, self.cursor = holes, self.end
        self._extents[start] = end
        return start

    def release(self, base: int) -> None:
        """Return a live allocation's whole extent to the holes."""
        end = self._extents.pop(base, None)
        if end is None:
            raise SimulationError(f"release of unknown pool base {base:#x}")
        _free(self.holes, base, end)


def _first_fit(holes: list[tuple[int, int]], size: int, grain: int) -> tuple[int, int]:
    """Carve an allocation out of the first hole it fits; raises, with holes
    untouched, when none does."""
    for i, (low, high) in enumerate(holes):
        start, end = _placed(low, size, grain)
        if end <= high:
            holes[i:i + 1] = [hole for hole in ((low, start), (end, high)) if hole[0] < hole[1]]
            return start, end
    raise SimulationError("pool arena exhausted")


def _free(holes: list[tuple[int, int]], low: int, high: int) -> None:
    """Add [low, high) to the sorted holes, merged with its neighbours."""
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

def _bounded(ref: DstRef, base: int, size: int) -> int:
    """The address ref's offset names in the region [base, base + size)."""
    if not 0 <= ref.offset < size:
        raise SimulationError(f"offset {ref.offset:#x} outside {ref.kind}")
    return base + ref.offset


@dataclass
class ActorInfo:
    name: str
    kind: str                   # "driver" | "os" | "other"
    code: int
    enclave_id: int | None = None


# Mode name -> its policy class; mode off keeps the bare ledger: the same
# input checks, no contexts.
POLICIES = {"off": RegionLedger, "single-ept": SingleEptPolicy, "multi-ept": MapState}

# The pools of an actor that has none: one shared, read-only empty map.
_NO_POOLS = MappingProxyType({})


class Simulation:
    """One trace replay: regions, frames, policy, vcpu, and the access log."""

    def __init__(self, mode: str, config: SimConfig | None = None):
        if mode not in POLICIES:
            raise ValueError(f"unknown mode {mode!r}: expected one of {', '.join(POLICIES)}")
        self.mode = mode
        self.config = config or SimConfig()
        self.store = FrameStore.booted()
        self.policy = POLICIES[mode]()
        self.vcpu = VcpuState(current_ept=DEFAULT_EPT)
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

    def _pool_addr(self, owner: str, index: int, offset: int) -> int:
        pool = self.pools.get(owner, _NO_POOLS).get(index)
        if pool is not None and 0 <= offset < pool.size:
            return pool.base + offset
        # a miss: the first of the four refusals that applies
        made = self.ordinals.get(owner, 0)
        if not made:
            raise SimulationError(f"actor {owner!r} has no allocations")
        if not 0 <= index < made:
            raise SimulationError(f"no pool ordinal {index} for actor {owner!r}")
        if pool is None:
            raise SimulationError(f"pool {owner}:{index} already freed")
        raise SimulationError(f"offset {offset:#x} outside pool {owner}:{index}")

    def _resolve(self, info: ActorInfo, ref: DstRef) -> int:
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
            return _bounded(ref, image.image_base, image.image_size)
        if ref.kind == "eprocess":
            regions = self.policy.processes.get(ref.pid)
            if regions is None:
                raise SimulationError(f"no live process {ref.pid}")
            return _bounded(ref, *regions[0])
        if ref.kind == "os_kernel_code":
            return _bounded(ref, *OS_KERNEL_CODE)
        if ref.kind == "os_structures":
            return _bounded(ref, *OS_STRUCTURES)
        if ref.kind == "other_driver":
            if ref.index != 0:
                raise SimulationError(f"no pre-existing driver {ref.index}")
            return _bounded(ref, *OTHER_DRIVER)
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
        if self.scheduled != event.actor:
            self._fetch(event.actor)
        align = "page" if self.config.force_page_aligned else event.align
        base = self.allocator.take(event.size, align)
        pool = self.policy.on_alloc(info.code, base, event.size)     # refuses before any byte moves
        fill = SECRET_FILL if info.kind == "driver" else FOREIGN_POOL_FILL
        self.store.fill_gpa_range(base, event.size, fill)
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
        if self.scheduled != event.actor:
            self._fetch(event.actor)
        # a live pool has a byte at offset 0, so any miss is _pool_addr's refusal
        base = self._pool_addr(event.actor, event.pool, 0)
        self.policy.on_free(base)
        self.allocator.release(base)
        del self.pools[event.actor][event.pool]

    def _on_access(self, event: AccessEvent) -> None:
        actor = event.actor
        info = self._actor(actor)
        access = event.access
        if self.scheduled != actor:
            self._fetch(actor)
        dst = self._resolve(info, event.dst)
        payload = event.payload
        if access == WRITE and payload is None:
            payload = DEFAULT_WRITE
        log = self.log
        # positional, in execute_access's order: payload, actor, home_ept, seq, event, expect
        record = execute_access(self.vcpu, self.policy, self.store, info.code, dst, access,
                                payload, actor, None, len(log), self.event_index, event.expect)
        log.append(record)
        if access == EXECUTE and record.ept_after != record.ept_before:
            # a call into another context: the actor's next event returns to
            # its own code, which a fresh fetch of its entry models
            self.scheduled = None

    # -- results ------------------------------------------------------------

    def digests(self) -> dict[str, str]:
        """sha256 of every region alive at end of trace, keyed by stable label."""
        out = self.store.static_digests()
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
        return RunReport(
            mode=self.mode,
            config=asdict(self.config),
            counters=counters,
            log=list(self.log),
            allocations=list(self.allocations),
            digests=self.digests(),
            modeled_total_ticks=self.config.cost_model.ticks(counters),
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


# Access menu rows: (target kind, driver, index, pid, size to draw an offset
# in, access). The rows that name no live region are built here, once.
_STRUCTURES = tuple(("os_structures", None, 0, None, PROCESS_SLOT_BASE - OS_STRUCTURES[0], access)
                    for access in ACCESS_BIT)
_KERNEL_CODE_READ = ("os_kernel_code", None, 0, None, OS_KERNEL_CODE[1], "read")
_DRIVER_READS = (("other_driver", None, 0, None, OTHER_DRIVER[1], "read"), _KERNEL_CODE_READ)


def _lowest_free(used, count: int) -> int | None:
    """The lowest slot below count that is not in used, or None if all are."""
    if len(used) == count:
        return None
    used = set(used)
    return next(slot for slot in range(count) if slot not in used)


class _World:
    """The random generator's live world: loaded drivers, live pools and live
    processes, enough to label every access it draws. Every draw comes from
    the one seeded rng; each action returns its event, or None when it cannot
    act."""

    def __init__(self, rng: random.Random, attack_probability: float):
        self.rng = rng
        self.attack_probability = attack_probability
        self.drivers: dict[str, int] = {}              # name -> image slot index
        self.pools: dict[str, dict[int, int]] = {      # live actor -> live ordinal -> size
            "os_kernel": {}, "other_driver_0": {}}
        self.made: dict[str, int] = {}                 # actor -> allocations made
        self.pids: dict[int, int] = {}                 # live pid -> region slot, in creation order
        self.next_pid = 4
        self.names = _driver_names()

    def actor(self, per_driver: int, per_kernel: int) -> str:
        """Draw an actor: each loaded driver per_driver times in name order,
        then os_kernel per_kernel times, then other_driver_0 once."""
        return self.rng.choice([*sorted([*self.drivers] * per_driver), *["os_kernel"] * per_kernel,
                                "other_driver_0"])

    def pool_rows(self, owner: str, kind: str, driver: str | None = None) -> list[tuple]:
        rows = []
        for ordinal, size in self.pools[owner].items():
            rows.append((kind, driver, ordinal, None, size, "read"))
            rows.append((kind, driver, ordinal, None, size, "write"))
        return rows

    def process_rows(self) -> list[tuple]:
        rows = []
        for pid in self.pids:
            rows.append(("eprocess", None, 0, pid, PROCESS_REGION_SIZE, "read"))
            rows.append(("eprocess", None, 0, pid, PROCESS_REGION_SIZE, "write"))
        return rows

    def foreign_rows(self, actor: str, image_accesses: tuple[str, ...]) -> list[tuple]:
        """Rows for every other loaded driver's pools and image."""
        rows = []
        for victim in sorted(self.drivers):
            if victim != actor:
                rows += self.pool_rows(victim, "pool_of", victim)
                for access in image_accesses:
                    rows.append(("image_of", victim, 0, None, IMAGE_SIZE, access))
        return rows

    def targets(self, actor: str, legal: bool) -> list[tuple]:
        """The menu rows actor may touch (legal) or must be refused (illegal).

        The kernel side may read and write kernel structures, process records
        and its own pools, and read kernel code; it may not touch a driver's
        pools or write a driver's image. A driver may read and write its own
        pools and read its own image, the unprotected driver and kernel code;
        it may not touch another driver's pools or image, a process record or
        kernel structures."""
        if actor not in self.drivers:
            if legal:
                return [*_STRUCTURES[:2], *self.process_rows(), *self.pool_rows(actor, "own_pool"),
                        _KERNEL_CODE_READ]
            return self.foreign_rows(actor, ("write",))
        if legal:
            return [*self.pool_rows(actor, "own_pool"),
                    ("image_of", actor, 0, None, IMAGE_SIZE, "read"), *_DRIVER_READS]
        return [*self.foreign_rows(actor, ("read", "write")), *self.process_rows(), *_STRUCTURES]

    def access(self) -> AccessEvent:
        rng = self.rng
        actor = self.actor(3, 2)
        legal = rng.random() >= self.attack_probability
        kind, driver, index, pid, size, access = rng.choice(self.targets(actor, legal))
        dst = DstRef(kind, driver, index, pid, rng.randrange(max(size - 3, 1) // 4 or 1) * 4)
        payload = None
        if access == WRITE:
            payload = bytes([0xA0 + rng.randrange(16)]) * 4 if legal else DEFAULT_WRITE
        return AccessEvent(actor, dst, access, payload, "legal" if legal else "illegal")

    def schedule(self) -> Schedule:
        return Schedule(self.actor(1, 1))

    def alloc(self, actor: str | None = None) -> Alloc:
        """An allocation by actor, or by a weighted draw when it is None."""
        rng = self.rng
        if actor is None:
            actor = self.actor(3, 2)
        size = rng.choice((0x80, 0x100, 0x200, 0x1000))
        align = rng.choice(("page", "natural"))
        ordinal = self.made.get(actor, 0)
        self.made[actor] = ordinal + 1
        self.pools[actor][ordinal] = size
        return Alloc(actor, size, align)

    def free(self) -> Free | Alloc:
        victims = [(actor, ordinal) for actor in sorted(self.pools) for ordinal in self.pools[actor]]
        if not victims:
            return self.alloc()
        actor, ordinal = self.rng.choice(victims)
        del self.pools[actor][ordinal]
        return Free(actor, ordinal)

    def process(self) -> ExitProcess | CreateProcess | None:
        if len(self.pids) >= 2 and self.rng.random() < 0.5:
            pid = self.rng.choice(list(self.pids))       # creation order is pid order
            del self.pids[pid]
            return ExitProcess(pid)
        return self.create_process()

    def create_process(self) -> CreateProcess | None:
        slot = _lowest_free(self.pids.values(), PROCESS_SLOT_COUNT)
        if slot is None:
            return None
        pid = self.next_pid
        self.next_pid += 4
        self.pids[pid] = slot
        return CreateProcess(pid, ((PROCESS_SLOT_BASE + slot * PROCESS_SLOT_STRIDE, PROCESS_REGION_SIZE),))

    def driver(self) -> UnloadDriver | LoadDriver | None:
        if len(self.drivers) >= 2 and self.rng.random() < 0.5:
            name = self.rng.choice(sorted(self.drivers))
            del self.drivers[name]
            del self.pools[name]
            self.made.pop(name, None)
            return UnloadDriver(name)
        return self.load_driver()

    def load_driver(self) -> LoadDriver | None:
        slot = _lowest_free(self.drivers.values(), len(IMAGE_SLOTS))
        if slot is None:
            return None
        name = next(self.names)
        self.drivers[name] = slot
        self.pools[name] = {}
        return LoadDriver(name, IMAGE_SLOTS[slot])


# The action mix: each action with the upper end of its share of [0, 1); one
# roll per event picks the first action whose bound lies above it.
_ACTION_MIX = (
    (0.62, _World.access),
    (0.72, _World.schedule),
    (0.82, _World.alloc),
    (0.87, _World.free),
    (0.92, _World.process),
    (1.0, _World.driver),
)
_BOUNDS, _ACTIONS = zip(*_ACTION_MIX)


def gen_random_trace(seed: int, length: int = 200,
                     attack_probability: float = 0.3) -> list[TraceEvent]:
    """Seeded random trace: driver churn, allocation churn, scheduling noise,
    and a mix of legal accesses and cross-boundary attacks. Labels are correct
    by construction: attacks always target bytes the actor does not own."""
    _check_count("length", length, 0)
    if not 0.0 <= attack_probability <= 1.0:    # also rejects NaN
        raise ValueError(f"attack_probability must lie in [0, 1], not {attack_probability}")
    world = _World(random.Random(seed), attack_probability)
    # fixed opening so every trace has victims from the start: A, B, pid 4
    events = [world.load_driver(), world.load_driver(), world.create_process()]
    for name in sorted(world.drivers):
        events += (Schedule(name), world.alloc(name))
    while len(events) < length:
        action = _ACTIONS[bisect.bisect(_BOUNDS, world.rng.random())]
        # an action that cannot act (no free image or process slot) schedules
        events.append(action(world) or world.schedule())
    return events[:length]
