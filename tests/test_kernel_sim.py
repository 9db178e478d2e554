"""Scenario replay: trace codec, allocator grain, mode behavior, determinism."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from memranger import kernel_sim
from memranger.address_space import PAGE_SIZE, pages_covering, pattern_page
from memranger.errors import SimulationError, TraceParseError
from memranger.kernel_sim import (
    FOREIGN_POOL_FILL,
    IMAGE_SIZE,
    IMAGE_SLOTS,
    OS_KERNEL_CODE,
    OS_KERNEL_FILL,
    OS_STRUCT_FILL,
    OS_STRUCTURES,
    OTHER_DRIVER,
    OTHER_DRIVER_FILL,
    POOL_ARENA,
    PROCESS_SLOT_BASE,
    PROCESS_SLOT_STRIDE,
    SECRET_FILL,
    AccessEvent,
    Alloc,
    BumpAllocator,
    CreateProcess,
    DstRef,
    ExitProcess,
    Free,
    LoadDriver,
    Schedule,
    Simulation,
    UnloadDriver,
    event_from_dict,
    event_to_dict,
    gen_benchmark_trace,
    gen_demo1_trace,
    gen_privesc_trace,
    gen_random_trace,
    image_fill,
    parse_trace,
    run_trace,
    serialize_trace,
)
from memranger.reference_oracle import OracleChecker, check_against, rebuild, snapshot_from_map
from memranger.report_cli import MODES, main, verify_run

ALL_EVENTS = [
    LoadDriver("A", IMAGE_SLOTS[0]),
    UnloadDriver("A"),
    CreateProcess(4, ((PROCESS_SLOT_BASE, 0x200),)),
    ExitProcess(4),
    Alloc("A", 0x100, "page"),
    Alloc("A", 0x40, "natural"),
    Free("A", 0),
    Schedule("A"),
    AccessEvent("A", DstRef("own_pool", index=1, offset=8), "read", expect="legal"),
    AccessEvent("A", DstRef("pool_of", driver="B", index=0), "write",
                payload=b"\x01\x02", expect="illegal"),
    AccessEvent("os_kernel", DstRef("eprocess", pid=4, offset=0x10), "read"),
    AccessEvent("A", DstRef("image_of", driver="B", offset=0x80), "execute",
                expect="illegal"),
]


class TestCodec:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip(self, event):
        assert event_from_dict(event_to_dict(event)) == event

    def test_trace_round_trip(self):
        text = serialize_trace(ALL_EVENTS)
        assert parse_trace(text) == ALL_EVENTS

    def test_text_is_json_lines_with_hex_addresses(self):
        line = serialize_trace([LoadDriver("A", IMAGE_SLOTS[0])]).strip()
        obj = json.loads(line)
        assert obj["ev"] == "load_driver"
        assert obj["image_base"] == f"{IMAGE_SLOTS[0]:#x}"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n" + serialize_trace([Schedule("A")]) + "\n# trailer\n"
        assert parse_trace(text) == [Schedule("A")]

    def test_parse_error_carries_line_number(self):
        good = serialize_trace([Schedule("A")]).strip()
        for bad in ('{"ev": "bogus"}', '{"ev": "free", "actor": "A"}', "{oops"):
            with pytest.raises(TraceParseError) as info:
                parse_trace(f"{good}\n{bad}\n{good}\n {bad}\n")
            assert info.value.line == 2, bad    # a repeated bad line is named where it first appears

    def test_a_long_trace_round_trips_through_the_line_memo(self):
        events = gen_benchmark_trace(10_000)
        text = serialize_trace(events)
        parsed = parse_trace(text)
        assert parsed == events
        assert serialize_trace(parsed) == text

    def test_each_distinct_line_is_decoded_once_per_call(self, monkeypatch):
        decoded = []

        def counting(obj, line=0):
            decoded.append(line)
            return event_from_dict(obj, line)

        monkeypatch.setattr(kernel_sim, "event_from_dict", counting)
        a, b = (serialize_trace([event]).strip() for event in (Schedule("A"), Schedule("B")))
        text = f"{a}\n{b}\n  {a}\n# {a}\n{a}  \n{b}\n"
        first = parse_trace(text)
        assert first == [Schedule("A"), Schedule("B"), Schedule("A"), Schedule("A"), Schedule("B")]
        assert decoded == [1, 2]            # a repeat, however indented, reuses its first event
        second = parse_trace(text)          # a fresh call decodes afresh: no state is shared
        assert second == first
        assert decoded == [1, 2, 1, 2]
        assert all(x is not y for x, y in zip(first, second))

    def test_each_distinct_event_is_encoded_once_per_call(self, monkeypatch):
        """A repeated event object reuses its line; events made one at a time
        and dropped at once still each get their own line, though a freed
        object's id may come back for the next one."""
        encoded = []

        def counting(event):
            encoded.append(event)
            return event_to_dict(event)

        monkeypatch.setattr(kernel_sim, "event_to_dict", counting)
        events = gen_benchmark_trace(3000, quantum=64)
        text = serialize_trace(events)
        # the generator builds 1,024 distinct reads, 3 set-up events and 2 preemption events
        assert encoded == list({id(event): event for event in events}.values())
        assert len(encoded) == 1024 + 3 + 2
        assert text == "".join(serialize_trace([event]) for event in events)
        names = [f"D{i}" for i in range(500)]
        lines = serialize_trace(Schedule(name) for name in names).splitlines()
        assert [json.loads(line)["actor"] for line in lines] == names

    def test_rejects_bad_access_kind(self):
        with pytest.raises(TraceParseError):
            event_from_dict({"ev": "access", "actor": "A", "access": "poke",
                             "dst": {"ref": "own_pool"}})

    def test_rejects_bad_expect_label(self):
        with pytest.raises(TraceParseError):
            event_from_dict({"ev": "access", "actor": "A", "access": "read",
                             "dst": {"ref": "own_pool"}, "expect": "sketchy"})

    @given(st.text())
    @example("[" * 100_000)
    @example("1" * 5_000)
    def test_any_text_parses_or_raises_a_parse_error(self, text):
        try:
            parse_trace(text)
        except TraceParseError:
            pass

    @given(st.integers(0, IMAGE_SIZE - 1), st.binary(min_size=1, max_size=8))
    def test_payload_survives_hex_encoding(self, offset, payload):
        event = AccessEvent("A", DstRef("image_of", driver="A", offset=offset),
                            "write", payload=payload)
        assert event_from_dict(event_to_dict(event)) == event

    def test_a_missing_image_size_takes_the_default(self):
        obj = {"ev": "load_driver", "name": "A", "image_base": "0x30000000"}
        assert event_from_dict(obj) == LoadDriver("A", 0x3000_0000, IMAGE_SIZE)

    def test_a_null_payload_reads_as_absent(self):
        obj = event_to_dict(AccessEvent("A", DstRef("own_pool"), "write"))
        assert event_from_dict({**obj, "payload": None}) == event_from_dict(obj)

    @pytest.mark.parametrize("obj, named", [
        ({"ev": "alloc", "actor": "A", "size": "zz"}, "'size'"),
        ({"ev": "alloc", "actor": "A", "size": 16, "align": None}, "'align'"),
        ({"ev": "create_process", "pid": 4, "regions": []}, "'regions'"),
        ({"ev": "create_process", "pid": 4, "regions": [["0x1", True]]}, "'regions'"),
        ({"ev": "access", "actor": "A", "access": "read", "dst": {}}, "'dst.ref'"),
        ({"ev": "access", "actor": "A", "access": "read",
          "dst": {"ref": "own_pool", "index": None}}, "'dst.index'"),
        ({"ev": "access", "actor": "A", "access": "read", "dst": [1]}, "'dst'"),
        ({"ev": "access", "actor": "A", "access": "read", "dst": {"ref": "own_pool"},
          "payload": "xyz"}, "'payload'"),
        ({"ev": "access", "actor": "A", "access": "write", "dst": {"ref": "own_pool"},
          "payload": ""}, "'payload' is not a non-empty hex string"),
    ])
    def test_a_rejected_line_names_the_field(self, obj, named):
        with pytest.raises(TraceParseError, match=named) as info:
            parse_trace("# one comment line\n" + json.dumps(obj) + "\n")
        assert info.value.line == 2

    def test_an_int_past_64_bits_is_refused(self):
        """Every event that can be built can be written and read back: a pool
        ordinal json could not write in decimal cannot be built, and a line
        past 64 bits is refused with its line number."""
        with pytest.raises(TraceParseError, match="field 'pool' is not a 64-bit integer") as info:
            Free("A", 10**5000)
        assert info.value.line == 0
        with pytest.raises(TraceParseError, match="field 'pool' is not a 64-bit integer") as info:
            parse_trace('{"ev": "free", "actor": "A", "pool": 18446744073709551616}\n')
        assert info.value.line == 1
        edges = [Free("A", 2**63 - 1), Free("A", -2**63)]
        assert parse_trace(serialize_trace(edges)) == edges


# -- one field spec per event class: construction checks it, the codec follows it

FULL_EVENTS = [
    LoadDriver("A", IMAGE_SLOTS[0], 0x1000),
    UnloadDriver("A"),
    CreateProcess(4, ((PROCESS_SLOT_BASE, 0x200),)),
    ExitProcess(4),
    Alloc("A", 0x100, "page"),
    Free("A", 0),
    Schedule("A"),
    AccessEvent("A", DstRef("pool_of", driver="B", index=1, pid=4, offset=8), "write",
                payload=b"\x01", expect="illegal"),
]


def _spec_keys(cls) -> dict:
    """JSON key -> (field name, codec form), as the class's spec states them."""
    return {f.metadata["key"] or f.name: (f.name, f.metadata["form"]) for f in fields(cls)}


_HEX_KEYS = {"image_base", "image_size", "size", "offset"}
_DECIMAL_KEYS = {"pid", "pool", "index"}


def test_the_encoder_writes_exactly_the_spec_keys():
    """A fully set event is written with its trace name and every key; as the
    trace format says, addresses, sizes, offsets and region pairs are hex
    strings, and pid, pool and index are decimal."""
    assert {type(event) for event in FULL_EVENTS} == set(kernel_sim._EVENT_OF.values())
    for event in FULL_EVENTS:
        obj = event_to_dict(event)
        assert kernel_sim._EVENT_OF[obj.pop("ev")] is type(event)
        pairs = [(event, obj)] + ([(event.dst, obj["dst"])] if isinstance(event, AccessEvent) else [])
        for value, written in pairs:
            spec = _spec_keys(type(value))
            assert set(written) == set(spec), type(value)
            for key in spec.keys() & (_HEX_KEYS | _DECIMAL_KEYS):
                number = getattr(value, spec[key][0])
                assert written[key] == (hex(number) if key in _HEX_KEYS else number), key
    assert event_to_dict(FULL_EVENTS[2])["regions"] == [[hex(PROCESS_SLOT_BASE), "0x200"]]


_NAMES_JSON = st.sampled_from(["A", "B", "os_kernel", ""]) | st.text(max_size=3)
_HEX_JSON = st.integers(-2, 2**50).map(hex) | st.integers(0, 2**50)
_DEC_JSON = st.integers(-2, 9) | st.integers(0, 9).map(str)
_GOOD_JSON = {
    "name": _NAMES_JSON, "actor": _NAMES_JSON, "driver": _NAMES_JSON,
    "image_base": _HEX_JSON, "image_size": _HEX_JSON, "size": _HEX_JSON, "offset": _HEX_JSON,
    "pid": _DEC_JSON, "pool": _DEC_JSON, "index": _DEC_JSON,
    "regions": st.lists(st.lists(_HEX_JSON, min_size=2, max_size=2), min_size=1, max_size=2),
    "payload": st.binary(max_size=4).map(bytes.hex),
    "align": st.sampled_from(["natural", "page"]),
    "access": st.sampled_from(["read", "write", "execute"]),
    "expect": st.sampled_from(["legal", "illegal"]),
    "ref": st.sampled_from(["own_pool", "pool_of", "image_of", "eprocess", "os_kernel_code",
                            "os_structures", "other_driver"]),
}
_ODD_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
                      st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
                      st.just({}), st.just([[1, 2]]), st.just(["0x1", "0x2"]),
                      st.sampled_from([2**63, -2**63 - 1, hex(2**64)]))


@st.composite
def _json_object(draw, cls) -> dict:
    """One JSON object for cls, each field well-formed, mistyped or unknown, or missing."""
    obj = {}
    for key in _spec_keys(cls):
        how = draw(st.sampled_from(["good", "good", "good", "odd", "missing"]))
        if how == "good":
            obj[key] = draw(_json_object(DstRef) if key == "dst" else _GOOD_JSON[key])
        elif how == "odd":
            obj[key] = draw(_ODD_JSON)
    return obj


_TRACE_LINES = st.sampled_from(sorted(kernel_sim._EVENT_OF.items())).flatmap(
    lambda item: _json_object(item[1]).map(lambda obj: {"ev": item[0], **obj}))


@settings(max_examples=400, deadline=None)
@given(_TRACE_LINES)
@example({"ev": "access", "actor": "A", "access": "read", "dst": {"ref": "image_of", "index": 1}})
def test_a_decoded_line_is_refused_with_its_line_or_round_trips(obj):
    """A line the decoder builds an event from is written as a line that reads
    back as that same event; every other line is a TraceParseError that
    carries its line number."""
    try:
        event = event_from_dict(obj, 7)
    except TraceParseError as exc:
        assert exc.line == 7
        return
    assert parse_trace(serialize_trace([event])) == [event]


_INTS = st.integers(-2**70, 2**70)
_ODD_PY = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.binary(max_size=2),
                    st.just(1.0), st.just(["read"]), st.just(()))
_GOOD_PY = {
    "name": st.text(max_size=3), "actor": st.text(max_size=3),
    "driver": st.none() | st.text(max_size=3),
    "image_base": _INTS, "image_size": _INTS, "size": _INTS, "offset": _INTS,
    "pid": _INTS, "pool": _INTS, "index": _INTS,
    "regions": st.lists(st.tuples(_INTS, _INTS), max_size=2).map(tuple),
    "payload": st.none() | st.binary(max_size=4),
    "expect": st.sampled_from([None, "legal", "illegal"]),
    **{key: _GOOD_JSON[key] for key in ("align", "access", "ref")},
}


@st.composite
def _python_args(draw, cls) -> dict:
    """Arguments for cls, each well-typed or, one time in ten, not; a DstRef
    comes as its own arguments, a dict, which no odd value is."""
    args = {}
    for key, (name, _) in _spec_keys(cls).items():
        good = _python_args(DstRef) if key == "dst" else _GOOD_PY[key]
        args[name] = draw(_ODD_PY if draw(st.integers(0, 9)) == 0 else good)
    return args


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(kernel_sim._EVENT_OF.values(), key=lambda cls: cls.__name__))
       .flatmap(lambda cls: _python_args(cls).map(lambda args: (cls, args))))
@example((AccessEvent, {"actor": "A", "access": "read",
                        "dst": {"kind": "image_of", "driver": "B", "index": 1}}))
def test_events_the_check_accepts_read_back_as_themselves(drawn):
    """An event built in Python is refused, naming one of its fields (or its
    target's), or it is written as a line that reads back as itself."""
    cls, args = drawn
    keys = set(_spec_keys(cls)) | (set(_spec_keys(DstRef)) if cls is AccessEvent else set())
    try:
        if type(args.get("dst")) is dict:
            args = {**args, "dst": DstRef(**args["dst"])}
        event = cls(**args)
    except TraceParseError as exc:
        named = re.match(r"field '(\w+)' is not ", str(exc))
        assert exc.line == 0 and named and named[1] in keys, exc
        return
    assert parse_trace(serialize_trace([event])) == [event]


def _other_forms(form, default) -> list[tuple]:
    """Values of another form than a field of this form and default takes:
    (in Python, in a JSON line)."""
    if form is kernel_sim.INT or form is kernel_sim.HEX:
        values = [("zz", "zz"), (2**64, 2**64)]
    elif form is kernel_sim.REGIONS:
        values = [((), [])]
    elif form is kernel_sim.HEX_BYTES:
        values = [(b"", "")]
    else:                               # strings, labels, the access target
        values = [(5, 5)]
    return values + ([(None, None)] if default is not None else [])


# Each event class's fully set event from FULL_EVENTS; a DstRef is met in its AccessEvent
_HOSTS = {type(event): event for event in FULL_EVENTS}
_HOSTS[DstRef] = _HOSTS[AccessEvent]
_WRONG = [(cls, name, key, py, js) for cls, spec in kernel_sim._SPECS.items()
          for name, key, form, default, _ in spec for py, js in _other_forms(form, default)]


@pytest.mark.parametrize("cls, name, key, py, js", _WRONG,
                         ids=[f"{cls.__name__}.{name}={py!r}" for cls, name, _, py, _ in _WRONG])
def test_every_field_refuses_a_value_of_another_form(cls, name, key, py, js):
    """Walks every class's spec: a value of another form in any field is
    refused when the event is built, naming the field, and the same value in
    a trace line is refused naming its key path and the line."""
    host = _HOSTS[cls]
    with pytest.raises(TraceParseError, match=f"^field '{key}' is not ") as info:
        replace(host.dst if cls is DstRef else host, **{name: py})
    assert info.value.line == 0
    obj = event_to_dict(host)
    (obj["dst"] if cls is DstRef else obj)[key] = js
    path = f"dst.{key}" if cls is DstRef else key
    with pytest.raises(TraceParseError, match=f"^field '{path}' is not ") as info:
        parse_trace("# one comment line\n" + json.dumps(obj) + "\n")
    assert info.value.line == 2


class TestAllocator:
    def test_natural_grain_is_sixteen(self):
        alloc = BumpAllocator(*POOL_ARENA)
        assert alloc.take(1, "natural") == POOL_ARENA[0]
        assert alloc.take(1, "natural") == POOL_ARENA[0] + 16
        assert alloc.take(17, "natural") == POOL_ARENA[0] + 32
        assert alloc.take(1, "natural") == POOL_ARENA[0] + 64

    def test_page_allocations_never_share_a_page(self):
        alloc = BumpAllocator(*POOL_ARENA)
        first = alloc.take(0x100, "page")
        second = alloc.take(0x100, "page")
        assert first % 4096 == 0 and second % 4096 == 0
        assert second >= first + 4096

    def test_natural_after_page_lands_on_a_fresh_page(self):
        alloc = BumpAllocator(*POOL_ARENA)
        page_base = alloc.take(0x100, "page")
        follow = alloc.take(16, "natural")
        assert follow >> 12 != page_base >> 12

    def test_arena_exhaustion(self):
        alloc = BumpAllocator(0x5000_0000, 0x2000)
        alloc.take(0x1000, "page")
        alloc.take(0x1000, "page")
        with pytest.raises(SimulationError):
            alloc.take(1, "natural")

    def test_freed_space_waits_for_the_arena_end(self):
        """Until the bump reaches the arena's end a freed hole is not reused,
        so a trace that never fills the arena keeps its addresses."""
        alloc = BumpAllocator(0x5000_0000, 0x3000)
        first = alloc.take(0x1000, "page")
        alloc.release(first)
        assert alloc.take(0x1000, "page") == first + 0x1000
        assert alloc.take(0x1000, "page") == first + 0x2000
        assert alloc.take(0x1000, "page") == first     # the arena is full: first fit

    def test_holes_coalesce(self):
        base = 0x5000_0000
        alloc = BumpAllocator(base, 0x4000)
        a, b, c, d = (alloc.take(0x1000, "page") for _ in range(4))
        alloc.release(a)
        alloc.release(c)
        assert alloc.holes == [(a, a + 0x1000), (c, c + 0x1000)]
        alloc.release(b)
        assert alloc.holes == [(a, c + 0x1000)]
        assert alloc.take(0x3000, "page") == a       # fits only the merged hole
        assert alloc.holes == []
        alloc.release(d)
        alloc.release(a)
        assert alloc.holes == [(base, base + 0x4000)]

    def test_page_allocation_in_a_hole_starts_on_a_page(self):
        base = 0x5000_0000
        alloc = BumpAllocator(base, 0x2000)
        first = alloc.take(0x10, "natural")
        middle = alloc.take(0x20, "natural")
        rest = alloc.take(0x2000 - 0x30, "natural")
        assert (first, middle, rest) == (base, base + 0x10, base + 0x30)
        alloc.release(middle)
        alloc.release(rest)
        assert alloc.holes == [(base + 0x10, base + 0x2000)]
        page = alloc.take(0x100, "page")
        assert page == base + 0x1000
        assert alloc.holes == [(base + 0x10, base + 0x1000)]   # the tail page is reserved
        assert alloc.take(0x10, "natural") == base + 0x10
        with pytest.raises(SimulationError):
            alloc.take(0x1000, "natural")

    def test_a_page_pool_returns_its_rounded_tail(self):
        base = 0x5000_0000
        alloc = BumpAllocator(base, 0x2000)
        small = alloc.take(0x100, "page")
        alloc.take(0x1000, "page")
        alloc.release(small)
        assert alloc.holes == [(base, base + 0x1000)]
        assert alloc.take(0x1000, "natural") == base

    def test_release_of_an_unknown_base_is_rejected(self):
        alloc = BumpAllocator(0x5000_0000, 0x2000)
        live = alloc.take(0x40, "natural")
        with pytest.raises(SimulationError):
            alloc.release(live + 0x10)
        alloc.release(live)
        with pytest.raises(SimulationError):
            alloc.release(live)

    def test_free_and_unload_return_the_pools(self):
        """Free returns one pool's extent and unload every live pool of the
        driver, so the space is reused once the arena is full."""
        sim = Simulation("multi-ept")
        sim.allocator = BumpAllocator(POOL_ARENA[0], 0x3000)
        for event in (
            LoadDriver("A", IMAGE_SLOTS[0]),
            Alloc("A", 0x100, "page"),
            Alloc("A", 0x100, "page"),
            Alloc("os_kernel", 0x1000, "page"),
            Free("A", 0),
        ):
            sim.step(event)
        assert sim.allocator.holes == [(POOL_ARENA[0], POOL_ARENA[0] + 0x1000)]
        sim.step(UnloadDriver("A"))
        assert sim.allocator.holes == [(POOL_ARENA[0], POOL_ARENA[0] + 0x2000)]
        sim.step(LoadDriver("B", IMAGE_SLOTS[1]))
        sim.step(Alloc("B", 0x2000, "page"))
        assert sim.pools["B"][0].base == POOL_ARENA[0]
        assert OracleChecker().verify(sim.policy, sim.policy.epts) == []


@pytest.fixture(scope="module")
def demo_report():
    return run_trace(gen_demo1_trace(), "multi-ept")


class TestDemoScenario:
    @pytest.fixture
    def report(self, demo_report):
        return demo_report

    def test_exactly_four_redirects(self, report):
        assert report.counters["redirects"] == 4

    def test_every_cross_access_redirected(self, report):
        for record in report.log:
            if record.get("expect") == "illegal":
                assert record["decision"] == "redirect_to_fake", record
            elif record.get("expect") == "legal":
                assert record["decision"] != "redirect_to_fake", record

    def test_stolen_reads_see_zeros(self, report):
        reads = [r for r in report.log
                 if r["access"] == "read" and r.get("expect") == "illegal"]
        assert reads and all(r["data"] == "00000000" for r in reads)

    def test_own_reads_see_real_bytes(self, report):
        own = [r for r in report.log
               if r["access"] == "read" and r.get("expect") == "legal"]
        # each driver reads back exactly the dword it wrote
        assert [r["data"] for r in own] == ["11223344", "55667788", "11223344"]


def test_same_trace_same_bytes():
    events = gen_random_trace(7, length=150)
    first = run_trace(events, "multi-ept").to_json()
    second = run_trace(events, "multi-ept").to_json()
    assert first == second


def test_generator_is_seed_deterministic():
    assert serialize_trace(gen_random_trace(3)) == serialize_trace(gen_random_trace(3))
    assert serialize_trace(gen_random_trace(3)) != serialize_trace(gen_random_trace(4))


@pytest.mark.parametrize("seed", range(6))
def test_long_random_traces_replay_clean(seed):
    """Past 26 driver loads the names go on (A1, B1, ...); every mode replays
    the trace, and multi-ept stays oracle- and verifier-clean throughout."""
    events = gen_random_trace(seed, length=2000)
    assert len(events) == 2000
    assert "A1" in {e.name for e in events if isinstance(e, LoadDriver)}
    checker = OracleChecker()
    mismatches = []

    def audit(sim, index, event):
        mismatches.extend(checker.verify(sim.policy, sim.policy.epts))

    run_trace(events, "off")
    run_trace(events, "single-ept")
    report = run_trace(events, "multi-ept", after_event=audit)
    assert mismatches == []
    assert verify_run(events, report).ok


def test_a_trace_past_the_arena_reuses_freed_pools():
    """50,000 events allocate more than the 16 MiB pool arena holds: the pools
    freed on the way are reused, multi-ept verifies clean, and a final
    uncached sweep finds every leaf as the oracle expects."""
    events = gen_random_trace(0, length=50_000)
    sim = Simulation("multi-ept")
    for event in events:
        sim.step(event)
    assert sim.allocator.cursor == sim.allocator.end
    report = sim.report()
    bases = [allocation["base"] for allocation in report.allocations]
    assert len(set(bases)) < len(bases)
    policy = sim.policy
    assert check_against(rebuild(snapshot_from_map(policy)), policy.epts) == []
    assert verify_run(events, report).ok


# Small worlds for the cross-mode property: an opening that loads two
# drivers, creates a process and allocates, then up to 25 events over three
# driver names and a few pids, with regions of at most a few pages and
# references that are often invalid (unknown actors, freed pools, offsets past
# the end, bases on claimed pages, page-crossing payloads).
_OPENING = [
    LoadDriver("A", IMAGE_SLOTS[0]),
    LoadDriver("B", IMAGE_SLOTS[1]),
    CreateProcess(4, ((PROCESS_SLOT_BASE, 0x200),)),
    Alloc("A", 0x100),
    Alloc("B", 0x100),
]
_NAMES = st.sampled_from(["A", "B", "C"])
_ACTORS = st.sampled_from(["A", "A", "B", "B", "C", "os_kernel", "os_kernel", "other_driver_0",
                           "ghost"])
_PIDS = st.sampled_from([4, 4, 5, 6])
_IMAGE_BASES = st.sampled_from([
    IMAGE_SLOTS[0], IMAGE_SLOTS[1], IMAGE_SLOTS[0] + 0x10_0000, IMAGE_SLOTS[0] + 0x1000,
    OS_KERNEL_CODE[0], POOL_ARENA[0] + 0x8000,
])
_REGION = st.tuples(
    st.sampled_from([PROCESS_SLOT_BASE, PROCESS_SLOT_BASE + PROCESS_SLOT_STRIDE,
                     PROCESS_SLOT_BASE + 2 * PROCESS_SLOT_STRIDE, OS_KERNEL_CODE[0],
                     IMAGE_SLOTS[1]]),
    st.sampled_from([0x200, 0x200, 0x1000, 0x1800, 0]),
)
_DST = st.builds(
    DstRef,
    kind=st.sampled_from(["own_pool", "own_pool", "pool_of", "pool_of", "image_of", "eprocess",
                          "os_kernel_code", "os_structures", "other_driver"]),
    driver=st.one_of(_NAMES, st.none()),
    index=st.sampled_from([0, 0, 1, 2]),
    pid=st.one_of(_PIDS, st.none()),
    offset=st.sampled_from([0, 0x10, 0x7c, 0x7c, 0xffc, 0xffe, 0x1ff0, 0x2000]),
)
_ACCESSES = st.builds(
    AccessEvent, actor=_ACTORS, dst=_DST, access=st.sampled_from(["read", "write", "execute"]),
    payload=st.sampled_from([None, None, b"\x01\x02", b"\x07" * 8]),
)
_EVENTS = st.one_of(
    _ACCESSES, _ACCESSES, _ACCESSES,
    st.builds(Schedule, actor=_ACTORS),
    st.builds(Alloc, actor=_ACTORS, size=st.sampled_from([0x10, 0x100, 0x1000, 0x1800, 1, 0]),
              align=st.sampled_from(["natural", "page"])),
    st.builds(Free, actor=_ACTORS, pool=st.sampled_from([0, 0, 1, 2])),
    st.builds(LoadDriver, name=_NAMES, image_base=_IMAGE_BASES,
              image_size=st.sampled_from([IMAGE_SIZE, IMAGE_SIZE, 0x1000, 0x1800, 0])),
    st.builds(UnloadDriver, name=_ACTORS),
    st.builds(CreateProcess, pid=_PIDS,
              regions=st.lists(_REGION, min_size=1, max_size=2).map(tuple)),
    st.builds(ExitProcess, pid=_PIDS),
)
_FREE_BASES = (IMAGE_SLOTS[0], IMAGE_SLOTS[1], IMAGE_SLOTS[0] + 0x10_0000)


@st.composite
def _traces(draw):
    """The opening, then up to 25 events drawn from a rough model of the live
    world, so most are valid, with one in eight drawn from _EVENTS instead."""
    drivers = {"A": IMAGE_SLOTS[0], "B": IMAGE_SLOTS[1]}
    allocs = {"A": 1, "B": 1}                      # allocations made per actor
    pids = [4]
    events = list(_OPENING)
    for _ in range(draw(st.integers(0, 25))):
        actors = sorted(drivers) + ["os_kernel", "other_driver_0"]
        actor = draw(st.sampled_from(actors))
        roll = draw(st.integers(0, 15))
        if roll < 2:
            event = draw(_EVENTS)
        elif roll < 8:
            kind = draw(st.sampled_from(["own_pool", "pool_of", "image_of", "eprocess",
                                         "os_kernel_code", "os_structures", "other_driver"]))
            owner = draw(st.sampled_from(sorted(drivers) or ["A"]))
            dst = DstRef(kind, driver=owner if kind in ("pool_of", "image_of") else None,
                         index=draw(st.integers(0, max(allocs.get(
                             actor if kind == "own_pool" else owner, 1) - 1, 0))),
                         pid=draw(st.sampled_from(pids or [4])) if kind == "eprocess" else None,
                         offset=draw(st.sampled_from([0, 0x10, 0x3c, 0x7c])))
            access = draw(st.sampled_from(["read", "write", "execute"]))
            event = AccessEvent(actor, dst, access,
                                draw(st.sampled_from([None, b"\x01\x02\x03\x04"])))
        elif roll < 9:
            event = Schedule(actor)
        elif roll < 11:
            event = Alloc(actor, draw(st.sampled_from([0x10, 0x80, 0x100, 0x1000, 0x1800])),
                          draw(st.sampled_from(["natural", "page"])))
            allocs[actor] = allocs.get(actor, 0) + 1
        elif roll < 12:
            event = Free(actor, draw(st.integers(0, max(allocs.get(actor, 1) - 1, 0))))
        elif roll < 13:
            free = [base for base in _FREE_BASES if base not in drivers.values()]
            name = draw(st.sampled_from(["A", "B", "C", "D"]))
            if name in drivers or not free:
                event = UnloadDriver(draw(st.sampled_from(sorted(drivers) or ["A"])))
                drivers.pop(event.name, None)
            else:
                event = LoadDriver(name, draw(st.sampled_from(free)))
                drivers[name] = event.image_base
        else:
            pid = draw(st.sampled_from([4, 5, 6]))
            if pid in pids:
                event = ExitProcess(pid)
                pids.remove(pid)
            else:
                slot = draw(st.integers(0, 3))
                event = CreateProcess(pid, ((PROCESS_SLOT_BASE + slot * PROCESS_SLOT_STRIDE, 0x200),))
                pids.append(pid)
        events.append(event)
    return events


def _outcome(events, mode):
    try:
        run_trace(events, mode)
    except SimulationError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_traces())
def test_every_mode_accepts_the_same_traces(events):
    """Each mode completes the trace, or each fails with the same error class
    and message; no other exception escapes."""
    outcomes = {mode: _outcome(events, mode) for mode in ("off", "single-ept", "multi-ept")}
    assert len(set(outcomes.values())) == 1, outcomes


# A executes B's image, which leaves the vcpu in B's context, then reads its own image.
_CALL_THEN_READ = _OPENING + [
    AccessEvent("A", DstRef("image_of", driver="B"), "execute"),
    AccessEvent("A", DstRef("image_of", driver="A"), "read"),
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_traces())
@example(_CALL_THEN_READ)
def test_every_trace_multi_ept_completes_passes_verification(events):
    """Whatever multi-ept accepts, it runs as the shadow replay says: every
    read sees what the legality predicate allows, every digest agrees."""
    try:
        report = run_trace(events, "multi-ept")
    except SimulationError:
        return
    verdict = verify_run(events, report)
    assert verdict.ok, verdict.summary()


_NO_REGIONS = '{"ev": "create_process", "pid": 5, "regions": []}\n'


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(events=_traces(), at=st.none() | st.integers(0, 30))
def test_any_parsed_trace_runs_to_an_exit_code(events, at, tmp_path_factory):
    """memranger run ends every trace it can read with exit 0, 1 or 2 and
    one-line errors, never a traceback, in every mode."""
    path = tmp_path_factory.mktemp("trace") / "events.trace"
    lines = serialize_trace(events).splitlines(keepends=True)
    if at is not None:                  # a line parse_trace refuses, which no event can write
        lines.insert(at, _NO_REGIONS)
    path.write_text("".join(lines))
    for mode in MODES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", str(path), "--mode", mode])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert code != 1 or len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("kwargs", [
    {"length": -3},
    {"length": -1},
    {"attack_probability": 2.0},
    {"attack_probability": -1.0},
    {"attack_probability": float("nan")},
    {"length": 2.5},
    {"length": True},
    {"length": "5"},
], ids=["length-3", "length-1", "p2", "p-1", "pnan", "length2.5", "length-true", "length-str"])
def test_random_trace_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        gen_random_trace(0, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"n_accesses": -1},
    {"quantum": 0},
    {"quantum": -64},
    {"align": "bogus"},
    {"quantum": 2.5},
    {"n_accesses": True},
    {"n_accesses": 10.0},
], ids=["n-1", "quantum0", "quantum-64", "align-bogus", "quantum2.5", "n-true", "n10.0"])
def test_benchmark_trace_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        gen_benchmark_trace(**kwargs)


def test_generators_accept_the_edges():
    assert gen_random_trace(0, length=0) == []
    assert len(gen_random_trace(0, length=5, attack_probability=1.0)) == 5
    assert len(gen_benchmark_trace(n_accesses=0)) == 3
    assert len(gen_benchmark_trace(n_accesses=3, quantum=1)) == 3 + 3 + 2 * 2


def test_valid_generator_arguments_give_the_pinned_bytes():
    """Argument checks must not move a valid trace by one byte: benchmark and
    corpus inputs are identified by these bytes."""
    digest = hashlib.sha256()
    for seed in range(5):
        trace = gen_random_trace(seed, length=300, attack_probability=seed / 4)
        digest.update(serialize_trace(trace).encode())
    for n_accesses, quantum in ((1000, 64), (0, 64), (500, 1), (300, 7)):
        digest.update(serialize_trace(gen_benchmark_trace(n_accesses, quantum=quantum)).encode())
    digest.update(serialize_trace(gen_random_trace(9, length=0)).encode())
    assert digest.hexdigest() == "7604e20f806fcdf2b6437756a891be1fa4c87c6b37b9ada3fc578f2b20b0e6f9"


def test_reports_keep_the_pinned_bytes():
    """Refactors of the replay must not move a report by one byte, in any
    mode: counters, log, allocations, digests and ticks all feed this hash."""
    digest = hashlib.sha256()
    traces = [gen_demo1_trace(), gen_privesc_trace(), gen_benchmark_trace(600)]
    traces += [gen_random_trace(seed, attack_probability=0.6) for seed in range(10)]
    for trace in traces:
        for mode in ("off", "single-ept", "multi-ept"):
            digest.update(run_trace(trace, mode).to_json().encode())
    assert digest.hexdigest() == "9a8747b1187e88a88a8faed5e20ebd66b6f6fa0f43424944a9e026fc35232f7e"


# The keys of a logged access's dict form, as reports have always printed it.
RECORD_KEYS = {"seq", "event", "expect", "actor", "src", "dst", "access", "ept_before",
               "ept_after", "decision", "trapped", "traps", "switches", "redirected",
               "granted", "data"}


def test_every_reading_of_a_record_gives_its_dict_form():
    """A log record is compact, but record[key], record.get(key) and
    dict(record) read exactly what as_dict() renders, and as_dict() has the
    keys a report has always had."""
    traces = [gen_demo1_trace(), gen_privesc_trace()]
    traces += [gen_random_trace(seed) for seed in range(20)]
    for trace in traces:
        for mode in MODES:
            for record in run_trace(trace, mode).log:
                rendered = record.as_dict()
                assert set(rendered) == RECORD_KEYS
                for key in RECORD_KEYS:
                    assert record[key] == rendered[key], (key, record)
                    assert record.get(key) == rendered[key], (key, record)
                assert dict(record) == rendered
                assert (rendered["src"], rendered["dst"]) == (f"{record.src:#x}", f"{record.dst:#x}")
                assert rendered["data"] == (None if record.data is None else record.data.hex())


def _kernel_code_writes():
    """The kernel and a driver both write kernel code; mode off lets both land."""
    return [
        LoadDriver("A", IMAGE_SLOTS[0]),
        Alloc("A", 0x2000, "page"),
        Schedule("os_kernel"),
        AccessEvent("os_kernel", DstRef("os_kernel_code", offset=0x1ff0), "write",
                    payload=b"\x01\x02\x03\x04"),
        Schedule("A"),
        AccessEvent("A", DstRef("os_kernel_code", offset=0x3000), "write",
                    payload=b"\x05\x06\x07\x08"),
    ]


def _fresh_digests(sim) -> dict[str, str]:
    """Every region's sha256, recomputed from a plain readout of the store."""
    def sha(*ranges):
        digest = hashlib.sha256()
        for base, size in ranges:
            digest.update(sim.store.read_gpa_range(base, size))
        return digest.hexdigest()

    out = {"os_kernel_code": sha(OS_KERNEL_CODE), "os_structures": sha(OS_STRUCTURES),
           "other_driver:0": sha(OTHER_DRIVER)}
    for name, info in sim.actors.items():
        if info.kind == "driver":
            image = sim.policy.enclaves[info.enclave_id]
            out[f"image:{name}"] = sha((image.image_base, image.image_size))
    for name, pools in sim.pools.items():
        for ordinal, pool in pools.items():
            out[f"pool:{name}:{ordinal}"] = sha((pool.base, pool.size))
    for pid, regions in sim.policy.processes.items():
        out[f"eprocess:{pid}"] = sha(*regions)
    return out


def test_memoised_digests_match_a_fresh_hash():
    """Backstop for the shared-page digest memo: every reported digest equals
    a fresh sha256 over the region's bytes, in every mode, including kernel
    code that a write turned into a private (uncached) page."""
    traces = [gen_demo1_trace(), gen_privesc_trace(), gen_benchmark_trace(600),
              _kernel_code_writes()]
    traces += [gen_random_trace(seed, attack_probability=0.6) for seed in range(20)]
    private_kernel_pages = 0
    for trace in traces:
        for mode in ("off", "single-ept", "multi-ept"):
            sims = []
            report = run_trace(trace, mode, after_event=lambda sim, i, e: sims.append(sim))
            sim = sims[-1]
            assert report.digests == _fresh_digests(sim)
            private_kernel_pages += sum(
                type(sim.store.frames[pfn]) is bytearray
                for pfn in pages_covering(*OS_KERNEL_CODE))
    assert private_kernel_pages >= 2      # both writes landed under mode off
    for pattern in (OS_KERNEL_FILL, OS_STRUCT_FILL, OTHER_DRIVER_FILL, FOREIGN_POOL_FILL,
                    image_fill("A"), SECRET_FILL):
        for phase in range(len(pattern)):
            page = pattern_page(pattern, phase)
            assert type(page) is bytes
            assert page == (pattern * (PAGE_SIZE + 8))[phase:phase + PAGE_SIZE]


def test_attack_probability_extremes():
    calm = run_trace(gen_random_trace(5, length=120, attack_probability=0.0), "multi-ept")
    assert calm.counters["redirects"] == 0
    hostile = run_trace(gen_random_trace(5, length=120, attack_probability=1.0), "multi-ept")
    labeled = [r for r in hostile.log if r.get("expect") == "illegal"]
    assert labeled
    assert all(r["decision"] == "redirect_to_fake" for r in labeled)


def test_off_mode_never_traps():
    report = run_trace(gen_privesc_trace(), "off")
    assert report.counters["ept_violations"] == 0
    assert report.counters["redirects"] == 0
    assert report.counters["ept_switches"] == 0


def test_off_mode_lets_the_overwrite_through():
    report = run_trace(gen_privesc_trace(), "off")
    writes = [r for r in report.log if r["access"] == "write"]
    reads = [r for r in report.log if r["access"] == "read"]
    assert writes[0].get("expect") == "illegal"
    # second read observes the clobbered token
    assert reads[0]["data"] == SECRET_FILL.hex()
    assert reads[1]["data"] == "00000000"


def test_multi_mode_blocks_the_overwrite():
    report = run_trace(gen_privesc_trace(), "multi-ept")
    reads = [r for r in report.log if r["access"] == "read"]
    assert reads[0]["data"] == SECRET_FILL.hex()
    assert reads[1]["data"] == SECRET_FILL.hex()
    writes = [r for r in report.log if r["access"] == "write"]
    assert writes[0]["decision"] == "redirect_to_fake"


def test_single_mode_guards_pools_but_not_images():
    events = [
        LoadDriver("A", IMAGE_SLOTS[0]),
        LoadDriver("B", IMAGE_SLOTS[1]),
        Schedule("A"),
        Alloc("A", 0x100, "page"),
        AccessEvent("B", DstRef("pool_of", driver="A", index=0), "read",
                    expect="illegal"),
        AccessEvent("B", DstRef("image_of", driver="A", offset=0x400), "read",
                    expect="illegal"),
    ]
    report = run_trace(events, "single-ept")
    pool_read, image_read = (r for r in report.log if r["access"] == "read")
    assert pool_read["data"] == "00000000"           # sealed and decoyed
    # a one-context scheme cannot seal code it must keep executable
    assert image_read["data"] != "00000000"


def test_unload_evicts_the_active_context():
    events = [
        LoadDriver("A", IMAGE_SLOTS[0]),
        Schedule("A"),
        Alloc("A", 0x40, "natural"),
        UnloadDriver("A"),
    ]
    report = run_trace(events, "multi-ept")
    assert report.counters["forced_switches"] == 1


def test_double_free_rejected():
    events = [
        LoadDriver("A", IMAGE_SLOTS[0]),
        Schedule("A"),
        Alloc("A", 0x40, "natural"),
        Free("A", 0),
        Free("A", 0),
    ]
    with pytest.raises(SimulationError):
        run_trace(events, "multi-ept")


def test_access_to_freed_pool_rejected():
    events = [
        LoadDriver("A", IMAGE_SLOTS[0]),
        Schedule("A"),
        Alloc("A", 0x40, "natural"),
        Free("A", 0),
        AccessEvent("A", DstRef("own_pool", index=0), "read"),
    ]
    with pytest.raises(SimulationError):
        run_trace(events, "multi-ept")


def test_unknown_mode_rejected():
    with pytest.raises(Exception):
        Simulation("paranoid")


def test_benchmark_trace_shape():
    events = gen_benchmark_trace(n_accesses=200, align="page", quantum=64)
    kinds = [type(e).__name__ for e in events]
    assert kinds.count("AccessEvent") == 200
    # periodic rescheduling forces context churn for the trap-cost story
    assert kinds.count("Schedule") > 2


def test_report_shape():
    report = run_trace(gen_demo1_trace(), "multi-ept")
    payload = json.loads(report.to_json())
    assert payload["schema"] == "ranger-report/1"
    assert payload["mode"] == "multi-ept"
    assert payload["counters"]["accesses"] == len(payload["log"])
    assert set(payload["digests"]) >= {"os_kernel_code", "os_structures"}
    assert payload["modeled_total_ticks"] > 0
