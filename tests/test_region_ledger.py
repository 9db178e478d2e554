"""Every mode checks the region layout through the same ledger, and every
mode rejects the same malformed traces."""

import json
import re

import pytest

from memranger.errors import SimulationError, TraceParseError
from memranger.kernel_sim import (
    AccessEvent,
    Alloc,
    CreateProcess,
    DstRef,
    Free,
    LoadDriver,
    Schedule,
    Simulation,
    event_to_dict,
    parse_trace,
    run_trace,
)
from memranger.report_cli import MODES, _Shadow, main, verify_run


def load(name: str, base: str, size: str = "0x2000") -> dict:
    return {"ev": "load_driver", "name": name, "image_base": base, "image_size": size}


def process(pid: int, *regions) -> dict:
    return {"ev": "create_process", "pid": pid, "regions": [list(r) for r in regions]}


def read(dst: dict) -> dict:
    return {"ev": "access", "actor": "os_kernel", "access": "read", "dst": dst}


def trace_text(events) -> str:
    return "".join(json.dumps(event) + "\n" for event in events)


INVALID = {
    "overlapping-images": [load("A", "0x30000000"), load("B", "0x30001000")],
    "image-over-kernel-code": [load("A", "0x10000000")],
    "process-over-kernel-code": [process(4, ("0x10000000", "0x200"))],
    "duplicate-pid": [process(4, ("0x20002000", "0x200")), process(4, ("0x20003000", "0x200"))],
    "process-over-image": [load("A", "0x30000000"), process(4, ("0x30000000", "0x200"))],
    "zero-size-image": [load("A", "0x30000000", "0x0")],
    "zero-size-process-region": [process(4, ("0x20002000", "0x0"))],
    "image-past-48-bits": [load("A", "0xffffffffff000")],
    "image-over-16-MiB": [load("A", "0x30000000", "0x1000001")],
    "huge-image": [load("A", "0x30000000", "0x7ffffffff000")],
    "huge-process-region": [process(4, ("0x100000000", "0x7fff00000000"))],
    "image-on-the-decoy-page": [load("T", "0xffffffffe000")],
    "process-on-the-decoy-page": [process(4, ("0xfffffffff000", "0x100"))],
    "image_of-offset-at-size": [load("A", "0x30000000"),
                                read({"ref": "image_of", "driver": "A", "offset": "0x2000"})],
    "eprocess-offset-at-size": [process(4, ("0x20002000", "0x200")),
                                read({"ref": "eprocess", "pid": 4, "offset": "0x200"})],
    "os_kernel_code-offset-at-size": [read({"ref": "os_kernel_code", "offset": "0x100000"})],
    "os_structures-offset-at-size": [read({"ref": "os_structures", "offset": "0x10000"})],
    "other_driver-offset-at-size": [read({"ref": "other_driver", "offset": "0x20000"})],
    "pool_of-without-a-driver": [read({"ref": "pool_of"})],
    "image_of-a-kernel-actor": [read({"ref": "image_of", "driver": "os_kernel"})],
}

# The one refusal each target row above must meet.
TARGET_REFUSALS = {
    "image_of-offset-at-size": "offset 0x2000 outside image_of",
    "eprocess-offset-at-size": "offset 0x200 outside eprocess",
    "os_kernel_code-offset-at-size": "offset 0x100000 outside os_kernel_code",
    "os_structures-offset-at-size": "offset 0x10000 outside os_structures",
    "other_driver-offset-at-size": "offset 0x20000 outside other_driver",
    "pool_of-without-a-driver": "pool_of needs a driver name",
    "image_of-a-kernel-actor": "no loaded image for 'os_kernel'",
}


@pytest.mark.parametrize("events", INVALID.values(), ids=INVALID.keys())
def test_invalid_trace_rejected_in_every_mode(events, tmp_path, capsys):
    text = trace_text(events)
    parsed = parse_trace(text)
    for mode in MODES:
        with pytest.raises(SimulationError):
            run_trace(parsed, mode)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    for mode in MODES:
        assert main(["run", str(path), "--mode", mode]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("simulation failed: "), err


@pytest.mark.parametrize("name, message", TARGET_REFUSALS.items(), ids=TARGET_REFUSALS.keys())
def test_an_unresolvable_target_is_refused_by_its_own_rule(name, message):
    events = parse_trace(trace_text(INVALID[name]))
    for mode in MODES:
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            run_trace(events, mode)


BAD_FILES = {
    "huge-image": trace_text(INVALID["huge-image"]).encode(),
    "huge-process-region": trace_text(INVALID["huge-process-region"]).encode(),
    "deep-brackets": b"[" * 100_000 + b"\n",
    "empty-write": trace_text([{"ev": "access", "actor": "os_kernel", "access": "write",
                                "payload": "", "dst": {"ref": "os_structures",
                                                       "offset": "0x10"}}]).encode(),
    "not-utf-8": b'{"ev": "schedule", "actor": "\xff"}\n',
}


@pytest.mark.parametrize("data", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_file_exits_one_with_one_line(data, tmp_path, capsys):
    """run in every mode and compare reject the file with exit 1 and a single
    line on stderr, no traceback."""
    path = tmp_path / "bad.trace"
    path.write_bytes(data)
    for argv in [["run", str(path), "--mode", mode] for mode in MODES] + [["compare", str(path)]]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err


def test_process_regions_may_share_a_page():
    events = parse_trace(trace_text([
        process(4, ("0x20002000", "0x100"), ("0x20002080", "0x100")),
        {"ev": "exit_process", "pid": 4},
        process(8, ("0x20002000", "0x200")),
    ]))
    for mode in MODES:
        assert verify_run(events, run_trace(events, mode)).ok


# Each a builder of an event the codec refuses, and the same event as a line.
UNKNOWN_LABELS = {
    "align-bogus": (lambda: Alloc("os_kernel", 0x100, "bogus"),
                    {"ev": "alloc", "actor": "os_kernel", "size": "0x100", "align": "bogus"}),
    "access-fetch": (lambda: AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "fetch"),
                     {"ev": "access", "actor": "os_kernel", "access": "fetch",
                      "dst": {"ref": "os_structures", "offset": "0x10"}}),
    "expect-bogus": (lambda: AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "read",
                                         expect="bogus"),
                     {"ev": "access", "actor": "os_kernel", "access": "read", "expect": "bogus",
                      "dst": {"ref": "os_structures", "offset": "0x10"}}),
}


@pytest.mark.parametrize("build, line", UNKNOWN_LABELS.values(), ids=UNKNOWN_LABELS.keys())
def test_events_the_codec_rejects_fail_in_every_mode(build, line):
    """An event with an unknown label cannot be built in Python, and its line
    does not parse, so no mode ever meets it."""
    with pytest.raises(TraceParseError):
        build()
    with pytest.raises(TraceParseError):
        parse_trace(json.dumps(line) + "\n")


# Each consumer of a built event, and what it raises for something that is
# not one: a direct caller can pass anything, though no parsed trace holds it
NON_EVENT_REFUSALS = {
    "Simulation.step": (lambda thing: Simulation("multi-ept").step(thing),
                        SimulationError, "unknown event {!r}"),
    "_Shadow.step": (lambda thing: _Shadow([]).step(0, thing), SimulationError,
                     "unknown event {!r}"),
    "event_to_dict": (event_to_dict, TypeError, "not a trace event: {!r}"),
}


@pytest.mark.parametrize("consume, error, message", NON_EVENT_REFUSALS.values(),
                         ids=NON_EVENT_REFUSALS.keys())
def test_a_non_event_is_refused(consume, error, message):
    thing = {"ev": "schedule", "actor": "os_kernel"}    # the line, not the event
    with pytest.raises(error, match=f"^{re.escape(message.format(thing))}$"):
        consume(thing)
    consume(Schedule("os_kernel"))


# Builders of events with a field of the wrong type or value
ILL_TYPED = {
    "alloc-size-str": lambda: Alloc("os_kernel", "0x100"),
    "payload-str": lambda: AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "write",
                                       payload="abcd"),
    "offset-str": lambda: AccessEvent("os_kernel", DstRef("os_structures", offset="0x10"), "read"),
    "image-base-str": lambda: LoadDriver("A", "0x30000000"),
    "free-pool-str": lambda: Free("os_kernel", "0"),
    "access-list": lambda: AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), ["read"]),
    "payload-empty": lambda: AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "write",
                                         payload=b""),
    "regions-empty": lambda: CreateProcess(4, ()),
}
# the field each ILL_TYPED builder gets wrong; the DstRef is refused before the
# AccessEvent exists, so its field is named without the "dst." a line shows
BAD_FIELD = {
    "alloc-size-str": "size", "payload-str": "payload", "offset-str": "offset",
    "image-base-str": "image_base", "free-pool-str": "pool", "access-list": "access",
    "payload-empty": "payload", "regions-empty": "regions",
}


@pytest.mark.parametrize("name", ILL_TYPED)
def test_serialize_refuses_what_parse_refuses(name):
    """An event the parser would refuse cannot be built, so the encoder never
    meets one: building it raises the parser's TraceParseError, naming the
    bad field, with line 0."""
    with pytest.raises(TraceParseError, match=f"field '{BAD_FIELD[name]}' is not") as caught:
        ILL_TYPED[name]()
    assert caught.value.line == 0


def access(kind: str, **extra) -> dict:
    return {"ev": "access", "actor": "os_kernel", "access": kind,
            "dst": {"ref": "os_structures", "offset": "0x10"}, **extra}


# Each ILL_TYPED fault as a trace line holds it, and the key path a parse error
# names; a string such as "0x100" or "abcd" is a good value in a line
ILL_TYPED_LINES = {
    "alloc-size-str": ({"ev": "alloc", "actor": "os_kernel", "size": "zz"}, "size"),
    "payload-str": (access("write", payload="xyz"), "payload"),
    "offset-str": ({**access("read"), "dst": {"ref": "os_structures", "offset": "zz"}},
                   "dst.offset"),
    "image-base-str": (load("A", "zz"), "image_base"),
    "free-pool-str": ({"ev": "free", "actor": "os_kernel", "pool": "zz"}, "pool"),
    "access-list": (access(["read"]), "access"),
    "payload-empty": (access("write", payload=""), "payload"),
    "regions-empty": (process(4), "regions"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ILL_TYPED)
def test_ill_typed_event_fails_before_touching_state(name, mode, tmp_path, capsys):
    """The same fault in a trace line stops memranger run, in every mode,
    before any event is replayed: exit 1 and one line naming the file, the
    line and the field's key path, and no report."""
    line, named = ILL_TYPED_LINES[name]
    path = tmp_path / "bad.trace"
    path.write_text(trace_text([{"ev": "alloc", "actor": "os_kernel", "size": "0x100"}, line]))
    assert main(["run", str(path), "--mode", mode]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:2: field '{named}' is not") and len(err.splitlines()) == 1, err
