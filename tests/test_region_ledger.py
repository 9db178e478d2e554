"""Every mode checks the region layout through the same ledger, and every
mode rejects the same malformed traces."""

import json

import pytest

from memranger.errors import ConfigError, SimulationError, TraceParseError
from memranger.kernel_sim import (
    AccessEvent,
    Alloc,
    CreateProcess,
    DstRef,
    Free,
    LoadDriver,
    Schedule,
    Simulation,
    parse_trace,
    run_trace,
    serialize_trace,
)
from memranger.report_cli import MODES, main, verify_run


def load(name: str, base: str, size: str = "0x2000") -> dict:
    return {"ev": "load_driver", "name": name, "image_base": base, "image_size": size}


def process(pid: int, *regions) -> dict:
    return {"ev": "create_process", "pid": pid, "regions": [list(r) for r in regions]}


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
}


@pytest.mark.parametrize("events", INVALID.values(), ids=INVALID.keys())
def test_invalid_trace_rejected_in_every_mode(events, tmp_path, capsys):
    text = trace_text(events)
    parsed = parse_trace(text)
    for mode in MODES:
        with pytest.raises((ConfigError, SimulationError)):
            run_trace(parsed, mode)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["run", str(path), "--mode", "single-ept"]) == 1
    assert "simulation failed" in capsys.readouterr().err


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


@pytest.mark.parametrize("event", [
    Alloc("os_kernel", 0x100, "bogus"),
    AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "fetch"),
    AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "read", expect="bogus"),
], ids=["align-bogus", "access-fetch", "expect-bogus"])
def test_events_the_codec_rejects_fail_in_every_mode(event):
    """An event built in Python gets no further than the same event read
    from a trace file."""
    with pytest.raises(TraceParseError):
        parse_trace(serialize_trace([event]))
    for mode in MODES:
        with pytest.raises(SimulationError):
            run_trace([event], mode)


ILL_TYPED = {
    "alloc-size-str": Alloc("os_kernel", "0x100"),
    "payload-str": AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "write",
                               payload="abcd"),
    "offset-str": AccessEvent("os_kernel", DstRef("os_structures", offset="0x10"), "read"),
    "image-base-str": LoadDriver("A", "0x30000000"),
    "free-pool-str": Free("os_kernel", "0"),
    "access-list": AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), ["read"]),
    "payload-empty": AccessEvent("os_kernel", DstRef("os_structures", offset=0x10), "write",
                                 payload=b""),
    "regions-empty": CreateProcess(4, ()),
}
# the field each ILL_TYPED event gets wrong, as a parse error names it
BAD_FIELD = {
    "alloc-size-str": "size", "payload-str": "payload", "offset-str": "dst.offset",
    "image-base-str": "image_base", "free-pool-str": "pool", "access-list": "access",
    "payload-empty": "payload", "regions-empty": "regions",
}


@pytest.mark.parametrize("name", ILL_TYPED)
def test_serialize_refuses_what_parse_refuses(name):
    """The encoder writes no line the decoder would reject: it names the
    event's first bad field, and the event's 1-based position as the line."""
    event = ILL_TYPED[name]
    with pytest.raises(TraceParseError, match=f"field '{BAD_FIELD[name]}' is not") as caught:
        serialize_trace([Schedule("os_kernel"), event, event])
    assert caught.value.line == 2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("event", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_ill_typed_event_fails_before_touching_state(event, mode):
    """A field of the wrong type is a SimulationError, not a TypeError from
    deep inside the replay, and the rejected event changes nothing."""
    sim = Simulation(mode)
    sim.step(Alloc("os_kernel", 0x100))

    def state():
        return sim.report().to_json(), sim.event_index, sim.policy.layout_version

    before = state()
    with pytest.raises(SimulationError, match="wrong type or value"):
        sim.step(event)
    assert state() == before
