"""Cost accounting, independent replay verification, and the command line."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memranger.address_space import OS_STRUCTURES
from memranger.kernel_sim import (
    IMAGE_SIZE,
    PROCESS_REGION_SIZE,
    PROCESS_SLOT_BASE,
    PROCESS_SLOT_STRIDE,
    REPORT_SCHEMA,
    AccessEvent,
    Alloc,
    CostModel,
    CreateProcess,
    DstRef,
    ExitProcess,
    Free,
    LoadDriver,
    Schedule,
    SimConfig,
    Simulation,
    UnloadDriver,
    gen_benchmark_trace,
    gen_demo1_trace,
    gen_privesc_trace,
    gen_random_trace,
    image_fill,
    run_trace,
    serialize_trace,
)
from memranger.report_cli import (
    _MEMO_ENTRIES, COMPARE_SCHEMA, MODES, _Shadow, main, verify_run,
)


class TestCostModel:
    def test_defaults(self):
        cm = CostModel()
        assert cm.base_access == 1
        assert cm.vmexit_cost == 2000
        assert cm.ept_switch_cost == 500
        assert cm.mtf_roundtrip_cost == 4000
        assert cm.page_walk_after_flush == 50

    def test_from_dict_partial_override(self):
        cm = CostModel.from_dict({"vmexit_cost": 7})
        assert cm.vmexit_cost == 7
        assert cm.base_access == 1

    @pytest.mark.parametrize("raw", [
        {"vmexit": 1},                      # unknown name
        {"vmexit_cost": -1},
        {"vmexit_cost": True},
        {"vmexit_cost": 2.5},
    ])
    def test_from_dict_rejects(self, raw):
        with pytest.raises(ValueError):
            CostModel.from_dict(raw)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(asdict(CostModel(vmexit_cost=9))))
        assert CostModel.from_file(path) == CostModel(vmexit_cost=9)

    def test_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            CostModel.from_file(path)


def test_cost_model_prices_each_counter():
    """One price per counter, and the switch an unload forces costs nothing:
    it is counted in ept_switches and again in forced_switches."""
    cost = CostModel(2, 3, 5, 7, 11)
    counters = {"accesses": 10, "ept_violations": 4, "ept_switches": 3,
                "forced_switches": 1, "mtf_windows": 2}
    assert cost.ticks(counters) == 2 * 10 + 3 * 4 + (5 + 11) * (3 - 1) + 7 * 2
    unforced = dict(counters, ept_switches=2, forced_switches=0)
    assert cost.ticks(unforced) == cost.ticks(counters)
    assert CostModel().ticks(dict.fromkeys(counters, 0)) == 0


def _priced_by_record(record, cost: CostModel) -> int:
    """One logged access priced from its own fields, the reference a run's
    total must add up to: a base price, one exit per trap, a switch and its
    flush walk per switch, and one single-step window unless it was allowed."""
    ticks = cost.base_access + cost.vmexit_cost * record.traps
    ticks += (cost.ept_switch_cost + cost.page_walk_after_flush) * record.switches
    if record.decision != "allow":
        ticks += cost.mtf_roundtrip_cost
    return ticks


def test_the_total_priced_from_counters_is_the_sum_over_the_log():
    """Prices apart enough that no term can stand in for another; the random
    traces unload drivers while they run, so a forced switch priced as an
    access's switch would show."""
    cost = CostModel(2, 3, 5, 7, 11)
    config = SimConfig(cost_model=cost)
    traces = [gen_demo1_trace(), gen_privesc_trace(), gen_benchmark_trace(3000)]
    traces += [gen_random_trace(seed, attack_probability=p)
               for seed in range(20) for p in (0.3, 0.6)]
    forced = 0
    for trace in traces:
        for mode in MODES:
            report = run_trace(trace, mode, config)
            log = report.log
            assert report.modeled_total_ticks == sum(_priced_by_record(r, cost) for r in log)
            counters = report.counters
            assert counters["rw_trapped_accesses"] == sum(
                1 for r in log if r.traps and r.access != "execute")
            assert counters["exec_trapped_accesses"] == sum(
                1 for r in log if r.traps and r.access == "execute")
            forced += counters["forced_switches"]
    assert forced > 0


def _shadow_replay(events, allocations) -> tuple[list, dict]:
    """The shadow's expectation of every event (None off the access events)
    and its final digests."""
    shadow = _Shadow(allocations)
    return [shadow.step(index, event) for index, event in enumerate(events)], shadow.digests()


def test_the_engine_and_the_shadow_boot_the_same_machine():
    """A fresh Simulation in every mode and a fresh shadow hold equal frames
    and report the same digests."""
    shadow = _Shadow([])
    for mode in MODES:
        sim = Simulation(mode)
        assert sim.store.frames == shadow.store.frames
        assert sim.digests() == shadow.digests()


class TestVerification:
    def test_clean_multi_run(self):
        events = gen_random_trace(21, length=150)
        report = run_trace(events, "multi-ept")
        verdict = verify_run(events, report)
        assert verdict.ok
        assert verdict.checked_reads == sum(1 for r in report.log if r["access"] == "read")

    def test_off_mode_theft_is_called_out(self):
        events = gen_demo1_trace()
        verdict = verify_run(events, run_trace(events, "off"))
        assert not verdict.ok
        assert verdict.leaks            # cross reads saw real bytes

    def test_off_mode_tampering_is_called_out(self):
        events = gen_privesc_trace()
        verdict = verify_run(events, run_trace(events, "off"))
        assert not verdict.ok
        assert verdict.wrong_data       # the clobbered token read back wrong
        assert verdict.digest_mismatches

    def test_shadow_replay_tracks_legal_writes_only(self):
        events = gen_demo1_trace()
        report = run_trace(events, "multi-ept")
        expectations, digests = _shadow_replay(events, report.allocations)
        assert digests == report.digests
        labels = {e.legal for e in expectations if e is not None}
        assert labels == {True, False}

    def test_mismatch_entries_name_the_bad_read(self):
        """One wrong legal read and one non-zero illegal read planted in a
        copy of demo1's multi-ept log are reported entry for entry."""
        events = gen_demo1_trace()
        report = run_trace(events, "multi-ept")
        log = list(report.log)
        by_seq = {record["seq"]: record for record in log}
        assert (by_seq[4]["event"], by_seq[4]["data"]) == (8, "11223344")       # A reads its pool
        assert (by_seq[5]["event"], by_seq[5]["data"]) == (9, "00000000")       # A reads B's pool
        log[4] = by_seq[4]._replace(data=bytes.fromhex("deadbeef"))
        log[5] = by_seq[5]._replace(data=bytes.fromhex("000000ff"))
        verdict = verify_run(events, replace(report, log=log))
        assert verdict.wrong_data == [{"seq": 4, "event": 8, "actor": "A", "dst": "0x50000000",
                                       "got": "deadbeef", "want": "11223344"}]
        assert verdict.leaks == [{"seq": 5, "event": 9, "actor": "A", "dst": "0x50001000",
                                  "got": "000000ff", "want": "00000000"}]
        summary = verdict.summary()
        del summary["samples"]
        assert summary == {"ok": False, "checked_reads": 5, "leaks": 1, "wrong_data": 1,
                           "digest_mismatches": 0}
        assert verify_run(events, report).ok     # the report itself is untouched

    def test_the_shadow_is_freed_as_soon_as_the_replay_returns(self, monkeypatch):
        """Its memory and expectations go by reference counting alone: a
        shadow held in a reference cycle would stay alive until a gc pass,
        which on a long trace doubles the peak resident size."""
        import memranger.report_cli as rc
        shadows = []

        class Probe(rc._Shadow):
            def __init__(self, allocations):
                super().__init__(allocations)
                shadows.append(weakref.ref(self))

        monkeypatch.setattr(rc, "_Shadow", Probe)
        events = gen_demo1_trace()
        report = run_trace(events, "multi-ept")
        gc.disable()
        try:
            assert verify_run(events, report).ok
            assert shadows and shadows[0]() is None
        finally:
            gc.enable()

    def test_allocation_table_cross_checked(self):
        events = gen_demo1_trace()
        report = run_trace(events, "multi-ept")
        doctored = [dict(a, actor="B" if a["actor"] == "A" else "A")
                    for a in report.allocations]
        with pytest.raises(RuntimeError):
            verify_run(events, replace(report, allocations=doctored))


class TestVerifierGaps:
    """The audit walks the events and the log together: a read the log holds
    but no read event asked for, a read event the log has no read for, and a
    log out of event order all count as wrong data, never as nothing."""

    @pytest.fixture
    def demo(self):
        events = gen_demo1_trace()
        return events, run_trace(events, "multi-ept")

    def _stray(self, report, event: int):
        """A copy of a redirected read, claiming event and the bytes deadbeef."""
        redirected = next(r for r in report.log if r.access == "read" and r.decision != "allow")
        return redirected._replace(seq=len(report.log), event=event,
                                   data=bytes.fromhex("deadbeef"))

    @pytest.mark.parametrize("event, first", [(0, True), (99, False), (0, False)],
                             ids=["non-access-event", "past-the-trace", "out-of-order"])
    def test_a_read_no_event_asked_for(self, demo, event, first):
        events, report = demo
        stray = self._stray(report, event)
        log = [stray] + report.log if first else report.log + [stray]
        verdict = verify_run(events, replace(report, log=log))
        assert not verdict.ok
        assert verdict.wrong_data == [{"seq": stray.seq, "event": event, "actor": stray.actor,
                                       "dst": f"{stray.dst:#x}", "got": "deadbeef",
                                       "want": None}]
        assert verdict.checked_reads == 5 and not verdict.leaks

    def test_a_read_event_the_log_lacks(self, demo):
        events, report = demo
        log = [r for r in report.log if r.seq != 4]        # A's read of its own pool, event 8
        verdict = verify_run(events, replace(report, log=log))
        assert not verdict.ok
        assert verdict.wrong_data == [{"seq": None, "event": 8, "actor": "A",
                                       "dst": "0x50000000", "got": None, "want": "11223344"}]
        assert verdict.checked_reads == 4

    def test_a_log_out_of_event_order(self, demo):
        events, report = demo
        log = list(report.log)
        log[4], log[5] = log[5], log[4]                     # the reads of events 8 and 9
        verdict = verify_run(events, replace(report, log=log))
        assert not verdict.ok
        assert [(e["seq"], e["event"], e["want"]) for e in verdict.wrong_data] == [
            (None, 8, "11223344"),                          # event 8's read is not where it belongs
            (4, 8, None),                                   # and turns up after event 9's
        ]

    @pytest.mark.parametrize("field, value, shown", [
        ("dst", 0x7000_0000, {"dst": "0x70000000"}),
        ("actor", "B", {"actor": "B"}),
    ], ids=["dst", "actor"])
    def test_a_read_by_the_wrong_actor_or_at_the_wrong_address(self, demo, field, value, shown):
        """A's read of its own pool (seq 4, event 8) with the right bytes but
        another address or another actor is wrong data."""
        events, report = demo
        log = list(report.log)
        log[4] = log[4]._replace(**{field: value})
        verdict = verify_run(events, replace(report, log=log))
        assert not verdict.ok
        assert verdict.wrong_data == [{"seq": 4, "event": 8, "actor": "A", "dst": "0x50000000",
                                       "got": "11223344", "want": "11223344", **shown}]
        assert verdict.checked_reads == 5 and not verdict.leaks

    def test_an_execute_record_out_of_order(self, demo):
        events, report = demo
        fetch = report.log[0]                               # A's first dispatch, event 2
        verdict = verify_run(events, replace(report, log=report.log + [fetch]))
        assert not verdict.ok
        assert [(e["seq"], e["event"], e["got"]) for e in verdict.wrong_data] == [(0, 2, None)]


# Bytes a multi-ept replay plus its audit may hold per logged access at their
# peak. A record of raw fields costs about 300 bytes; the dict records and the
# whole-trace expectation table this replaced cost about 980.
PEAK_BYTES_PER_ACCESS = 450


def test_replay_and_audit_memory_per_access():
    events = gen_benchmark_trace(20_000)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = run_trace(events, "multi-ept")
        verdict = verify_run(events, report)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert verdict.ok
    assert peak / len(report.log) < PEAK_BYTES_PER_ACCESS, peak / len(report.log)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("departure", [Free("A", 0), UnloadDriver("A")], ids=["free", "unload"])
def test_a_departed_pool_leaves_the_shadow_view(mode, departure):
    """A's pool leaves, by the given event, before os_kernel allocates the
    next 16 bytes on the same page; driver B then reads the kernel's open
    pool. The shadow's live view must drop the departed pool: a stale entry
    would lock the page to A and call B's read a leak."""
    events = [
        LoadDriver("A", 0x3000_0000),
        LoadDriver("B", 0x3100_0000),
        Alloc("A", 0x10),
        departure,
        Alloc("os_kernel", 0x10),
        AccessEvent("B", DstRef("pool_of", driver="os_kernel"), "read"),
    ]
    report = run_trace(events, mode)
    assert [a["base"] for a in report.allocations] == ["0x50000000", "0x50000010"]
    verdict = verify_run(events, report)
    assert verdict.ok, verdict.summary()
    assert verdict.checked_reads == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("callee", [
    DstRef("other_driver"),
    DstRef("image_of", driver="B"),
    DstRef("pool_of", driver="B"),
], ids=["other-driver", "image-of-B", "pool-of-B"])
def test_a_call_into_another_context_returns_to_the_caller(mode, callee, tmp_path, capsys):
    """A executes code that runs in another context, then reads its own
    pool. The read runs back in A's context and sees A's bytes."""
    events = [
        LoadDriver("A", 0x3000_0000),
        LoadDriver("B", 0x4000_0000),
        Alloc("A", 0x100, "page"),
        Alloc("B", 0x100, "page"),
        AccessEvent("A", callee, "execute"),
        AccessEvent("A", DstRef("own_pool"), "read"),
    ]
    path = tmp_path / "call.trace"
    path.write_text(serialize_trace(events))
    assert main(["run", str(path), "--mode", mode]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("mode", MODES)
def test_a_reloaded_driver_is_one_identity_in_the_shadow(mode):
    """The shadow names enclaves by driver name, so a driver that unloads and
    loads again at another slot must leave nothing of its first life behind:
    one image:A over the new range, and its new pool private to it."""
    events = [
        LoadDriver("A", 0x3000_0000),
        Alloc("A", 0x100, "page"),
        UnloadDriver("A"),
        LoadDriver("B", 0x3100_0000),
        LoadDriver("A", 0x4000_0000),
        Alloc("A", 0x100, "page"),
        AccessEvent("A", DstRef("image_of", driver="A", offset=0x10), "write",
                    payload=b"\x5a\x5a"),
        AccessEvent("A", DstRef("own_pool", index=1), "read"),
        AccessEvent("B", DstRef("pool_of", driver="A", index=1), "read"),
        AccessEvent("os_kernel", DstRef("pool_of", driver="A", index=1), "read"),
    ]
    report = run_trace(events, mode)
    expectations, digests = _shadow_replay(events, report.allocations)
    assert [expectations[i].legal for i in (7, 8, 9)] == [True, False, False]
    assert [label for label in digests if label.startswith("image:")] == ["image:B", "image:A"]
    # A's write changed only its new image, so a digest of the first range
    # would read the pristine fill
    pristine = hashlib.sha256(image_fill("A") * IMAGE_SIZE).hexdigest()
    assert digests["image:A"] == report.digests["image:A"] != pristine
    if mode == "multi-ept":
        verdict = verify_run(events, report)
        assert verdict.ok, verdict.summary()
        assert verdict.checked_reads == 3


def _slot(n: int) -> tuple:
    return ((PROCESS_SLOT_BASE + n * PROCESS_SLOT_STRIDE, PROCESS_REGION_SIZE),)


# Probes: access event objects that each trace below repeats across one
# change to the shadow's state.
_LOADS = [LoadDriver("A", 0x3000_0000), LoadDriver("B", 0x3100_0000)]
_OWN_READ = AccessEvent("A", DstRef("own_pool"), "read")
_KERNEL_POOL_READ = AccessEvent("B", DstRef("pool_of", driver="os_kernel"), "read")
_SLOT_READ = AccessEvent("os_kernel", DstRef("os_structures",
                                             offset=PROCESS_SLOT_BASE - OS_STRUCTURES[0]), "read")
_RECORD_READ = AccessEvent("os_kernel", DstRef("eprocess", pid=4), "read")


@pytest.mark.parametrize("events, probe, field, reported", [
    pytest.param([*_LOADS, Alloc("A", 0x10), _OWN_READ,
                  AccessEvent("A", DstRef("own_pool"), "write", payload=b"\x5a" * 4), _OWN_READ],
                 _OWN_READ, "data", "wrong_data", id="legal-write"),
    # A's pool joins the kernel's page, so B's read of the kernel's bytes turns illegal
    pytest.param([*_LOADS, Alloc("os_kernel", 0x10), _KERNEL_POOL_READ, Alloc("A", 0x10),
                  _KERNEL_POOL_READ],
                 _KERNEL_POOL_READ, "data", "leaks", id="alloc"),
    # and back: A's pool leaves the page to the kernel's alone
    *(pytest.param([*_LOADS, Alloc("os_kernel", 0x10), Alloc("A", 0x10), _KERNEL_POOL_READ,
                    departure, _KERNEL_POOL_READ],
                   _KERNEL_POOL_READ, "data", "wrong_data", id=name)
      for name, departure in (("free", Free("A", 0)), ("unload", UnloadDriver("A")))),
    # the kernel reads a process slot before and after it holds a record
    pytest.param([_SLOT_READ, CreateProcess(4, _slot(0)), _SLOT_READ],
                 _SLOT_READ, "data", "wrong_data", id="process-create"),
    # An exit alone changes no expectation of an event that still resolves:
    # pid 4 returns at another slot, so the same event reads another address.
    pytest.param([CreateProcess(4, _slot(0)), _RECORD_READ, ExitProcess(4),
                  CreateProcess(4, _slot(1)), _RECORD_READ],
                 _RECORD_READ, "dst", "wrong_data", id="process-exit"),
])
def test_a_repeated_event_is_audited_afresh_after_a_state_change(events, probe, field, reported):
    """The probe's record after the change is doctored to carry the field the
    probe's earlier record logged: the stale bytes, legality or address. An
    expectation reused across the change would pass it; the audit reports
    it, by its own seq."""
    report = run_trace(events, "multi-ept")
    assert verify_run(events, report).ok
    first, last = (next(r for r in report.log if r.event == i and r.access == "read")
                   for i, event in enumerate(events) if event is probe)
    assert getattr(first, field) != getattr(last, field)
    log = list(report.log)
    log[last.seq] = last._replace(**{field: getattr(first, field)})
    verdict = verify_run(events, replace(report, log=log))
    assert not verdict.ok
    entries = getattr(verdict, reported)
    assert [(e["seq"], e["event"]) for e in entries] == [(last.seq, last.event)]
    assert len(verdict.leaks) + len(verdict.wrong_data) == 1 and not verdict.digest_mismatches


class _PeakMemo(dict):
    """A memo that keeps the most entries it ever held."""
    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class _NoMemo(dict):
    """A memo that keeps nothing, so the audit steps the shadow through every event."""

    def __setitem__(self, key, value):
        pass


def _audit(events, report, memo_type) -> tuple:
    """verify_run's result with the shadow's memo replaced by a memo_type,
    and the shadow, which counts the events it stepped."""
    shadows = []

    class Probe(_Shadow):
        def __init__(self, allocations):
            super().__init__(allocations)
            self.memo = memo_type()
            self.steps = 0
            shadows.append(self)

        def step(self, index, event):
            self.steps += 1
            return super().step(index, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("memranger.report_cli._Shadow", Probe)
        verdict = verify_run(events, report)
    return verdict, shadows[0]


def _doctored(report):
    """The report with every fifth read record reading 0badf00d."""
    reads = [r.seq for r in report.log if r.access == "read"][::5]
    log = list(report.log)
    for seq in reads:
        log[seq] = log[seq]._replace(data=bytes.fromhex("0badf00d"))
    return replace(report, log=log)


def _assert_exact_and_bounded(events, report) -> _Shadow:
    """The memoised audit gives the very VerifyResult of one that steps every
    event, on the report and on a doctored copy, and its memo never holds
    more than the bound; returns the memoised audit's shadow."""
    for audited in (report, _doctored(report)):
        verdict, shadow = _audit(events, audited, _PeakMemo)
        reference, stepped = _audit(events, audited, _NoMemo)
        assert stepped.steps == len(events)
        assert verdict == reference
        assert shadow.memo.peak <= _MEMO_ENTRIES
    return shadow


@pytest.mark.parametrize("attack_probability", [0.3, 0.6])
@pytest.mark.parametrize("mode", MODES)
def test_the_memoised_audit_matches_one_that_steps_every_event(mode, attack_probability):
    for seed in range(20):
        events = gen_random_trace(seed, attack_probability=attack_probability)
        _assert_exact_and_bounded(events, run_trace(events, mode))


def test_a_repetition_is_reused_and_still_checked():
    """In gen_benchmark_trace(3000) every read after the first 1,024 repeats
    an event object with nothing changed since, so the shadow steps it no
    more; a tampered 500th repetition is still reported by its seq."""
    events = gen_benchmark_trace(3000)
    report = run_trace(events, "multi-ept")
    shadow = _assert_exact_and_bounded(events, report)
    assert shadow.steps == len(events) - (3000 - 1024)
    assert shadow.memo.peak == 1024
    seen, repeats = set(), []
    for record in report.log:
        if record.access == "read":
            event = events[record.event]
            if event in seen:
                repeats.append(record)
            seen.add(event)
    tampered = repeats[499]._replace(data=bytes.fromhex("0badf00d"))
    log = list(report.log)
    log[tampered.seq] = tampered
    verdict = verify_run(events, replace(report, log=log))
    assert [e["seq"] for e in verdict.wrong_data] == [tampered.seq]
    assert verdict.checked_reads == 3000 and not verdict.leaks


@pytest.mark.parametrize("mode", MODES)
def test_the_memo_stays_within_its_bound(mode):
    """More distinct reads than the bound, read twice over between layout
    events: the memo is emptied when full and the audit stays exact."""
    distinct = _MEMO_ENTRIES + 100
    reads = [AccessEvent("X", DstRef("own_pool", offset=4 * slot), "read")
             for slot in range(distinct)]
    events = [LoadDriver("X", 0x3000_0000), Schedule("X"), Alloc("X", 4 * distinct, "page"),
              *reads, *reads]
    assert _assert_exact_and_bounded(events, run_trace(events, mode)).memo.peak == _MEMO_ENTRIES


class TestCli:
    @pytest.fixture
    def demo(self, tmp_path):
        path = tmp_path / "demo.trace"
        assert main(["gen", "demo1", "-o", str(path)]) == 0
        return str(path)

    def test_run_clean_trace_exits_zero(self, demo, capsys):
        assert main(["run", demo, "--mode", "multi-ept"]) == 0
        out = capsys.readouterr().out
        assert "verification: ok" in out
        assert "redirects: 4" in out

    def test_run_json_report(self, demo, capsys):
        capsys.readouterr()
        assert main(["run", demo, "--mode", "multi-ept", "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["verification"]["ok"] is True

    def test_violated_run_exits_two(self, tmp_path, capsys):
        path = tmp_path / "privesc.trace"
        main(["gen", "privesc", "-o", str(path)])
        assert main(["run", str(path), "--mode", "off"]) == 2
        assert "VIOLATION" in capsys.readouterr().out
        assert main(["run", str(path), "--mode", "multi-ept"]) == 0

    def test_missing_trace_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.trace")]) == 1

    def test_malformed_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text('{"ev": "schedule", "actor": "A"}\nnot json\n')
        assert main(["run", str(path)]) == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("dst", [
        {"ref": "pool_of", "driver": ["A"], "index": 0},
        {"ref": "eprocess", "pid": [4]},
    ], ids=["driver-list", "pid-list"])
    def test_ill_typed_target_exits_one(self, tmp_path, capsys, dst):
        path = tmp_path / "bad.trace"
        access = {"ev": "access", "actor": "os_kernel", "dst": dst, "access": "read"}
        path.write_text('{"ev": "schedule", "actor": "os_kernel"}\n' + json.dumps(access) + "\n")
        assert main(["run", str(path)]) == 1
        assert f"{path}:2: " in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli_quietly(self, demo):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "memranger", "run", demo, "--mode", "multi-ept"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "verification: ok" in done.stdout

    @pytest.mark.parametrize("text", ['{"vmexit": 3}', "[" * 100_000 + "]" * 100_000],
                             ids=["unknown-field", "deep-brackets"])
    def test_bad_cost_model_exits_one(self, demo, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        capsys.readouterr()
        assert main(["run", demo, "--cost-model", str(model)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err

    def test_cost_model_changes_the_bill(self, demo, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"vmexit_cost": 0, "ept_switch_cost": 0,
                                     "mtf_roundtrip_cost": 0, "page_walk_after_flush": 0}))
        capsys.readouterr()
        assert main(["run", demo, "--report", "json", "--cost-model", str(model)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # with every premium zeroed the bill collapses to one tick per access
        assert payload["modeled_total_ticks"] == payload["counters"]["accesses"]

    def test_compare_orders_the_modes(self, tmp_path, capsys):
        path = tmp_path / "bench.trace"
        assert main(["gen", "bench", "--n", "600", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ORDERING VERDICT: PASS" in out

    def test_compare_json_schema(self, tmp_path, capsys):
        path = tmp_path / "bench.trace"
        main(["gen", "bench", "--n", "600", "-o", str(path)])
        capsys.readouterr()
        assert main(["compare", str(path), "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == COMPARE_SCHEMA
        assert payload["verdict"]["ordering"] == "PASS"
        ticks = {m: payload["modes"][m]["modeled_total_ticks"] for m in payload["modes"]}
        assert ticks["off"] < ticks["multi-ept"] < ticks["single-ept"]

    def test_compare_fails_when_the_ordering_breaks(self, demo, tmp_path, capsys):
        """Under an all-zero cost model every mode costs 0 ticks, so neither
        strict inequality holds: compare says FAIL in both reports and exits 2."""
        model = tmp_path / "zero.json"
        model.write_text(json.dumps(dict.fromkeys(asdict(CostModel()), 0)))
        capsys.readouterr()
        assert main(["compare", demo, "--cost-model", str(model)]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "ORDERING VERDICT: FAIL (off=0 >= multi-ept=0; multi-ept=0 >= single-ept=0)")
        assert main(["compare", demo, "--cost-model", str(model), "--report", "json"]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"]["ordering"] == "FAIL"

    def test_compare_with_a_missing_cost_model_exits_one(self, demo, tmp_path, capsys):
        capsys.readouterr()
        assert main(["compare", demo, "--cost-model", str(tmp_path / "nope.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err

    def test_gen_into_a_missing_directory_exits_one(self, tmp_path, capsys):
        out_path = tmp_path / "nope" / "x.trace"
        assert main(["gen", "demo1", "-o", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith(f"{out_path}: ")

    def test_gen_seed_env_override(self, tmp_path, monkeypatch, capsys):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        third = tmp_path / "c.trace"
        main(["gen", "random", "--seed", "41", "-o", str(first)])
        monkeypatch.setenv("RANGER_SEED", "41")
        main(["gen", "random", "--seed", "7", "-o", str(second)])
        monkeypatch.setenv("RANGER_SEED", "0x29")     # also 41; both int forms work
        main(["gen", "random", "--seed", "7", "-o", str(third)])
        assert first.read_text() == second.read_text() == third.read_text()

    @pytest.mark.parametrize("argv", [
        ["random", "--n", "-3"],
        ["random", "--attack-probability", "2"],
        ["random", "--attack-probability", "-1"],
        ["random", "--attack-probability", "nan"],
        ["bench", "--n", "-1"],
    ], ids=["random-n-3", "p2", "p-1", "pnan", "bench-n-1"])
    def test_gen_bad_arguments_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "x.trace"
        assert main(["gen", *argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"gen {argv[0]}: ")
        assert not out.exists()

    def test_gen_seed_env_must_be_an_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANGER_SEED", "lucky")
        assert main(["gen", "random", "-o", str(tmp_path / "x.trace")]) == 1

    def test_page_aligned_flag_recorded(self, tmp_path, capsys):
        path = tmp_path / "r.trace"
        main(["gen", "random", "--seed", "2", "--n", "60", "-o", str(path)])
        capsys.readouterr()
        assert main(["run", str(path), "--page-aligned", "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["force_page_aligned"] is True


def test_cli_output_keeps_the_pinned_bytes(tmp_path, capsys):
    """run (each mode) and compare print the same bytes and exit with the same
    code under a cost model with no default price, in text and JSON, with and
    without --page-aligned: the report's figures are priced where the engine
    reports, and the CLI only prints them."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"base_access": 3, "vmexit_cost": 1700, "ept_switch_cost": 611,
                                 "mtf_roundtrip_cost": 2900, "page_walk_after_flush": 77}))
    digest = hashlib.sha256()
    for kind in (["demo1"], ["privesc"], ["bench", "--n", "600"]):
        path = str(tmp_path / f"{kind[0]}.trace")
        assert main(["gen", *kind, "-o", path]) == 0
        capsys.readouterr()
        for command in [["run", path, "--mode", mode] for mode in MODES] + [["compare", path]]:
            for report in ("text", "json"):
                for aligned in ([], ["--page-aligned"]):
                    code = main([*command, "--report", report, *aligned,
                                 "--cost-model", str(model)])
                    digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "2728be634268c32592ff09a618e535872649574c6fc8dfeb956443cc070c87ff"


@settings(max_examples=50, deadline=None)
@given(st.binary())
def test_any_file_runs_or_exits_with_a_code(data):
    """Whatever bytes a trace file holds, run ends in exit 0, 1 or 2, never
    in an exception."""
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        assert main(["run", path]) in (0, 1, 2)
    finally:
        os.unlink(path)
