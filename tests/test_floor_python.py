"""The oldest Python that pyproject.toml admits still runs the simulator.

The suite itself runs on one interpreter; this test finds an installed one of
the floor version (requires-python) and replays the demo, the privilege-
escalation scenario and one random trace in every mode under it, each run
audited by verify_run, and checks that a trace event's construction hook
refuses a bad field there as it does here. It is skipped where no such
interpreter is installed.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from memranger.report_cli import MODES

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))

# Prints the interpreter's version, then per trace a hash of its written
# lines, and per trace and mode the verdict and a hash of the whole report.
REPLAY = """
import hashlib, sys
from memranger import (gen_demo1_trace, gen_privesc_trace, gen_random_trace, run_trace,
                       serialize_trace, verify_run)
from memranger.report_cli import MODES

print(*sys.version_info[:2])
traces = {"demo1": gen_demo1_trace(), "privesc": gen_privesc_trace(),
          "random-3": gen_random_trace(3, length=400)}
for name, events in traces.items():
    print(name, "trace", hashlib.sha256(serialize_trace(events).encode()).hexdigest())
    for mode in MODES:
        report = run_trace(events, mode)
        verdict = verify_run(events, report)
        print(name, mode, verdict.ok, hashlib.sha256(report.to_json().encode()).hexdigest())
"""


def _reported_version(python: str) -> tuple[int, ...] | None:
    try:
        done = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return tuple(map(int, done.stdout.split())) if done.returncode == 0 else None


def _floor_python() -> str | None:
    """A working interpreter of the floor version, or None. pyenv keeps one
    per installed version under $PYENV_ROOT/versions; a pythonX.Y found on
    PATH may be a shim for a version that is not installed, so every
    candidate is run and asked for its version."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    minor = ".".join(map(str, FLOOR))
    candidates = [str(path) for path in sorted(pyenv.glob(f"versions/{minor}.*/bin/python"))]
    on_path = shutil.which(f"python{minor}")
    if on_path is not None:
        candidates.append(on_path)
    return next((python for python in candidates if _reported_version(python) == FLOOR), None)


# Prints the line number and message of each refusal: two events built in
# Python and one trace line.
REFUSALS = """
from memranger import AccessEvent, Alloc, DstRef, TraceParseError, parse_trace

for build in (lambda: Alloc("A", "0x10"),
              lambda: AccessEvent("A", DstRef("own_pool", offset="zz"), "read")):
    try:
        build()
    except TraceParseError as exc:
        print(exc.line, exc)
try:
    parse_trace('{"ev": "access", "actor": "A", "access": "read",'
                ' "dst": {"ref": "own_pool", "offset": "zz"}}')
except TraceParseError as exc:
    print(exc.line, exc)
"""


def _run(python: str, script: str) -> list[str]:
    done = subprocess.run(
        [python, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_floor_python_replays_every_mode_as_this_one_does():
    """Under the floor version every trace is written as the same bytes, every
    run ends, every multi-ept run passes its audit, and every verdict and
    report is byte-for-byte the one this interpreter gives (the weaker modes
    leak by design, the same way under both)."""
    python = _floor_python()
    if python is None:
        pytest.skip(f"no working Python {'.'.join(map(str, FLOOR))} installed")
    floor, here = _run(python, REPLAY), _run(sys.executable, REPLAY)
    assert floor[0] == " ".join(map(str, FLOOR))
    lines = [line.split() for line in floor[1:]]
    assert [tuple(line[:2]) for line in lines] == [
        (name, mode) for name in ("demo1", "privesc", "random-3") for mode in ("trace", *MODES)]
    assert all(line[2] == "True" for line in lines if line[1] == "multi-ept")
    assert floor[1:] == here[1:]


def test_floor_python_refuses_a_bad_field_at_construction():
    """A frozen event's __post_init__ runs under the floor version too: each
    bad event is refused as it is built, naming its field, and the bad line
    names the field's key path."""
    python = _floor_python()
    if python is None:
        pytest.skip(f"no working Python {'.'.join(map(str, FLOOR))} installed")
    assert _run(python, REFUSALS) == _run(sys.executable, REFUSALS) == [
        "0 field 'size' is not a 64-bit integer: '0x10'",
        "0 field 'offset' is not a 64-bit integer: 'zz'",
        "1 field 'dst.offset' is not a 64-bit integer: 'zz'",
    ]
