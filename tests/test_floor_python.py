"""The oldest Python that pyproject.toml admits still runs the simulator.

The suite itself runs on one interpreter; this test finds an installed one of
the floor version (requires-python) and replays the demo, the privilege-
escalation scenario and one random trace in every mode under it, each run
audited by verify_run. It is skipped where no such interpreter is installed.
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

# Prints the interpreter's version, then per trace and mode the verdict and
# a hash of the whole report.
REPLAY = """
import hashlib, sys
from memranger import gen_demo1_trace, gen_privesc_trace, gen_random_trace, run_trace, verify_run
from memranger.report_cli import MODES

print(*sys.version_info[:2])
traces = {"demo1": gen_demo1_trace(), "privesc": gen_privesc_trace(),
          "random-3": gen_random_trace(3, length=400)}
for name, events in traces.items():
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


def _replay(python: str) -> list[str]:
    done = subprocess.run(
        [python, "-c", REPLAY], cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_floor_python_replays_every_mode_as_this_one_does():
    """Under the floor version every run ends, every multi-ept run passes its
    audit, and every verdict and report is byte-for-byte the one this
    interpreter gives (the weaker modes leak by design, the same way under
    both)."""
    python = _floor_python()
    if python is None:
        pytest.skip(f"no working Python {'.'.join(map(str, FLOOR))} installed")
    floor, here = _replay(python), _replay(sys.executable)
    assert floor[0] == " ".join(map(str, FLOOR))
    runs = [line.split() for line in floor[1:]]
    assert [(name, mode) for name, mode, _, _ in runs] == [
        (name, mode) for name in ("demo1", "privesc", "random-3") for mode in MODES]
    assert all(ok == "True" for _, mode, ok, _ in runs if mode == "multi-ept")
    assert floor[1:] == here[1:]
