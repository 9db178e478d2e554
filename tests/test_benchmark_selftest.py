"""The benchmark harness still runs against this source tree.

perfbench instruments the simulator by module and class attribute names
(kernel_sim.SingleEptPolicy, the MapState hooks, Ept.translate, ...), so a
rename that breaks it fails here instead of silently zeroing a metric.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
