"""A 10,000-event slice of the long-trace soak (scripts/soak.py): the trace
survives the codec round trip, the oracle after every event, a final uncached
sweep and the shadow verifier are all clean, no context holds an own leaf
on a page the live facts do not claim, the engine keeps a pool record for
exactly the ledger's live pools, and the ledger's claims map matches its
facts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_soak_slice_runs_clean():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "soak.py"), "--length", "10000"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "round trip equal" in done.stdout
    assert "oracle mismatches 0, final sweep 0, stray own leaves 0" in done.stdout
    assert "stray pool records 0," in done.stdout
    assert "stray claims 0," in done.stdout
    assert done.stdout.rstrip().endswith("PASS")
