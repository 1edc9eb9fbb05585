"""Tier-1 pin for the committed size ledger (tools/size_ledger.txt).

The ledger is meant to be a reviewed number that changes in the same
diff as the code. Comparing the committed file with a fresh run of
``tools/size_ledger.py`` makes a stale ledger fail here instead of
drifting silently.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_committed_ledger_matches_tool_output():
    fresh = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "size_ledger.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    committed = (REPO_ROOT / "tools" / "size_ledger.txt").read_text()
    assert fresh == committed, (
        "tools/size_ledger.txt is stale; regenerate it with "
        "`python tools/size_ledger.py > tools/size_ledger.txt`"
    )
