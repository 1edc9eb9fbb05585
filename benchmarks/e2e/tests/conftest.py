"""Self-tests of the e2e benchmark (not part of the repo's tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(E2E), str(ROOT / "src")]

SMOKE_SCALE = 0.05


@pytest.fixture(scope="session")
def traced_smoke():
    """One traced run of ``mixed``: every op type, writes, spans, probes."""
    import measure

    return measure.run_once("mixed", seed=7, scale=SMOKE_SCALE, trace=True)


@pytest.fixture(scope="session")
def untraced_smoke():
    """One untraced run; a single set-up keeps the self-tests short."""
    import measure

    patch = pytest.MonkeyPatch()
    patch.setattr(measure, "SETUPS_PER_RUN", 1)
    try:
        return measure.run_once("read_hot", seed=7, scale=SMOKE_SCALE, trace=False)
    finally:
        patch.undo()
