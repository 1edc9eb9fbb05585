#!/usr/bin/env python
"""Run a test selection N times and print how often each test failed.

One green run says little about a timing race; this turns "tier-1
holds" into a measured rate. Each run is a fresh ``pytest -q`` process
(``src/`` on ``PYTHONPATH``, no ``-x``, so one failure hides nothing),
and every test that failed or errored in any run is listed with its
failure count out of N::

    python tools/repeat_tests.py                 # 10 x tests/cluster tests/net
    python tools/repeat_tests.py -n 20 tests/net/test_server.py

Exit status is 0 when every run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("tests/cluster", "tests/net")


def run_once(paths: list[str]) -> tuple[int, list[str]]:
    """One pytest run; (exit code, ids of failed/errored tests)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *paths],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"<pytest exit {proc.returncode}>"]
    return proc.returncode, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=10)
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS))
    args = parser.parse_args(argv)

    failures: collections.Counter[str] = collections.Counter()
    red_runs = 0
    for i in range(1, args.runs + 1):
        start = time.monotonic()
        code, failed = run_once(args.paths)
        red_runs += code != 0
        failures.update(set(failed))
        print(
            f"run {i}/{args.runs}: exit {code}, {len(failed)} failed, "
            f"{time.monotonic() - start:.1f} s",
            flush=True,
        )

    print(f"\n{args.runs - red_runs}/{args.runs} runs green over "
          f"{' '.join(args.paths)}")
    if failures:
        print(f"\n{'failures':>8}  test")
        for test_id, count in failures.most_common():
            print(f"{count:>4}/{args.runs:<3}  {test_id}")
    return 1 if red_runs else 0


if __name__ == "__main__":
    sys.exit(main())
