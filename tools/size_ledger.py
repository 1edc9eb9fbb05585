#!/usr/bin/env python
"""Print lines and public names per ``src/repro`` package.

Growth should be a reviewed number: the committed output
(``tools/size_ledger.txt``) changes in the same diff as the code, so a
PR that adds a package, a module or an exported name shows it here.

* **lines** — physical lines of every ``*.py`` file under the package;
* **public** — names in the package root's ``__all__`` (the plane's
  public API; layering rule 2 forbids reaching past it).

::

    python tools/size_ledger.py                  # print
    python tools/size_ledger.py > tools/size_ledger.txt
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for __ in handle)


def public_names(init: Path) -> int:
    """Length of the literal ``__all__`` in ``init`` (0 when absent)."""
    if not init.exists():
        return 0
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(ast.literal_eval(node.value))
    return 0


def ledger() -> list[tuple[str, int, int, int]]:
    """(unit, modules, lines, public names), top-level modules as one unit."""
    rows = []
    for package in sorted(p for p in SRC.iterdir() if (p / "__init__.py").exists()):
        files = sorted(package.rglob("*.py"))
        rows.append((
            f"repro.{package.name}",
            len(files),
            sum(count_lines(f) for f in files),
            public_names(package / "__init__.py"),
        ))
    loose = sorted(SRC.glob("*.py"))
    rows.append((
        "repro (top-level modules)",
        len(loose),
        sum(count_lines(f) for f in loose),
        public_names(SRC / "__init__.py"),
    ))
    return rows


def main() -> int:
    rows = ledger()
    width = max(len(r[0]) for r in rows)
    print(f"{'package':<{width}}  {'modules':>7}  {'lines':>6}  {'public':>6}")
    for name, modules, lines, public in rows:
        print(f"{name:<{width}}  {modules:>7}  {lines:>6}  {public:>6}")
    print(
        f"{'total':<{width}}  {sum(r[1] for r in rows):>7}  "
        f"{sum(r[2] for r in rows):>6}  {sum(r[3] for r in rows):>6}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
