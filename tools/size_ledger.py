#!/usr/bin/env python
"""Print lines and public names per ``src/repro`` package.

Growth should be a reviewed number: the committed output
(``tools/size_ledger.txt``) changes in the same diff as the code, so a
PR that adds a package, a module or an exported name shows it here.

* **lines** — physical lines of every ``*.py`` file under the package;
* **public** — names in the package root's ``__all__`` (the plane's
  public API; layering rule 2 forbids reaching past it);
* **test_only** — public top-level functions and classes of the package
  that no other ``src`` module, benchmark, example or tool uses: only
  their own module and the tests keep them alive (a public helper its
  own module uses counts — it could be private). "Uses" is an AST scan
  for the name as a loaded identifier or an attribute; imports and
  ``__all__`` entries do not count, and a name shared with another def
  hides both, so the column is a lower bound. A def named inside a
  module-level binding counts as used when its module reads that binding
  outside its own assignment: a registry such as
  ``CODEC_KINDS = {"int8": Int8Codec}`` looked up by key reaches its
  values without naming them.

After the table, one ``repro.<package>.<module>:<name>`` line per
test-only def names what the column counts, so a new one shows up by
name in review.

::

    python tools/size_ledger.py                  # print
    python tools/size_ledger.py > tools/size_ledger.txt
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: trees whose code keeps a ``src`` def alive besides ``src`` itself
USERS = ("benchmarks", "examples", "tools")


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


def public_defs(tree: ast.Module) -> list[str]:
    """Names of the module's public top-level functions and classes."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def used_names(tree: ast.Module) -> set[str]:
    """Identifiers the module loads or reaches as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def registry_names(tree: ast.Module) -> set[str]:
    """Identifiers loaded inside a module-level binding that the module
    reads outside its own assignment (a registry it looks up by key)."""

    def loads(node: ast.AST) -> Counter:
        return Counter(
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )

    everywhere = loads(tree)
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        own = loads(stmt)
        if any(
            isinstance(t, ast.Name) and everywhere[t.id] > own[t.id]
            for t in targets
        ):
            names.update(loads(stmt.value))
    return names


def module_name(path: Path) -> str:
    """Dotted import name of a ``src/repro`` file."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def ledger() -> tuple[list[tuple[str, int, int, int, int]], list[str]]:
    """Rows of (unit, modules, lines, public names, test-only defs) per
    package, plus the ``module:name`` of every test-only def.

    Top-level modules are one unit.
    """
    trees = {
        path: ast.parse(path.read_text())
        for path in [
            *SRC.rglob("*.py"),
            *(f for tree in USERS for f in (ROOT / tree).rglob("*.py")),
        ]
    }
    uses = {path: used_names(tree) for path, tree in trees.items()}

    unused: list[str] = []

    def test_only(files: list[Path]) -> int:
        registered = {path: registry_names(trees[path]) for path in files}
        found = [
            f"{module_name(path)}:{name}"
            for path in files
            for name in public_defs(trees[path])
            if name not in registered[path]
            and not any(name in names for other, names in uses.items() if other != path)
        ]
        unused.extend(found)
        return len(found)

    rows = []
    for package in sorted(p for p in SRC.iterdir() if (p / "__init__.py").exists()):
        files = sorted(package.rglob("*.py"))
        rows.append((
            f"repro.{package.name}",
            len(files),
            sum(count_lines(f) for f in files),
            public_names(package / "__init__.py"),
            test_only(files),
        ))
    loose = sorted(SRC.glob("*.py"))
    rows.append((
        "repro (top-level modules)",
        len(loose),
        sum(count_lines(f) for f in loose),
        public_names(SRC / "__init__.py"),
        test_only(loose),
    ))
    return rows, unused


def main() -> int:
    rows, test_only_defs = ledger()
    width = max(len(r[0]) for r in rows)
    print(
        f"{'package':<{width}}  {'modules':>7}  {'lines':>6}  {'public':>6}  "
        f"{'test_only':>9}"
    )
    for name, modules, lines, public, unused in rows:
        print(
            f"{name:<{width}}  {modules:>7}  {lines:>6}  {public:>6}  "
            f"{unused:>9}"
        )
    print(
        f"{'total':<{width}}  {sum(r[1] for r in rows):>7}  "
        f"{sum(r[2] for r in rows):>6}  {sum(r[3] for r in rows):>6}  "
        f"{sum(r[4] for r in rows):>9}"
    )
    print()
    print("test-only public defs:")
    for name in test_only_defs:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
