"""Tier-1 guard: every broad ``except`` in ``src/`` states its reason.

A handler that catches ``Exception``, ``BaseException`` or everything (a
bare ``except:``) can hide a bug, so each one carries a one-line
``# noqa: BLE001 - <reason>`` on its ``except`` line saying why it is
safe (re-raised, forwarded to a caller, contained by design, ...).
Narrower handlers need no comment.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BROAD = {"Exception", "BaseException"}
REASON = re.compile(r"#\s*noqa:\s*BLE001\s+-\s+\S")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def unjustified_broad_excepts(root: Path = SRC) -> list[str]:
    """``path:line`` of every broad handler whose line gives no reason."""
    found = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node):
                if not REASON.search(lines[node.lineno - 1]):
                    found.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return found


def test_every_broad_except_states_its_reason():
    assert unjustified_broad_excepts() == []


def test_guard_flags_each_broad_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "try:\n    pass\nexcept Exception:\n    raise\n"
        "try:\n    pass\nexcept (ValueError, BaseException):\n    raise\n"
        "try:\n    pass\nexcept:\n    raise\n"
        "try:\n    pass\nexcept Exception:  # noqa: BLE001 - re-raised\n    raise\n"
        "try:\n    pass\nexcept ValueError:\n    raise\n"
    )
    assert unjustified_broad_excepts(tmp_path) == [
        f"{tmp_path.name}/m.py:3",
        f"{tmp_path.name}/m.py:7",
        f"{tmp_path.name}/m.py:11",
    ]
