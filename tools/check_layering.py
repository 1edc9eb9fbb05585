#!/usr/bin/env python
"""Import-DAG lint: enforce the runtime-kernel layering rules.

The unified runtime refactor gave the repo an explicit layer diagram
(see DESIGN.md, "The runtime kernel"):

    errors / clock                 (foundation)
    codec | runtime                (compression kernels; lifecycle, telemetry)
    storage / index / ...          (domain substrate)
    compiler                       (feature definitions, on storage)
    core                           (the stores, on the compiler)
    serving | bus | vecserve | streaming | monitoring   (the planes)
    net | cluster                  (the top of the DAG, mutually independent)

Eight rules keep it a DAG:

1. **The runtime imports nothing above it.** Modules under
   ``repro.runtime`` may import only the stdlib, numpy, ``repro.errors``,
   ``repro.clock`` and other ``repro.runtime`` modules. The kernel must
   be loadable by any plane without dragging a plane in.
2. **Planes never import each other's internals.** A module in plane A
   may import plane B only through its package root
   (``from repro.bus import Sink``), never a submodule
   (``from repro.bus.sinks import Sink``) — the package root *is* the
   plane's public API. (This is the rule that forbids the old
   ``repro.vecserve → repro.serving.faults`` upward import; the shared
   machinery lives in ``repro.runtime.resilience`` now.)
3. **The codec plane imports nothing above the foundation.** Modules
   under ``repro.codec`` may import only the stdlib, numpy,
   ``repro.errors`` and other ``repro.codec`` modules — so any layer
   (vecserve snapshots, the embedding store, offline tooling) can use
   the compression substrate without an upward edge.
4. **The compiler sits on storage, below core and every plane.** Modules
   under ``repro.compiler`` may import only the stdlib, numpy,
   ``repro.errors``, ``repro.clock``, ``repro.storage`` and other
   ``repro.compiler`` modules — never core, never a plane. Core may
   import the compiler's package root (rule 2): a feature view's
   features *are* compiler operators, and the store runs every view
   through the compiler.
5. **The network plane is the top of the DAG.** Modules under
   ``repro.net`` may import only the stdlib, numpy, ``repro.errors``,
   ``repro.clock``, ``repro.runtime``, ``repro.serving`` and
   ``repro.vecserve`` — and **nothing** else in ``repro`` may import
   ``repro.net`` back. Only benchmarks, examples and tests sit above
   the network surface; a library module depending on the HTTP front
   end would invert the whole diagram.
6. **The cluster plane is also a top of the DAG.** Modules under
   ``repro.cluster`` may import only the stdlib, numpy, ``repro.errors``,
   ``repro.clock``, ``repro.runtime``, ``repro.storage`` and
   ``repro.bus`` — and **nothing** else in ``repro`` may import
   ``repro.cluster`` back. In particular ``repro.net`` and
   ``repro.cluster`` stay mutually independent: the single-process
   network surface and the multi-node replication plane compose in
   application code (a node can *own* a server), never by importing
   each other.

7. **The I/O substrate stays in the kernel, for the socket planes.**
   ``repro.runtime.io`` (the selector loop) is infrastructure for the
   two planes that own real sockets: only ``repro.net``,
   ``repro.cluster`` and the runtime itself may import it. It is
   deliberately *not* re-exported from ``repro.runtime``'s package
   root — a storage or serving module reaching for an event loop is a
   design smell this rule turns into a lint failure.
8. **One k-NN path, and it serves no index family.** Outside
   ``repro.index`` itself, the only runtime import of the index
   substrate is ``repro.vecserve`` importing ``repro.index.base`` (the
   shared ``SearchResult``, ``RWLock`` and row normalization). Every
   similarity search in the library goes through
   :class:`repro.vecserve.VectorService`, whose sealed generations are
   exact scans; a store, gateway or monitor building its own index would
   be a second search path, and vecserve reaching for an index family
   (brute/LSH/IVF/HNSW, or the ``repro.index`` root that re-exports
   them) would bring an unmeasured one back. Benchmarks and tests are
   not checked, so they may still use an index directly (E10's
   trade-off, or an exact reference).

``if TYPE_CHECKING:`` blocks are exempt — annotations may name
cross-plane types without creating a runtime edge.

Run: ``python tools/check_layering.py [--src PATH]``. Exit 0 when clean,
1 with one line per violation otherwise. ``tests/test_layering.py`` runs
the same check as part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: packages whose submodules are private to the package ("planes")
PLANES = (
    "serving",
    "bus",
    "vecserve",
    "streaming",
    "monitoring",
    "compiler",
    "net",
    "cluster",
)

#: top-level roots repro.runtime may import at runtime
RUNTIME_ALLOWED_ROOTS = {
    "repro.errors",
    "repro.clock",
    "repro.runtime",
    "numpy",
}

#: top-level roots repro.codec may import at runtime (rule 3: the codec
#: plane sits at the bottom of the DAG, beside the runtime kernel)
CODEC_ALLOWED_ROOTS = {
    "repro.errors",
    "repro.codec",
    "numpy",
}

#: top-level roots repro.compiler may import at runtime (rule 4: the
#: pipeline compiler lowers plans onto storage kernels and must be
#: importable without dragging in core or any serving/monitoring plane)
COMPILER_ALLOWED_ROOTS = {
    "repro.errors",
    "repro.clock",
    "repro.compiler",
    "repro.storage",
    "numpy",
}

#: top-level roots repro.net may import at runtime (rule 5: the network
#: surface mounts the serving/vector planes over the runtime kernel)
NET_ALLOWED_ROOTS = {
    "repro.errors",
    "repro.clock",
    "repro.runtime",
    "repro.serving",
    "repro.vecserve",
    "repro.net",
    "numpy",
}

#: top-level roots repro.cluster may import at runtime (rule 6: the
#: cluster plane replicates the bus log across online-store shards over
#: the runtime kernel; it sits at the top of the DAG beside repro.net)
CLUSTER_ALLOWED_ROOTS = {
    "repro.errors",
    "repro.clock",
    "repro.runtime",
    "repro.storage",
    "repro.bus",
    "repro.cluster",
    "numpy",
}


@dataclass(frozen=True)
class ImportEdge:
    """One runtime import statement: importer module → imported module."""

    importer: str  # dotted module name, e.g. repro.bus.sinks
    imported: str  # dotted target, e.g. repro.streaming
    lineno: int


@dataclass(frozen=True)
class Violation:
    edge: ImportEdge
    rule: str

    def __str__(self) -> str:
        return (
            f"{self.edge.importer}:{self.edge.lineno}: "
            f"imports {self.edge.imported} — {self.rule}"
        )


def _is_type_checking_test(test: ast.expr) -> bool:
    """Recognize ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collect runtime import edges, skipping TYPE_CHECKING blocks."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.edges: list[ImportEdge] = []

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            # Annotations-only imports: not a runtime edge. Still walk
            # the else branch (it executes at runtime).
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.edges.append(ImportEdge(self.module, alias.name, node.lineno))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # resolve relative imports against this module
            parts = self.module.split(".")
            base = parts[: len(parts) - node.level]
            target = ".".join(base + ([node.module] if node.module else []))
        else:
            target = node.module or ""
        if target:
            self.edges.append(ImportEdge(self.module, target, node.lineno))


def module_name(path: Path, src: Path) -> str:
    relative = path.relative_to(src).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def collect_edges(src: Path) -> list[ImportEdge]:
    edges: list[ImportEdge] = []
    for path in sorted((src / "repro").rglob("*.py")):
        name = module_name(path, src)
        tree = ast.parse(path.read_text(), filename=str(path))
        collector = _ImportCollector(name)
        collector.visit(tree)
        edges.extend(collector.edges)
    return edges


def _plane_of(module: str) -> str | None:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in PLANES:
        return parts[1]
    return None


def check_edges(edges: list[ImportEdge]) -> list[Violation]:
    violations: list[Violation] = []
    for edge in edges:
        # Rule 1: the runtime kernel sits at the bottom of the DAG.
        if edge.importer.startswith("repro.runtime"):
            allowed = not edge.imported.startswith("repro") or any(
                edge.imported == root or edge.imported.startswith(root + ".")
                for root in RUNTIME_ALLOWED_ROOTS
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.runtime may import only the stdlib, numpy, "
                        "repro.errors and repro.clock",
                    )
                )
                continue
        # Rule 3: the codec plane sits at the bottom of the DAG.
        if edge.importer.startswith("repro.codec"):
            allowed = not edge.imported.startswith("repro") or any(
                edge.imported == root or edge.imported.startswith(root + ".")
                for root in CODEC_ALLOWED_ROOTS
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.codec may import only the stdlib, numpy "
                        "and repro.errors",
                    )
                )
                continue
        # Rule 4: the compiler sits on storage, below core and every plane.
        if edge.importer.startswith("repro.compiler"):
            allowed = not edge.imported.startswith("repro") or any(
                edge.imported == root or edge.imported.startswith(root + ".")
                for root in COMPILER_ALLOWED_ROOTS
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.compiler may import only the stdlib, numpy, "
                        "repro.errors, repro.clock and repro.storage",
                    )
                )
                continue
        # Rule 5a: the network plane's own downward imports.
        if edge.importer.startswith("repro.net"):
            allowed = not edge.imported.startswith("repro") or any(
                edge.imported == root or edge.imported.startswith(root + ".")
                for root in NET_ALLOWED_ROOTS
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.net may import only the stdlib, numpy, "
                        "repro.errors, repro.clock, repro.runtime, "
                        "repro.serving and repro.vecserve",
                    )
                )
                continue
        # Rule 5b: nothing inside repro imports the network plane back.
        elif edge.imported == "repro.net" or edge.imported.startswith(
            "repro.net."
        ):
            violations.append(
                Violation(
                    edge,
                    "repro.net is the top of the DAG — only benchmarks, "
                    "examples and tests may import it",
                )
            )
            continue
        # Rule 6a: the cluster plane's own downward imports.
        if edge.importer.startswith("repro.cluster"):
            allowed = not edge.imported.startswith("repro") or any(
                edge.imported == root or edge.imported.startswith(root + ".")
                for root in CLUSTER_ALLOWED_ROOTS
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.cluster may import only the stdlib, numpy, "
                        "repro.errors, repro.clock, repro.runtime, "
                        "repro.storage and repro.bus",
                    )
                )
                continue
        # Rule 6b: nothing inside repro imports the cluster plane back.
        elif edge.imported == "repro.cluster" or edge.imported.startswith(
            "repro.cluster."
        ):
            violations.append(
                Violation(
                    edge,
                    "repro.cluster is a top of the DAG — only benchmarks, "
                    "examples and tests may import it",
                )
            )
            continue
        # Rule 7: the selector substrate is reserved for the kernel and
        # the two socket-facing planes.
        if edge.imported == "repro.runtime.io" or edge.imported.startswith(
            "repro.runtime.io."
        ):
            allowed = edge.importer.startswith(
                ("repro.runtime", "repro.net", "repro.cluster")
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.runtime.io is kernel I/O infrastructure — "
                        "only repro.net, repro.cluster and the runtime "
                        "itself may import it",
                    )
                )
                continue
        # Rule 8: only vecserve reaches the index substrate, and only its base.
        if edge.imported == "repro.index" or edge.imported.startswith(
            "repro.index."
        ):
            allowed = edge.importer.startswith("repro.index") or (
                edge.importer.startswith("repro.vecserve")
                and edge.imported == "repro.index.base"
            )
            if not allowed:
                violations.append(
                    Violation(
                        edge,
                        "repro.index families are for benches and tests — "
                        "only repro.vecserve may import repro.index.base, "
                        "and nothing else in repro may import repro.index",
                    )
                )
                continue
        # Rule 2: cross-plane imports only via the package root.
        importer_plane = _plane_of(edge.importer)
        imported_plane = _plane_of(edge.imported)
        if (
            imported_plane is not None
            and imported_plane != importer_plane
            and edge.imported != f"repro.{imported_plane}"
        ):
            violations.append(
                Violation(
                    edge,
                    f"cross-plane import must go through the package root "
                    f"repro.{imported_plane}",
                )
            )
    return violations


def run(src: Path) -> list[Violation]:
    return check_edges(collect_edges(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="source root containing the repro package (default: ../src)",
    )
    args = parser.parse_args(argv)
    violations = run(args.src)
    for violation in violations:
        print(violation)
    if violations:
        print(f"\n{len(violations)} layering violation(s)")
        return 1
    print("layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
