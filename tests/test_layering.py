"""Tier-1 wiring for the import-DAG lint (tools/check_layering.py).

The lint is the executable form of the DESIGN.md layer diagram: the
runtime kernel imports nothing above itself, and planes reach each other
only through package roots. Running it from pytest keeps the DAG a hard
invariant instead of a convention.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO_ROOT / "tools" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_layering", module)
    spec.loader.exec_module(module)
    return module


class TestLayering:
    def test_no_layering_violations(self):
        checker = _load_checker()
        violations = checker.run(SRC)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_lint_detects_runtime_upward_import(self):
        """The lint itself must catch a runtime → plane edge."""
        checker = _load_checker()
        edge = checker.ImportEdge(
            importer="repro.runtime.telemetry",
            imported="repro.serving.metrics",
            lineno=1,
        )
        violations = checker.check_edges([edge])
        assert len(violations) == 1
        assert "repro.runtime" in violations[0].rule

    def test_lint_detects_cross_plane_internal_import(self):
        """The historical vecserve → serving.faults violation stays dead."""
        checker = _load_checker()
        edge = checker.ImportEdge(
            importer="repro.vecserve.shards",
            imported="repro.serving.faults",
            lineno=1,
        )
        violations = checker.check_edges([edge])
        assert len(violations) == 1
        assert "package root" in violations[0].rule

    def test_lint_allows_package_root_and_same_plane(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.vecserve.bus_sink", "repro.bus", 1),
            checker.ImportEdge("repro.bus.sinks", "repro.bus.consumer", 2),
            checker.ImportEdge("repro.runtime.resilience", "repro.errors", 3),
            checker.ImportEdge("repro.runtime.lifecycle", "threading", 4),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_codec_upward_import(self):
        """The codec plane must stay at the bottom of the DAG: an edge
        into the index substrate (or any plane) is a violation."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.codec.adc", "repro.index.base", 1),
            checker.ImportEdge("repro.codec.codecs", "repro.vecserve", 2),
            checker.ImportEdge("repro.codec.codecs", "repro.runtime", 3),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 3
        assert all("repro.codec" in v.rule for v in violations)

    def test_lint_allows_codec_foundation_imports(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.codec.codecs", "repro.errors", 1),
            checker.ImportEdge("repro.codec.adc", "repro.codec.codecs", 2),
            checker.ImportEdge("repro.codec.codecs", "numpy", 3),
            checker.ImportEdge("repro.codec.codecs", "dataclasses", 4),
            # vecserve may reach *down* into codec freely
            checker.ImportEdge("repro.vecserve.snapshot", "repro.codec", 5),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_compiler_plane_import(self):
        """The pipeline compiler may not import core or any serving plane."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.compiler.plan", "repro.serving", 1),
            checker.ImportEdge(
                "repro.compiler.executor", "repro.monitoring.dashboard", 2
            ),
            checker.ImportEdge("repro.compiler.compile", "repro.pipeline", 3),
            checker.ImportEdge(
                "repro.compiler.plan", "repro.core.feature_view", 4
            ),
            checker.ImportEdge("repro.compiler.compile", "repro.core", 5),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 5
        assert all("repro.compiler" in v.rule for v in violations)

    def test_lint_allows_compiler_substrate_imports(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.core.feature_store", "repro.compiler", 1),
            checker.ImportEdge(
                "repro.compiler.compile", "repro.storage.offline", 2
            ),
            checker.ImportEdge(
                "repro.compiler.executor", "repro.compiler.compile", 3
            ),
            checker.ImportEdge("repro.compiler.plan", "numpy", 4),
            checker.ImportEdge("repro.compiler.schema", "repro.errors", 5),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_plane_reaching_into_compiler_internals(self):
        """Other planes — core included — use repro.compiler's package
        root, not its submodules."""
        checker = _load_checker()
        edge = checker.ImportEdge(
            importer="repro.monitoring.dashboard",
            imported="repro.compiler.plan",
            lineno=1,
        )
        violations = checker.check_edges([edge])
        assert len(violations) == 1
        assert "package root" in violations[0].rule
        core_edge = checker.ImportEdge(
            "repro.core.feature_view", "repro.compiler.plan", 1
        )
        assert "package root" in checker.check_edges([core_edge])[0].rule
        # the package root itself is fine
        root_edge = checker.ImportEdge(
            "repro.monitoring.dashboard", "repro.compiler", 1
        )
        assert checker.check_edges([root_edge]) == []

    def test_lint_detects_net_upward_import(self):
        """The network plane may not import storage internals or planes
        outside its declared downward set."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.net.server", "repro.storage.online", 1),
            checker.ImportEdge("repro.net.protocol", "repro.bus", 2),
            checker.ImportEdge("repro.net.client", "repro.monitoring", 3),
            checker.ImportEdge(
                "repro.net.client", "repro.datagen.workloads", 4
            ),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 4
        assert all("repro.net" in v.rule for v in violations)

    def test_lint_allows_net_downward_imports(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.net.server", "repro.serving", 1),
            checker.ImportEdge("repro.net.server", "repro.runtime", 2),
            checker.ImportEdge(
                "repro.net.server", "repro.runtime.lifecycle", 3
            ),
            checker.ImportEdge("repro.net.protocol", "repro.errors", 4),
            checker.ImportEdge("repro.net.client", "repro.net.protocol", 5),
            checker.ImportEdge("repro.net.server", "http.server", 6),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_reverse_import_of_net(self):
        """Nothing inside repro may import the network plane back — not
        even through its package root (the root-only cross-plane rule is
        not enough at the top of the DAG)."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.serving.gateway", "repro.net", 1),
            checker.ImportEdge(
                "repro.monitoring.dashboard", "repro.net.server", 2
            ),
            checker.ImportEdge("repro.storage.online", "repro.net", 3),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 3
        assert all("top of the DAG" in v.rule for v in violations)
        # a runtime → net edge is also caught (by rule 1, which fires first)
        runtime_edge = checker.ImportEdge(
            "repro.runtime.lifecycle", "repro.net", 1
        )
        assert len(checker.check_edges([runtime_edge])) == 1

    def test_nothing_in_tree_imports_net(self):
        """The live source tree honors rule 5b."""
        checker = _load_checker()
        edges = checker.collect_edges(SRC)
        offenders = [
            e
            for e in edges
            if not e.importer.startswith("repro.net")
            and e.imported.startswith("repro.net")
        ]
        assert offenders == []

    def test_lint_detects_cluster_upward_import(self):
        """The cluster plane may not import planes outside its declared
        downward set — in particular not repro.net (rule 6 keeps the two
        tops of the DAG mutually independent)."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.cluster.node", "repro.net", 1),
            checker.ImportEdge(
                "repro.cluster.coordinator", "repro.monitoring", 2
            ),
            checker.ImportEdge("repro.cluster.client", "repro.vecserve", 3),
            checker.ImportEdge("repro.cluster.node", "repro.serving", 4),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 4
        # the cluster → net edge is reported by rule 5b (net's reverse-
        # import guard fires first); the others by rule 6a
        assert "top of the DAG" in violations[0].rule
        assert all("repro.cluster" in v.rule for v in violations[1:])

    def test_lint_allows_cluster_downward_imports(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.cluster.node", "repro.bus", 1),
            checker.ImportEdge("repro.cluster.node", "repro.clock", 2),
            checker.ImportEdge(
                "repro.cluster.node", "repro.storage.online", 3
            ),
            checker.ImportEdge("repro.cluster.coordinator", "repro.runtime", 4),
            checker.ImportEdge(
                "repro.cluster.cluster", "repro.cluster.node", 5
            ),
            checker.ImportEdge("repro.cluster.ring", "hashlib", 6),
            checker.ImportEdge("repro.cluster.ring", "repro.errors", 7),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_reverse_import_of_cluster(self):
        """Nothing inside repro may import the cluster plane back — not
        even through its package root, and not from repro.net."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.serving.gateway", "repro.cluster", 1),
            checker.ImportEdge(
                "repro.monitoring.dashboard", "repro.cluster.node", 2
            ),
            checker.ImportEdge("repro.net.server", "repro.cluster", 3),
            checker.ImportEdge("repro.bus.log", "repro.cluster.ring", 4),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 4

    def test_nothing_in_tree_imports_cluster(self):
        """The live source tree honors rule 6b."""
        checker = _load_checker()
        edges = checker.collect_edges(SRC)
        offenders = [
            e
            for e in edges
            if not e.importer.startswith("repro.cluster")
            and e.imported.startswith("repro.cluster")
        ]
        assert offenders == []

    def test_lint_detects_plane_importing_io_substrate(self):
        """Rule 7: the selector loop is kernel infrastructure for the
        socket planes — serving/storage/bus reaching for it is caught."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.serving.gateway", "repro.runtime.io", 1),
            checker.ImportEdge("repro.bus.sinks", "repro.runtime.io", 2),
            checker.ImportEdge(
                "repro.storage.online", "repro.runtime.io", 3
            ),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 3
        assert all("repro.runtime.io" in v.rule for v in violations)

    def test_lint_allows_io_substrate_for_socket_planes(self):
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.net.server", "repro.runtime.io", 1),
            checker.ImportEdge(
                "repro.cluster.socket_transport", "repro.runtime.io", 2
            ),
            checker.ImportEdge("repro.runtime.io", "repro.errors", 3),
        ]
        assert checker.check_edges(edges) == []

    def test_lint_detects_index_import_outside_vecserve(self):
        """Rule 8: one k-NN path — a store, gateway or monitor importing
        the index substrate is caught; vecserve and index itself are not."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.core.embedding_store", "repro.index", 1),
            checker.ImportEdge("repro.serving.gateway", "repro.index.hnsw", 2),
            checker.ImportEdge(
                "repro.monitoring.dashboard", "repro.index.base", 3
            ),
        ]
        violations = checker.check_edges(edges)
        assert len(violations) == 3
        assert all("repro.index" in v.rule for v in violations)
        allowed = [
            checker.ImportEdge("repro.vecserve.shards", "repro.index.base", 1),
            checker.ImportEdge("repro.index.brute", "repro.index.base", 2),
            checker.ImportEdge("repro.index", "repro.index.hnsw", 3),
        ]
        assert checker.check_edges(allowed) == []

    def test_lint_detects_vecserve_edge_to_index_family(self):
        """Rule 8: vecserve serves exact scans only — an edge to an index
        family, or to the ``repro.index`` root that re-exports them all,
        is a violation; ``repro.index.base`` is the one allowed edge."""
        checker = _load_checker()
        edges = [
            checker.ImportEdge("repro.vecserve.service", "repro.index.hnsw", 1),
            checker.ImportEdge("repro.vecserve.snapshot", "repro.index", 2),
            checker.ImportEdge("repro.vecserve.shards", "repro.index.brute", 3),
        ]
        violations = checker.check_edges(edges)
        assert [v.edge.lineno for v in violations] == [1, 2, 3]
        assert all("repro.index" in v.rule for v in violations)

    def test_io_substrate_not_reexported_from_runtime_root(self):
        """Rule 7's enforcement depends on io imports being visible as
        ``repro.runtime.io`` statements — the package root must not
        launder them."""
        import repro.runtime as runtime

        assert "IoLoop" not in dir(runtime)

    def test_compiler_does_not_import_core(self):
        """The acyclicity guarantee: compiler → core would close a cycle
        with core → compiler, so the edge must not exist in the tree."""
        checker = _load_checker()
        edges = checker.collect_edges(SRC)
        offenders = [
            e
            for e in edges
            if e.importer.startswith("repro.compiler")
            and e.imported.startswith("repro.core")
        ]
        assert offenders == []
