"""Fused execution: many plans over one table, one physical scan.

The scheduler routinely materializes several feature views off the same
event table at the same tick. Naively that is N full scans of the same
rows; :func:`execute_fused` builds **one** :class:`SharedScan` bounded by
the tick's as-of timestamp and points every plan's operators at it. Each
plan keeps its own predicate masks and output shape — fusion shares the
physical work (partition slicing, column decodes, the per-entity segment
index), never the semantics, which is why fused output stays
byte-identical to per-view execution. Every predicate, string ones
included, compiles to a mask, so every member of a group fuses.

Inside a fusion group every predicate is applied as a residual mask —
per-plan timestamp pushdown would shrink the shared range below what
other members need. The mask is exact, so this trades a little pruning
for N-1 saved scans.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.compiler.compile import (
    CompiledPlan,
    compile_plan,
    evaluate_on_scan,
    evaluate_on_scan_at,
)
from repro.compiler.plan import Plan, exclusive_end
from repro.errors import ValidationError
from repro.storage.offline import OfflineTable
from repro.storage.scan import SharedScan


def merge_stats(total: dict[str, int], delta: dict[str, int]) -> None:
    """Accumulate one execution's stats into a running total, in place."""
    for key, value in delta.items():
        total[key] = total.get(key, 0) + int(value)


def _execute_group(
    plans: Sequence[Plan],
    table: OfflineTable,
    horizon: float,
    on_scan: Callable[[Plan, SharedScan], list[dict[str, object]]],
    alone: Callable[[CompiledPlan], list[dict[str, object]]],
) -> tuple[list[list[dict[str, object]]], dict[str, int]]:
    """The one body behind both fused shapes.

    Two or more plans share one scan bounded by ``ts <= horizon``, and
    ``on_scan`` evaluates each member over it. A lone plan runs ``alone``
    on its compiled strategy: a "group" of one saves no scan and reports
    no fusion.
    """
    compiled = [compile_plan(plan, table) for plan in plans]
    stats = {
        "views_compiled": len(compiled),
        "fusion_groups": 0,
        "views_fused": 0,
        "scans_saved": 0,
        "rows_scanned": 0,
        "rows_pruned": 0,
        "columns_decoded": 0,
        "columns_pruned": 0,
    }
    if len(compiled) < 2:
        results = []
        for c in compiled:
            results.append(alone(c))
            merge_stats(stats, c.stats)
        return results, stats
    scan = SharedScan(table, start=None, end=exclusive_end(horizon))
    results = [on_scan(c.plan, scan) for c in compiled]
    shared_projection = set().union(*(c.plan.required_columns() for c in compiled))
    stats.update(
        fusion_groups=1,
        views_fused=len(compiled),
        scans_saved=len(compiled) - 1,
        rows_scanned=scan.rows_scanned,
        rows_pruned=scan.rows_pruned,
        columns_decoded=scan.columns_decoded,
        columns_pruned=len(set(table.schema.columns) - shared_projection),
    )
    return results, stats


def execute_fused(
    plans: Sequence[Plan],
    table: OfflineTable,
    as_of: float,
    entity_ids: Sequence[int] | None = None,
) -> tuple[list[list[dict[str, object]]], dict[str, int]]:
    """Evaluate every plan as of one timestamp through one shared scan.

    Returns ``(rows_per_plan, stats)`` with results aligned to the input
    order. A single-plan "group" degenerates to normal compiled execution
    (no scans saved, no fusion reported).
    """
    candidates = (
        [int(e) for e in entity_ids]
        if entity_ids is not None
        else table.entity_ids()
    )
    return _execute_group(
        plans,
        table,
        as_of,
        lambda plan, scan: evaluate_on_scan(
            plan, plan.predicates, scan, as_of, candidates
        ),
        lambda c: c.evaluate(as_of, entity_ids=candidates),
    )


def execute_fused_at(
    plans: Sequence[Plan],
    table: OfflineTable,
    entity_ids: Sequence[int],
    timestamps: Sequence[float],
) -> tuple[list[list[dict[str, object]]], dict[str, int]]:
    """Fused as-of join: every plan answers the same probe set, one scan."""
    eids = [int(e) for e in entity_ids]
    ts = [float(t) for t in timestamps]
    if plans and len(eids) != len(ts):
        raise ValidationError(
            f"entity_ids and timestamps must align ({len(eids)} vs {len(ts)})"
        )
    return _execute_group(
        plans,
        table,
        max(ts) if ts else 0.0,
        lambda plan, scan: evaluate_on_scan_at(
            plan, plan.predicates, scan, eids, ts
        ),
        lambda c: c.evaluate_at(eids, ts),
    )


def explain_fused(plans: Sequence[Plan], table: OfflineTable) -> str:
    """Render the fusion group's physical layout."""
    compiled = [compile_plan(plan, table) for plan in plans]
    fused = len(compiled) >= 2
    lines = [
        f"FusedGroup: table={table.name} plans={len(compiled)} "
        f"fused={len(compiled) if fused else 0} "
        f"scans_saved={len(compiled) - 1 if fused else 0}"
    ]
    if fused:
        shared = sorted(
            set().union(*(c.plan.required_columns() for c in compiled))
        )
        lines.append(f"  shared scan: {table.name}[-inf, as_of)")
        lines.append(f"  shared columns: {', '.join(shared)}")
    for c in compiled:
        role = "fused" if fused else c.strategy
        predicates = len(c.plan.predicates)
        lines.append(
            f"  - plan({c.plan.source_table}): {len(c.plan.features)} "
            f"feature(s), {predicates} predicate(s) [{role}]"
        )
    return "\n".join(lines)
