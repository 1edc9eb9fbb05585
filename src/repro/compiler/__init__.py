"""The feature definition language and its optimizing compiler.

A feature is data: an operator (:class:`ColumnRef`, :class:`WindowAggregate`,
:class:`RowTransform`) over a source table, and a :class:`Plan` is a table
plus filter predicates and named operators. The compiler — not the
author — decides the physical execution: predicate pushdown into
partition-pruned scan ranges, projection pruning down to the columns a
plan actually reads, and shared-scan fusion so N views over the same
table cost one physical scan instead of N.

Layering: this package sits on ``repro.storage`` and below
``repro.core``. Core builds every feature view's plan and runs it here;
the compiler never imports core.

Entry points::

    from repro.compiler import compile_plan, scan

    plan = (scan("trips")
            .filter("fare", ">", 0.0)
            .window("fare", "mean", 3600.0))
    compiled = compile_plan(plan, table)
    rows = compiled.evaluate(as_of=now)            # materialization shape
    print(compiled.explain())                      # logical + physical
"""

from repro.compiler.compile import CompiledPlan, compile_plan
from repro.compiler.executor import (
    execute_fused,
    execute_fused_at,
    explain_fused,
    merge_stats,
)
from repro.compiler.plan import (
    ColumnRef,
    Plan,
    PlanFeature,
    RowTransform,
    WindowAggregate,
    aggregate_fn,
    available_aggregations,
    scan,
)
from repro.compiler.schema import (
    FEATURE_DTYPES,
    check_declared_dtype,
    map_dtype,
)

__all__ = [
    "ColumnRef",
    "CompiledPlan",
    "FEATURE_DTYPES",
    "Plan",
    "PlanFeature",
    "RowTransform",
    "WindowAggregate",
    "aggregate_fn",
    "available_aggregations",
    "check_declared_dtype",
    "compile_plan",
    "execute_fused",
    "execute_fused_at",
    "explain_fused",
    "map_dtype",
    "merge_stats",
    "scan",
]
