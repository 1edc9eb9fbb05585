"""Lowering plans onto the columnar kernels.

:func:`compile_plan` turns a logical :class:`~repro.compiler.plan.Plan`
into a :class:`CompiledPlan` carrying a physical strategy:

``asof-index``
    No predicates: the plan is exactly the shape the batched as-of
    kernels were built for — ``latest_before_index_batch`` for
    latest/derived features, one ``events_between_index_batch`` per
    distinct window width and one
    :meth:`~repro.storage.offline.OfflineTable.gather_numeric` per
    distinct ``(column, window)``. No scan at all.

``shared-scan``
    Predicates present: one :class:`~repro.storage.scan.SharedScan`
    bounded by as-of (and any timestamp predicates pushed into the scan
    range — pruned partitions are never decoded), a numpy mask per
    residual predicate (:meth:`~repro.storage.query.Predicate.mask`, which
    covers every operator on every column kind), and per-entity
    ``searchsorted`` sub-windows.

Projection pruning is implicit in both strategies: only columns named by
the plan's features and predicates are ever gathered or decoded.

Both strategies are byte-identical to ``Plan.execute_rows`` /
``Plan.execute_rows_at`` — enforced by the parity suite — because they
feed the exact same float64 values, in the same order, to the exact same
aggregation callables (:func:`repro.compiler.plan.aggregate_fn`), and call
the operators' own ``evaluate`` on the latest matching row for
``ColumnRef``/``RowTransform``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.compiler.plan import Plan, WindowAggregate, aggregate_fn, exclusive_end
from repro.errors import ValidationError
from repro.storage.offline import OfflineTable
from repro.storage.query import Predicate
from repro.storage.scan import SharedScan


def _pushdown_time_bounds(
    predicates: Sequence[Predicate],
) -> tuple[float | None, float | None, tuple[Predicate, ...]]:
    """Split timestamp range predicates into scan bounds.

    ``ts >= v`` / ``ts > v`` / ``ts < v`` / ``ts <= v`` are *exactly*
    expressible as a half-open ``[start, end)`` scan range, so they are
    removed from the residual mask set entirely; pushing them down is
    semantics-preserving because a pruned row could never have matched.
    Other timestamp predicates (``==``, ``in``, ...) stay residual.
    """
    start: float | None = None
    end: float | None = None
    residual: list[Predicate] = []
    for predicate in predicates:
        if predicate.column != "timestamp" or predicate.op not in (
            ">=", ">", "<", "<=",
        ):
            residual.append(predicate)
            continue
        value = float(predicate.value)  # type: ignore[arg-type]
        if predicate.op == ">=":
            bound = value
            start = bound if start is None else max(start, bound)
        elif predicate.op == ">":
            bound = float(np.nextafter(value, np.inf))
            start = bound if start is None else max(start, bound)
        elif predicate.op == "<":
            bound = value
            end = bound if end is None else min(end, bound)
        else:  # "<="
            bound = float(np.nextafter(value, np.inf))
            end = bound if end is None else min(end, bound)
    return start, end, tuple(residual)


def compile_plan(plan: Plan, table: OfflineTable) -> "CompiledPlan":
    """Pick a physical strategy for ``plan`` over ``table``."""
    bound = plan if plan.is_bound else plan.bind(table.schema)
    if bound.source_table != table.name:
        raise ValidationError(
            f"plan reads table {bound.source_table!r} but was compiled "
            f"against {table.name!r}"
        )
    start, end, residual = _pushdown_time_bounds(bound.predicates)
    return CompiledPlan(
        plan=bound,
        table=table,
        strategy="shared-scan" if bound.predicates else "asof-index",
        pushed_start=start,
        pushed_end=end,
        residual=residual,
    )


class CompiledPlan:
    """A plan bound to a table with a chosen physical strategy.

    ``evaluate`` produces the materialization shape (one row per entity
    with at least one matching event); ``evaluate_at`` is the as-of join
    (one row per probe, all-None when nothing matched). ``stats`` after a
    call reports what the optimizer saved.
    """

    def __init__(
        self,
        plan: Plan,
        table: OfflineTable,
        strategy: str,
        pushed_start: float | None,
        pushed_end: float | None,
        residual: tuple[Predicate, ...],
    ) -> None:
        self.plan = plan
        self.table = table
        self.strategy = strategy
        self.pushed_start = pushed_start
        self.pushed_end = pushed_end
        self.residual = residual
        self.stats: dict[str, int] = {}

    # -- columns the physical plan actually touches -----------------------

    def projected_columns(self) -> list[str]:
        """Columns decoded/gathered, vs. everything the table stores."""
        return sorted(self.plan.required_columns())

    def pruned_columns(self) -> list[str]:
        all_columns = set(self.table.schema.columns)
        return sorted(all_columns - self.plan.required_columns())

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, as_of: float, entity_ids: Sequence[int] | None = None
    ) -> list[dict[str, object]]:
        """One output row per candidate entity with >= 1 matching event."""
        candidates = (
            [int(e) for e in entity_ids]
            if entity_ids is not None
            else self.table.entity_ids()
        )
        if self.strategy == "asof-index":
            return self._evaluate_index(as_of, candidates)
        return self._evaluate_scan(as_of, candidates)

    def evaluate_at(
        self,
        entity_ids: Sequence[int] | np.ndarray,
        timestamps: Sequence[float] | np.ndarray,
    ) -> list[dict[str, object]]:
        """As-of join: one output row per ``(entity, ts)`` probe."""
        eids = [int(e) for e in entity_ids]
        ts = [float(t) for t in timestamps]
        if len(eids) != len(ts):
            raise ValidationError(
                f"entity_ids and timestamps must align ({len(eids)} vs {len(ts)})"
            )
        if self.strategy == "asof-index":
            return self._evaluate_index_at(eids, ts)
        return self._evaluate_scan_at(eids, ts)

    # -- asof-index strategy ----------------------------------------------

    def _evaluate_index(
        self, as_of: float, candidates: list[int]
    ) -> list[dict[str, object]]:
        probes = np.full(len(candidates), as_of, dtype=np.float64)
        rows = self._index_rows(np.asarray(candidates, dtype=np.int64), probes)
        return [row for row in rows if row is not None]

    def _evaluate_index_at(
        self, eids: list[int], ts: list[float]
    ) -> list[dict[str, object]]:
        rows = self._index_rows(
            np.asarray(eids, dtype=np.int64),
            np.asarray(ts, dtype=np.float64),
            emit_misses=True,
        )
        return [row for row in rows if row is not None]

    def _window_columns(self) -> list[str]:
        return sorted(
            {
                f.op.column
                for f in self.plan.features
                if isinstance(f.op, WindowAggregate)
            }
        )

    def _index_rows(
        self,
        eids: np.ndarray,
        ts: np.ndarray,
        emit_misses: bool = False,
    ) -> list[dict[str, object] | None]:
        """Shared core of the index strategy.

        Per probe: resolve the latest row index once, resolve each distinct
        window width's event-index window once, gather each distinct
        ``(column, window)`` once (flattened across probes, NULLs dropped),
        then assemble rows — so ``sum`` and ``count`` over one window share
        every kernel call. ``emit_misses`` selects the as-of-join shape
        (all-None rows for empty probes). Sets :attr:`stats` from the
        rows actually read.
        """
        table = self.table
        latest_idx = table.latest_before_index_batch(eids, ts)
        hit = latest_idx >= 0

        # window -> (flat event indices, per-probe offsets into them)
        spans: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        # (column, window) -> (non-NULL float64 values, per-probe offsets)
        valid: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
        for feature in self.plan.features:
            op = feature.op
            if not isinstance(op, WindowAggregate):
                continue
            key = (op.column, op.window)
            if key in valid:
                continue
            if op.window not in spans:
                windows = table.events_between_index_batch(
                    eids, ts - op.window, ts
                )
                flat = (
                    np.concatenate(windows)
                    if windows
                    else np.empty(0, dtype=np.int64)
                )
                offsets = np.concatenate(
                    ([0], np.cumsum([len(w) for w in windows]))
                ).astype(np.int64)
                spans[op.window] = (flat, offsets)
            flat, offsets = spans[op.window]
            values, null = table.gather_numeric(op.column, flat)
            kept = np.concatenate(([0], np.cumsum(~null))).astype(np.int64)
            valid[key] = (values[~null].astype(np.float64), kept[offsets])

        # Every hit reads its latest row whole (``row_at``); windows read
        # their gathered rows' columns.
        read = np.unique(
            np.concatenate([latest_idx[hit], *(flat for flat, __ in spans.values())])
        )
        n_columns = len(table.schema.columns)
        decoded = n_columns if hit.any() else len(self._window_columns())
        self.stats = {
            "rows_scanned": len(read),
            "rows_pruned": len(table) - len(read),
            "columns_decoded": decoded,
            "columns_pruned": n_columns - decoded,
        }

        out: list[dict[str, object] | None] = []
        for probe in range(len(eids)):
            if not hit[probe] and not emit_misses:
                out.append(None)
                continue
            row_out: dict[str, object] = {
                "entity_id": int(eids[probe]),
                "timestamp": float(ts[probe]),
            }
            # ColumnRef and RowTransform read only the latest event
            latest = [table.row_at(int(latest_idx[probe]))] if hit[probe] else []
            for feature in self.plan.features:
                op = feature.op
                if not isinstance(op, WindowAggregate):
                    row_out[feature.name] = op.evaluate(latest, ts[probe])
                elif not latest:
                    # as-of-join miss: no visible events at all
                    row_out[feature.name] = None
                else:
                    values, offsets = valid[(op.column, op.window)]
                    window = values[offsets[probe] : offsets[probe + 1]]
                    if len(window) == 0:
                        row_out[feature.name] = (
                            0.0 if op.agg == "count" else None
                        )
                    else:
                        row_out[feature.name] = aggregate_fn(op.agg)(window)
            out.append(row_out)
        return out

    # -- shared-scan strategy ---------------------------------------------

    def scan_bounds(self, horizon: float) -> tuple[float | None, float]:
        """The physical scan range after pushdown, capped at the horizon."""
        end = exclusive_end(horizon)
        if self.pushed_end is not None:
            end = min(end, self.pushed_end)
        return self.pushed_start, end

    def _build_scan(self, horizon: float) -> SharedScan:
        start, end = self.scan_bounds(horizon)
        return SharedScan(self.table, start=start, end=end)

    def _evaluate_scan(
        self, as_of: float, candidates: list[int]
    ) -> list[dict[str, object]]:
        scan = self._build_scan(as_of)
        rows = evaluate_on_scan(self.plan, self.residual, scan, as_of, candidates)
        self.stats = {
            "rows_scanned": scan.rows_scanned,
            "rows_pruned": scan.rows_pruned,
            "columns_decoded": scan.columns_decoded,
            "columns_pruned": len(self.pruned_columns()),
        }
        return rows

    def _evaluate_scan_at(
        self, eids: list[int], ts: list[float]
    ) -> list[dict[str, object]]:
        horizon = max(ts) if ts else 0.0
        scan = self._build_scan(horizon)
        rows = evaluate_on_scan_at(self.plan, self.residual, scan, eids, ts)
        self.stats = {
            "rows_scanned": scan.rows_scanned,
            "rows_pruned": scan.rows_pruned,
            "columns_decoded": scan.columns_decoded,
            "columns_pruned": len(self.pruned_columns()),
        }
        return rows

    # -- explain -----------------------------------------------------------

    def explain(self) -> str:
        """Logical plan plus the physical strategy underneath it."""
        lines = [self.plan.explain(), f"Physical: strategy={self.strategy}"]
        if self.strategy == "asof-index":
            lines.append(
                "  asof: latest_before_index_batch + "
                "events_between_index_batch (no scan)"
            )
        else:
            start = "-inf" if self.pushed_start is None else f"{self.pushed_start:g}"
            end = "as_of" if self.pushed_end is None else f"{self.pushed_end:g}"
            lines.append(f"  scan: {self.table.name}[{start}, {end})")
            for predicate in self.residual:
                lines.append(
                    f"  mask: {predicate.column} {predicate.op} "
                    f"{predicate.value!r}"
                )
            pushed = len(self.plan.predicates) - len(self.residual)
            if pushed:
                lines.append(f"  pushdown: {pushed} timestamp predicate(s) -> scan range")
        lines.append(
            f"  project: {', '.join(self.projected_columns()) or '(none)'}"
            + (
                f"  [pruned: {', '.join(self.pruned_columns())}]"
                if self.pruned_columns()
                else ""
            )
        )
        return "\n".join(lines)


# -- scan-based operators (also the fusion substrate) --------------------------


def _residual_mask(
    residual: Sequence[Predicate], scan: SharedScan
) -> np.ndarray | None:
    """AND of all residual predicate masks over the scanned rows."""
    mask: np.ndarray | None = None
    for predicate in residual:
        values, null = scan.column(predicate.column)
        hit = predicate.mask(values, null)
        mask = hit if mask is None else (mask & hit)
    return mask


def _matching_positions(
    scan: SharedScan, mask: np.ndarray | None, entity_id: int
) -> np.ndarray:
    """One entity's matching global scan positions, in time order."""
    positions = scan.segment_of(entity_id)
    if mask is None or len(positions) == 0:
        return positions
    return positions[mask[positions]]


def _window_value(
    op: WindowAggregate,
    seg_ts: np.ndarray,
    seg_values: np.ndarray,
    seg_null: np.ndarray,
    as_of: float,
) -> float | None:
    """One window aggregate over an entity's matching segment arrays.

    ``seg_*`` cover events with ``ts <= as_of``; the sub-window
    ``as_of - window < ts <= as_of`` is two ``searchsorted`` calls.
    """
    lo = int(np.searchsorted(seg_ts, as_of - op.window, side="right"))
    hi = int(np.searchsorted(seg_ts, as_of, side="right"))
    values = seg_values[lo:hi]
    null = seg_null[lo:hi]
    valid = values[~null].astype(np.float64)
    if len(valid) == 0:
        return 0.0 if op.agg == "count" else None
    return aggregate_fn(op.agg)(valid)


def _evaluate_entity(
    plan: Plan,
    scan: SharedScan,
    positions: np.ndarray,
    as_of: float,
    columns: dict[str, tuple[np.ndarray, np.ndarray]],
) -> dict[str, object]:
    """Feature values for one entity from its matching positions (non-empty)."""
    seg_ts = scan.timestamps[positions]
    hi = int(np.searchsorted(seg_ts, as_of, side="right"))
    # ColumnRef and RowTransform read only the latest event
    latest = [scan.row_at(int(positions[hi - 1]))] if hi > 0 else []
    out: dict[str, object] = {}
    for feature in plan.features:
        op = feature.op
        if not isinstance(op, WindowAggregate):
            out[feature.name] = op.evaluate(latest, as_of)
        else:
            values, null = columns[op.column]
            out[feature.name] = _window_value(
                op, seg_ts[:hi], values[positions[:hi]], null[positions[:hi]], as_of
            )
    return out


def evaluate_on_scan(
    plan: Plan,
    residual: Sequence[Predicate],
    scan: SharedScan,
    as_of: float,
    candidates: Sequence[int],
) -> list[dict[str, object]]:
    """Materialization shape over a (possibly shared) scan.

    The scan must already be bounded by ``ts <= as_of``; this is what lets
    a fusion group hand the *same* scan to every member plan.
    """
    mask = _residual_mask(residual, scan)
    columns = {
        column: scan.column(column)
        for column in _numeric_window_columns(plan)
    }
    out: list[dict[str, object]] = []
    for entity in candidates:
        positions = _matching_positions(scan, mask, int(entity))
        if len(positions) == 0:
            continue
        values = _evaluate_entity(plan, scan, positions, as_of, columns)
        out.append(
            {"entity_id": int(entity), "timestamp": as_of, **values}
        )
    return out


def evaluate_on_scan_at(
    plan: Plan,
    residual: Sequence[Predicate],
    scan: SharedScan,
    eids: Sequence[int],
    ts: Sequence[float],
) -> list[dict[str, object]]:
    """As-of join shape over a (possibly shared) scan: a row per probe."""
    mask = _residual_mask(residual, scan)
    columns = {
        column: scan.column(column)
        for column in _numeric_window_columns(plan)
    }
    out: list[dict[str, object]] = []
    for entity, t in zip(eids, ts):
        positions = _matching_positions(scan, mask, int(entity))
        seg_ts = scan.timestamps[positions]
        hi = int(np.searchsorted(seg_ts, t, side="right"))
        row_out: dict[str, object] = {
            "entity_id": int(entity), "timestamp": float(t),
        }
        if hi == 0:
            for feature in plan.features:
                row_out[feature.name] = None
        else:
            row_out.update(
                _evaluate_entity(plan, scan, positions[:hi], t, columns)
            )
        out.append(row_out)
    return out


def _numeric_window_columns(plan: Plan) -> set[str]:
    return {
        f.op.column for f in plan.features if isinstance(f.op, WindowAggregate)
    }
