"""A small declarative query layer over offline tables.

Paper section 2.2.1: users author features as "a definition SQL query".
This module provides the warehouse-side query shape that definition relies
on, without a SQL parser: a fluent builder with time-range pushdown (only
overlapping partitions are scanned), column predicates, projections, and
per-entity aggregation.

    >>> q = (Query(table)
    ...      .between(day1, day2)
    ...      .where("city", "==", 3)
    ...      .where("fare", ">", 10.0))
    >>> q.count()
    >>> q.aggregate("fare", "mean")
    >>> q.group_by_entity("fare", "sum")

Execution is **vectorized**, on one path: predicates compile to numpy
boolean masks over the offline table's per-partition column frames
(NULL-mask semantics preserved — NULL never satisfies a comparison,
including ``!=``), ``limit`` keeps the first matches of the cumulative mask
in scan order, and ``rows``/``count``/``values``/``aggregate``/
``group_by_entity`` all read the masked frames. :meth:`Predicate.matches`
is the per-row definition each mask is held to by the parity suite.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.storage.offline import OfflineTable

_OPERATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
}

_ORDERINGS = frozenset({"<", "<=", ">", ">="})

#: values ``in`` tests membership of; any other operator compares one
#: value, and a container there would broadcast in :meth:`Predicate.mask`
_CONTAINERS = (list, tuple, set, frozenset, dict, np.ndarray)

_AGGREGATES = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "count": len,
    "std": np.std,
}

_VALUE_DTYPES = {"float": np.float64, "int": np.int64, "string": object}


@dataclass(frozen=True)
class Predicate:
    """One column filter. NULL values never satisfy a comparison.

    The value's shape is checked here (``in`` takes a container, every
    other comparison one value) and its kind against the column by
    :meth:`check_kind`, so a bad filter fails when the query is built,
    whatever data the table holds.
    """

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS and self.op != "not_null":
            raise ValidationError(
                f"unknown operator {self.op!r}; allowed "
                f"{sorted(_OPERATORS) + ['not_null']}"
            )
        if self.op == "in" and not isinstance(self.value, _CONTAINERS):
            raise ValidationError(
                f"operator 'in' on {self.column!r} needs a list, tuple, set, "
                f"dict or array, got {type(self.value).__name__}"
            )
        if self.op not in ("in", "not_null") and isinstance(
            self.value, _CONTAINERS
        ):
            raise ValidationError(
                f"operator {self.op!r} on {self.column!r} compares one value, "
                f"got a {type(self.value).__name__}"
            )

    def check_kind(self, kind: str) -> None:
        """Reject an ordering whose value cannot be ordered against a
        column of ``kind`` (``"string"`` needs a str, numeric kinds a
        number)."""
        if self.op not in _ORDERINGS:
            return
        if kind == "string":
            ok = isinstance(self.value, str)
        else:
            ok = isinstance(self.value, numbers.Real)
        if not ok:
            raise ValidationError(
                f"operator {self.op!r} on {kind} column {self.column!r} "
                f"cannot take {self.value!r}"
            )

    def matches(self, row: dict[str, object]) -> bool:
        value = row.get(self.column)
        if self.op == "not_null":
            return value is not None
        if value is None:
            return False
        return bool(_OPERATORS[self.op](value, self.value))

    def mask(self, values: np.ndarray, null: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`matches` over a column slice.

        ``values``/``null`` are a column frame slice; NULL positions are
        masked out for every operator except ``not_null``. ``in`` and every
        operator on an object (string) column see only the non-NULL values,
        so an ordering never meets a ``None``; ``in`` is tested per element
        in Python, because ``np.isin`` may sort mixed types.
        """
        if self.op == "not_null":
            return ~null
        if self.op == "in" or values.dtype == object:
            present = ~null
            hit = np.zeros(values.shape, dtype=bool)
            if self.op == "in":
                hit[present] = [v in self.value for v in values[present]]  # type: ignore[operator]
            else:
                hit[present] = _OPERATORS[self.op](values[present], self.value)
            return hit
        with np.errstate(invalid="ignore"):
            hit = np.asarray(_OPERATORS[self.op](values, self.value), dtype=bool)
        if hit.shape != values.shape:  # incomparable scalar -> numpy collapses
            hit = np.full(values.shape, bool(hit), dtype=bool)
        return hit & ~null


@dataclass
class Query:
    """Immutable-ish fluent query over one offline table.

    Builder methods return ``self`` for chaining; a query can be executed
    multiple times (it re-scans the table, so it sees new appends).
    """

    table: OfflineTable
    _predicates: list[Predicate] = field(default_factory=list)
    _start: float | None = None
    _end: float | None = None
    _columns: tuple[str, ...] | None = None
    _limit: int | None = None

    def _known_columns(self) -> set[str]:
        return set(self.table.schema.columns) | {"entity_id", "timestamp"}

    def where(self, column: str, op: str, value: object = None) -> "Query":
        """Add a predicate; comparisons against NULL are always false."""
        if column not in self._known_columns():
            raise ValidationError(
                f"table {self.table.name!r} has no column {column!r}"
            )
        predicate = Predicate(column=column, op=op, value=value)
        predicate.check_kind(self.table.schema.column_kind(column))
        self._predicates.append(predicate)
        return self

    def between(self, start: float | None, end: float | None) -> "Query":
        """Restrict to ``start <= timestamp < end`` (partition pushdown)."""
        self._start = start
        self._end = end
        return self

    def select(self, *columns: str) -> "Query":
        unknown = set(columns) - self._known_columns()
        if unknown:
            raise ValidationError(f"unknown columns {sorted(unknown)}")
        self._columns = columns
        return self

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise ValidationError(f"limit must be >= 0 ({n=})")
        self._limit = n
        return self

    # -- execution -------------------------------------------------------------

    def _frame_masks(self) -> Iterator[tuple[object, int, int, np.ndarray]]:
        """Yield ``(frame, lo, hi, mask)`` per overlapping partition.

        ``mask`` is boolean over the ``[lo, hi)`` time slice, the conjunction
        of all compiled predicates. Under a ``limit`` the cumulative mask is
        cut in scan order: only the first ``limit`` matches stay set, and
        the scan stops once they are found.
        """
        remaining = self._limit
        for frame, lo, hi in self.table.scan_frames(self._start, self._end):
            if remaining == 0:
                return
            mask = np.ones(hi - lo, dtype=bool)
            for predicate in self._predicates:
                if not mask.any():
                    break
                values, null = frame.column(predicate.column)
                mask &= predicate.mask(values[lo:hi], null[lo:hi])
            if remaining is not None:
                hits = np.flatnonzero(mask)
                if len(hits) > remaining:
                    mask[hits[remaining]:] = False
                remaining -= min(len(hits), remaining)
            yield frame, lo, hi, mask

    def rows(self) -> list[dict[str, object]]:
        """Materialize matching rows (projected if ``select`` was used)."""
        out = []
        for frame, lo, __, mask in self._frame_masks():
            for offset in np.flatnonzero(mask):
                row = frame.rows[lo + int(offset)]
                if self._columns is None:
                    out.append(dict(row))
                else:
                    out.append({c: row.get(c) for c in self._columns})
        return out

    def count(self) -> int:
        return sum(int(mask.sum()) for __, __, __, mask in self._frame_masks())

    def values(self, column: str) -> np.ndarray:
        """Non-NULL values of one column across matching rows.

        The array dtype follows the column: float64 for float columns,
        int64 for int columns (and ``entity_id``), object for strings.
        """
        if column not in self._known_columns():
            raise ValidationError(f"unknown column {column!r}")
        kind = self.table.schema.column_kind(column)
        pieces: list[np.ndarray] = []
        for frame, lo, hi, mask in self._frame_masks():
            values, null = frame.column(column)
            keep = mask & ~null[lo:hi]
            if keep.any():
                pieces.append(values[lo:hi][keep])
        if not pieces:
            return np.array([], dtype=_VALUE_DTYPES[kind])
        return np.concatenate(pieces)

    def aggregate(self, column: str, agg: str) -> float | None:
        """Scalar aggregate over matching non-NULL values.

        ``None`` when nothing matches (``count`` returns 0.0 instead).
        String columns are rejected with :class:`ValidationError` — scalar
        aggregates are numeric.
        """
        if agg not in _AGGREGATES:
            raise ValidationError(
                f"unknown aggregate {agg!r}; allowed {sorted(_AGGREGATES)}"
            )
        if column in self._known_columns() and (
            self.table.schema.column_kind(column) == "string"
        ):
            raise ValidationError(
                f"cannot aggregate string column {column!r}; aggregates "
                "require a numeric column (use count() or rows() instead)"
            )
        values = self.values(column)
        if len(values) == 0:
            return 0.0 if agg == "count" else None
        return float(_AGGREGATES[agg](values))

    def group_by_entity(self, column: str, agg: str) -> dict[int, float]:
        """Per-entity aggregate of one column over matching rows.

        String columns are rejected with :class:`ValidationError`.
        """
        if agg not in _AGGREGATES:
            raise ValidationError(
                f"unknown aggregate {agg!r}; allowed {sorted(_AGGREGATES)}"
            )
        if column in self._known_columns() and (
            self.table.schema.column_kind(column) == "string"
        ):
            raise ValidationError(
                f"cannot aggregate string column {column!r}; aggregates "
                "require a numeric column"
            )
        # Accumulate per-entity value chunks across partitions, then apply
        # the aggregate once per entity over the concatenated array.
        chunks: dict[int, list[np.ndarray]] = {}
        for frame, lo, hi, mask in self._frame_masks():
            values, null = frame.column(column)
            keep = mask & ~null[lo:hi]
            if not keep.any():
                continue
            entities = frame.entity_ids[lo:hi][keep]
            kept = values[lo:hi][keep].astype(np.float64, copy=False)
            order = np.argsort(entities, kind="stable")
            sorted_entities = entities[order]
            sorted_values = kept[order]
            boundaries = np.flatnonzero(np.diff(sorted_entities)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(sorted_entities)]))
            for s, e in zip(starts, ends):
                chunks.setdefault(int(sorted_entities[s]), []).append(
                    sorted_values[s:e]
                )
        return {
            entity: float(_AGGREGATES[agg](np.concatenate(parts)))
            for entity, parts in chunks.items()
        }
