"""Tests for repro.storage.query."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.storage.offline import OfflineTable, TableSchema
from repro.storage.query import Query

DAY = 86400.0


@pytest.fixture
def table():
    t = OfflineTable(
        "rides", TableSchema(columns={"fare": "float", "city": "int"})
    )
    t.append(
        [
            {"entity_id": 1, "timestamp": 0.1 * DAY, "fare": 10.0, "city": 0},
            {"entity_id": 1, "timestamp": 0.2 * DAY, "fare": 20.0, "city": 1},
            {"entity_id": 2, "timestamp": 1.1 * DAY, "fare": 30.0, "city": 0},
            {"entity_id": 2, "timestamp": 1.2 * DAY, "fare": None, "city": 1},
            {"entity_id": 3, "timestamp": 2.5 * DAY, "fare": 50.0, "city": None},
        ]
    )
    return t


class TestPredicates:
    def test_equality(self, table):
        assert Query(table).where("city", "==", 0).count() == 2

    def test_comparison(self, table):
        assert Query(table).where("fare", ">", 15.0).count() == 3
        assert Query(table).where("fare", "<=", 20.0).count() == 2

    def test_in(self, table):
        assert Query(table).where("city", "in", (0, 1)).count() == 4

    def test_not_null(self, table):
        assert Query(table).where("fare", "not_null").count() == 4
        assert Query(table).where("city", "not_null").count() == 4

    def test_null_never_matches_comparisons(self, table):
        # Row 4 has fare=None: excluded even by != comparisons.
        assert Query(table).where("fare", "!=", 10.0).count() == 3

    def test_conjunction(self, table):
        count = (
            Query(table).where("city", "==", 0).where("fare", ">", 15.0).count()
        )
        assert count == 1

    def test_entity_and_timestamp_filterable(self, table):
        assert Query(table).where("entity_id", "==", 2).count() == 2
        assert Query(table).where("timestamp", ">=", 1.0 * DAY).count() == 3

    def test_unknown_column_or_op_rejected(self, table):
        with pytest.raises(ValidationError):
            Query(table).where("nope", "==", 1)
        with pytest.raises(ValidationError):
            Query(table).where("fare", "~~", 1)


class TestPredicateValues:
    """Bad predicate values fail when the query is built, whatever the data."""

    @pytest.mark.parametrize(
        "value",
        [[10.0], [10.0, 20.0], (10.0,), {10.0}, {10.0: 1}, np.array([10.0])],
        ids=["list1", "list2", "tuple", "set", "dict", "ndarray"],
    )
    def test_comparison_rejects_a_container(self, table, value):
        # A one-element list used to broadcast in the mask (matching the
        # 10.0 row, where the row definition 10.0 == [10.0] matches none)
        # and a two-element one to raise numpy's broadcast ValueError.
        for op in ("==", "!=", "<", "<=", ">", ">="):
            with pytest.raises(ValidationError, match="compares one value"):
                Query(table).where("fare", op, value)

    @pytest.mark.parametrize("value", [1, 1.5, "a", None])
    def test_in_rejects_a_non_container(self, table, value):
        with pytest.raises(ValidationError, match="'in'"):
            Query(table).where("city", "in", value)

    @pytest.mark.parametrize(
        "value", [[0, 1], (0, 1), {0, 1}, {0: "a", 1: "b"}, np.array([0, 1])]
    )
    def test_in_accepts_containers(self, table, value):
        assert Query(table).where("city", "in", value).count() == 4

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_ordering_checks_the_column_kind(self, op):
        table = OfflineTable(
            "t", TableSchema(columns={"x": "float", "s": "string"})
        )
        with pytest.raises(ValidationError, match="string column 's'"):
            Query(table).where("s", op, 1)
        with pytest.raises(ValidationError, match="float column 'x'"):
            Query(table).where("x", op, "a")
        with pytest.raises(ValidationError, match="int column 'entity_id'"):
            Query(table).where("entity_id", op, None)
        assert Query(table).where("s", op, "a").count() == 0
        assert Query(table).where("x", op, np.int64(1)).count() == 0

    def test_kind_mismatch_fails_before_any_row_reaches_it(self):
        table = OfflineTable(
            "t", TableSchema(columns={"x": "float", "s": "string"})
        )
        table.append(
            [{"entity_id": 1, "timestamp": 0.0, "x": 1.0, "s": "a"}]
        )
        # No row passes x > 9, so the mask never compared "a" < 1.
        with pytest.raises(ValidationError):
            Query(table).where("x", ">", 9.0).where("s", "<", 1)

    def test_equality_across_kinds_stays_legal(self, table):
        assert Query(table).where("fare", "==", "10").count() == 0
        assert Query(table).where("fare", "not_null", [1]).count() == 4


class TestTimeRangeAndProjection:
    def test_between_half_open(self, table):
        assert Query(table).between(0.2 * DAY, 1.2 * DAY).count() == 2

    def test_select_projects(self, table):
        rows = Query(table).select("fare").limit(1).rows()
        assert rows == [{"fare": 10.0}]

    def test_select_unknown_rejected(self, table):
        with pytest.raises(ValidationError):
            Query(table).select("ghost")

    def test_limit(self, table):
        assert len(Query(table).limit(2).rows()) == 2
        assert Query(table).limit(0).rows() == []
        assert Query(table).where("fare", "not_null").limit(3).count() == 3
        with pytest.raises(ValidationError):
            Query(table).limit(-1)

    def test_rows_are_copies(self, table):
        rows = Query(table).rows()
        rows[0]["fare"] = 999.0
        assert Query(table).rows()[0]["fare"] == 10.0

    def test_query_sees_new_appends(self, table):
        q = Query(table).where("city", "==", 0)
        before = q.count()
        table.append(
            [{"entity_id": 9, "timestamp": 3.0 * DAY, "fare": 1.0, "city": 0}]
        )
        assert q.count() == before + 1


class TestAggregation:
    def test_scalar_aggregates(self, table):
        q = Query(table)
        assert q.aggregate("fare", "sum") == 110.0
        assert q.aggregate("fare", "mean") == pytest.approx(27.5)
        assert q.aggregate("fare", "min") == 10.0
        assert q.aggregate("fare", "max") == 50.0
        assert q.aggregate("fare", "count") == 4.0  # NULL excluded

    def test_empty_aggregate(self, table):
        q = Query(table).where("fare", ">", 1000.0)
        assert q.aggregate("fare", "mean") is None
        assert q.aggregate("fare", "count") == 0.0

    def test_unknown_aggregate(self, table):
        with pytest.raises(ValidationError):
            Query(table).aggregate("fare", "median")

    def test_group_by_entity(self, table):
        grouped = Query(table).group_by_entity("fare", "sum")
        assert grouped == {1: 30.0, 2: 30.0, 3: 50.0}

    def test_group_by_with_filter(self, table):
        grouped = Query(table).where("city", "==", 0).group_by_entity("fare", "mean")
        assert grouped == {1: 10.0, 2: 30.0}

    def test_values_skips_nulls(self, table):
        values = Query(table).where("entity_id", "==", 2).values("fare")
        np.testing.assert_array_equal(values, [30.0])


class TestValueDtypes:
    """Satellite regression: values() no longer forces dtype=float."""

    @pytest.fixture
    def typed(self):
        t = OfflineTable(
            "typed", TableSchema(columns={"fare": "float", "city": "int",
                                          "note": "string"})
        )
        t.append(
            [
                {"entity_id": 1, "timestamp": 1.0, "fare": 10.0, "city": 3,
                 "note": "a"},
                {"entity_id": 2, "timestamp": 2.0, "fare": None, "city": None,
                 "note": None},
                {"entity_id": 2, "timestamp": 3.0, "fare": 20.0, "city": 5,
                 "note": "b"},
            ]
        )
        return t

    def test_float_column_dtype(self, typed):
        values = Query(typed).values("fare")
        assert values.dtype == np.float64
        np.testing.assert_array_equal(values, [10.0, 20.0])

    def test_int_column_dtype(self, typed):
        values = Query(typed).values("city")
        assert values.dtype == np.int64
        np.testing.assert_array_equal(values, [3, 5])
        assert Query(typed).values("entity_id").dtype == np.int64

    def test_string_column_returns_objects(self, typed):
        values = Query(typed).values("note")
        assert values.dtype == object
        assert list(values) == ["a", "b"]

    def test_string_values_on_row_path_too(self, typed):
        values = Query(typed).limit(2).values("note")  # limit cuts the mask
        assert values.dtype == object
        assert list(values) == ["a"]  # row 2 has note NULL

    def test_empty_results_keep_dtype(self, typed):
        q = Query(typed).where("fare", ">", 1e9)
        assert q.values("fare").dtype == np.float64
        assert q.values("city").dtype == np.int64
        assert q.values("note").dtype == object

    def test_aggregate_string_column_rejected(self, typed):
        with pytest.raises(ValidationError, match="string column"):
            Query(typed).aggregate("note", "mean")
        with pytest.raises(ValidationError, match="string column"):
            Query(typed).aggregate("note", "count")

    def test_group_by_string_column_rejected(self, typed):
        with pytest.raises(ValidationError, match="string column"):
            Query(typed).group_by_entity("note", "sum")

    def test_int_aggregate_still_numeric(self, typed):
        assert Query(typed).aggregate("city", "sum") == 8.0

    def test_string_equality_predicate_vectorized(self, typed):
        q = Query(typed).where("note", "==", "a")
        assert q.count() == 1

    def test_string_ordering_predicate_skips_nulls(self, typed):
        # row 2's note is NULL: an ordering never compares it
        assert Query(typed).where("note", ">=", "b").count() == 1
        assert Query(typed).where("note", "<", "b").count() == 1
        assert Query(typed).where("note", "in", ("a", "b")).count() == 2
