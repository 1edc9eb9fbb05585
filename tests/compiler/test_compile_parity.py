"""Compiled execution must be byte-identical to the reference row engine.

The optimizer may only change *how much work* is done, never the answer:
both strategies (asof-index, shared-scan) are checked against ``Plan.execute_rows`` / ``Plan.execute_rows_at`` on randomized
plans, including NULL-heavy data, empty windows, empty tables and
timestamp pushdown.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_plan, scan
from repro.errors import ValidationError
from repro.storage.offline import OfflineStore, TableSchema

from tests.compiler.conftest import DAY, make_trips, rows_equal

AS_OF = 2.5 * DAY


def fixed_plans():
    return [
        # asof-index: no predicates
        scan("trips")
        .latest("city")
        .window("fare", "mean", 2 * 3600.0)
        .derived("per_km", lambda f, d: f / d, inputs=("fare", "distance")),
        # shared-scan: numeric mask
        scan("trips")
        .filter("fare", ">", 20.0)
        .window("fare", "sum", 3600.0)
        .window("tips", "count", 2 * 3600.0),
        # shared-scan: timestamp pushdown + mask
        scan("trips")
        .filter("timestamp", ">=", DAY)
        .filter("distance", "<=", 15.0)
        .select("fare", "tips"),
        # shared-scan: string equality is vectorizable
        scan("trips")
        .filter("city", "==", "sf")
        .window("fare", "std", 12 * 3600.0)
        .latest("tips"),
        # shared-scan: string membership is a mask too
        scan("trips")
        .filter("city", "in", ["nyc", "chi"])
        .window("fare", "max", DAY),
        # not_null predicate
        scan("trips").filter("tips", "not_null").window("tips", "last", DAY),
    ]


class TestFixedPlanParity:
    @pytest.mark.parametrize("index", range(len(fixed_plans())))
    def test_evaluate_matches_row_engine(self, trips, index):
        plan = fixed_plans()[index]
        reference = plan.execute_rows(trips, AS_OF)
        compiled = compile_plan(plan, trips)
        assert rows_equal(compiled.evaluate(AS_OF), reference)
        # The materialization shape emits a row per matching entity.
        assert len(reference) <= 40

    @pytest.mark.parametrize("index", range(len(fixed_plans())))
    def test_asof_join_matches_row_engine(self, trips, index):
        plan = fixed_plans()[index]
        rng = np.random.default_rng(index)
        eids = [int(e) for e in rng.integers(0, 45, size=120)]
        ts = [float(t) for t in rng.uniform(0, 3 * DAY, size=120)]
        reference = plan.execute_rows_at(trips, eids, ts)
        compiled = compile_plan(plan, trips)
        got = compiled.evaluate_at(eids, ts)
        assert rows_equal(got, reference)
        assert len(got) == 120  # one row per probe, misses included

    def test_entity_subset(self, trips):
        plan = fixed_plans()[1]
        subset = [0, 3, 7, 999]  # 999 never appears in the table
        reference = plan.execute_rows(trips, AS_OF, entity_ids=subset)
        got = compile_plan(plan, trips).evaluate(AS_OF, entity_ids=subset)
        assert rows_equal(got, reference)


class TestStringPredicateParity:
    """String ordering and membership over a NULL-bearing column (``city``
    is None in about a quarter of the rows) are masks like any other."""

    @pytest.mark.parametrize(
        "op, value",
        [("<", "nyc"), ("<=", "nyc"), (">", "chi"), (">=", "sf"),
         ("in", ("chi", "sf"))],
    )
    def test_string_predicate_matches_row_engine(self, trips, op, value):
        plan = (
            scan("trips")
            .filter("city", op, value)
            .window("fare", "sum", DAY)
            .latest("city")
        )
        compiled = compile_plan(plan, trips)
        assert compiled.strategy == "shared-scan"
        assert rows_equal(compiled.evaluate(AS_OF), plan.execute_rows(trips, AS_OF))
        rng = np.random.default_rng(5)
        eids = [int(e) for e in rng.integers(0, 45, size=60)]
        ts = [float(t) for t in rng.uniform(0, 3 * DAY, size=60)]
        assert rows_equal(
            compiled.evaluate_at(eids, ts), plan.execute_rows_at(trips, eids, ts)
        )

    def test_mismatched_type_raises_like_row_engine(self, trips):
        plan = scan("trips").filter("city", "<", 5).latest("fare")
        # The reference meets the mismatch row by row; compiling binds
        # the plan, which refuses it before any row is read.
        with pytest.raises(TypeError):
            plan.execute_rows(trips, AS_OF)
        with pytest.raises(ValidationError, match="string column 'city'"):
            compile_plan(plan, trips)


class TestEdgeCases:
    def test_empty_table(self):
        store = OfflineStore()
        table = store.create_table(
            "trips", TableSchema(columns={"fare": "float"})
        )
        plan = scan("trips").filter("fare", ">", 0.0).latest("fare")
        assert compile_plan(plan, table).evaluate(100.0) == []
        got = compile_plan(plan, table).evaluate_at([1], [50.0])
        assert got == [{"entity_id": 1, "timestamp": 50.0, "fare": None}]

    def test_as_of_before_all_events(self, trips):
        plan = fixed_plans()[0]
        assert compile_plan(plan, trips).evaluate(-1.0) == []

    def test_predicate_rejecting_everything(self, trips):
        plan = scan("trips").filter("fare", ">", 1e9).latest("fare")
        assert compile_plan(plan, trips).evaluate(AS_OF) == []

    def test_pushdown_prunes_partitions(self, trips):
        plan = (
            scan("trips").filter("timestamp", ">=", 2 * DAY).latest("fare")
        )
        compiled = compile_plan(plan, trips)
        reference = plan.execute_rows(trips, AS_OF)
        assert rows_equal(compiled.evaluate(AS_OF), reference)
        stats = compiled.stats
        assert stats["rows_pruned"] > 0
        assert stats["rows_scanned"] + stats["rows_pruned"] == len(trips)

    def test_wrong_table_rejected(self, trips):
        plan = scan("other").latest("fare")
        with pytest.raises(ValidationError):
            compile_plan(plan, trips)

    def test_count_on_empty_window_is_zero(self):
        store = OfflineStore()
        table = store.create_table(
            "trips", TableSchema(columns={"fare": "float"})
        )
        table.append(
            [{"entity_id": 1, "timestamp": 10.0, "fare": 5.0}]
        )
        plan = (
            scan("trips")
            .window("fare", "count", 60.0, as_="c")
            .window("fare", "mean", 60.0, as_="m")
        )
        # as_of far beyond the window: latest event exists, window empty
        got = compile_plan(plan, table).evaluate(10_000.0)
        reference = plan.execute_rows(table, 10_000.0)
        assert rows_equal(got, reference)
        assert got[0]["c"] == 0.0
        assert got[0]["m"] is None


@st.composite
def random_world(draw):
    seed = draw(st.integers(0, 2**16))
    n_rows = draw(st.integers(0, 400))
    n_entities = draw(st.integers(1, 12))
    null_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    aggs = st.sampled_from(
        ["mean", "sum", "min", "max", "std", "count", "last"]
    )
    features = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("latest"), st.sampled_from(
                    ["fare", "distance", "tips", "city"]
                )),
                st.tuples(
                    st.just("window"),
                    st.sampled_from(["fare", "distance", "tips"]),
                    aggs,
                    st.floats(min_value=600.0, max_value=2 * DAY),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    predicates = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["fare", "distance"]),
                    st.sampled_from([">", ">=", "<", "<=", "==", "!="]),
                    st.floats(min_value=0.0, max_value=100.0),
                ),
                st.tuples(
                    st.just("city"),
                    st.sampled_from(["==", "!="]),
                    st.sampled_from(["nyc", "sf", "chi"]),
                ),
                st.tuples(
                    st.just("city"),
                    st.just("in"),
                    st.just(["nyc", "sf"]),
                ),
                st.tuples(
                    st.just("city"),
                    st.sampled_from(["<", "<=", ">", ">="]),
                    st.sampled_from(["chi", "nyc", "o", "sf"]),
                ),
                st.tuples(
                    st.just("city"), st.just("not_null"), st.none()
                ),
                st.tuples(
                    st.just("timestamp"),
                    st.sampled_from([">=", "<", ">", "<="]),
                    st.floats(min_value=0.0, max_value=3 * DAY),
                ),
            ),
            max_size=3,
        )
    )
    as_of = draw(st.floats(min_value=0.0, max_value=3.5 * DAY))
    return seed, n_rows, n_entities, null_rate, features, predicates, as_of


class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(random_world())
    def test_randomized_plan_parity(self, world):
        seed, n_rows, n_entities, null_rate, features, predicates, as_of = world
        table = make_trips(
            n_rows=n_rows,
            n_entities=n_entities,
            null_rate=null_rate,
            seed=seed,
        )
        plan = scan("trips")
        for predicate in predicates:
            column, op, value = predicate
            if op == "not_null":
                plan = plan.filter(column, "not_null")
            else:
                plan = plan.filter(column, op, value)
        used = set()
        for i, feature in enumerate(features):
            name = f"f{i}"
            if feature[0] == "latest":
                plan = plan.latest(feature[1], as_=name)
            else:
                __, column, agg, window = feature
                plan = plan.window(column, agg, window, as_=name)
            used.add(name)

        reference = plan.execute_rows(table, as_of)
        compiled = compile_plan(plan, table)
        assert rows_equal(compiled.evaluate(as_of), reference)

        rng = np.random.default_rng(seed)
        n_probes = 30
        eids = [int(e) for e in rng.integers(0, n_entities + 2, size=n_probes)]
        ts = [float(t) for t in rng.uniform(0, 3.5 * DAY, size=n_probes)]
        assert rows_equal(
            compiled.evaluate_at(eids, ts),
            plan.execute_rows_at(table, eids, ts),
        )
