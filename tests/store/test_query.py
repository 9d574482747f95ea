"""The typed query surface: filters, ordering, grouping, numpy access."""

import numpy as np
import pytest

from repro.store.query import QueryResult, build_where

from .conftest import avf_row


@pytest.fixture
def seeded(store):
    store.put_avf_rows(
        [
            avf_row(workload="matmul", sdc_avf=0.10, due_avf=0.2),
            avf_row(workload="matmul", mode="4x1", sdc_avf=0.30,
                    due_avf=0.4),
            avf_row(workload="transpose", sdc_avf=0.20, due_avf=0.1),
            avf_row(workload="stencil", structure="vgpr", scheme="none",
                    sdc_avf=0.50, due_avf=0.0, n_groups=None,
                    window_cycles=None),
        ]
    )
    return store


class TestBuildWhere:
    def test_no_filters(self):
        assert build_where({}) == ("", [])

    def test_scalar_and_sequence(self):
        where, params = build_where(
            {"workload": "matmul", "mode": ["2x1", "4x1"]}
        )
        assert where == " WHERE mode IN (?, ?) AND workload = ?"
        assert params == ["2x1", "4x1", "matmul"]

    def test_set_values_are_sorted(self):
        _, params = build_where({"mode": {"4x1", "2x1"}})
        assert params == ["2x1", "4x1"]

    def test_empty_sequence_matches_nothing(self, seeded):
        where, params = build_where({"workload": []})
        assert "1 = 0" in where and params == []
        assert len(seeded.query(workload=[])) == 0

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError, match="unknown filter column"):
            build_where({"benchmark": "matmul"})


class TestQuery:
    def test_filters(self, seeded):
        assert len(seeded.query()) == 4
        assert len(seeded.query(workload="matmul")) == 2
        assert len(seeded.query(workload=["matmul", "stencil"])) == 3
        assert len(seeded.query(workload="matmul", mode="4x1")) == 1
        assert len(seeded.query(workload="absent")) == 0

    def test_default_order_is_canonical_key(self, seeded):
        names = [r.workload for r in seeded.query()]
        assert names == ["matmul", "matmul", "stencil", "transpose"]

    def test_custom_order_and_limit(self, seeded):
        rows = seeded.query(order_by=("structure", "workload"), limit=2)
        assert [r.workload for r in rows] == ["matmul", "matmul"]
        with pytest.raises(KeyError, match="unknown order column"):
            seeded.query(order_by=("sdc_avf",))

    def test_negative_limit_raises(self, seeded):
        """sqlite would read a negative LIMIT as no limit at all."""
        with pytest.raises(ValueError, match="limit must be >= 0"):
            seeded.query(limit=-1)
        assert len(seeded.query(limit=0)) == 0

    def test_rows_are_typed(self, seeded):
        row = seeded.query(workload="stencil")[0]
        assert row.n_groups is None and row.window_cycles is None
        other = seeded.query(workload="matmul", mode="2x1")[0]
        assert isinstance(other.n_groups, int)
        assert isinstance(other.sdc_avf, float)


class TestQueryResult:
    def test_sequence_protocol(self, seeded):
        result = seeded.query()
        assert len(result) == 4 and bool(result)
        assert result[0].workload == "matmul"
        assert [r.workload for r in result][-1] == "transpose"
        assert not QueryResult([])

    def test_value_column_is_float64_with_nan_for_null(self, seeded):
        groups = seeded.query().column("n_groups")
        assert groups.dtype == np.float64
        assert np.isnan(groups).sum() == 1

    def test_key_column_is_object(self, seeded):
        col = seeded.query().column("workload")
        assert col.dtype == object
        assert set(col) == {"matmul", "transpose", "stencil"}

    def test_to_arrays_and_dicts(self, seeded):
        arrays = seeded.query().to_arrays(("workload", "sdc_avf"))
        assert set(arrays) == {"workload", "sdc_avf"}
        dicts = seeded.query(workload="transpose").to_dicts()
        assert dicts[0]["sdc_avf"] == 0.20

    def test_aggregate(self, seeded):
        result = seeded.query(workload="matmul")
        assert result.aggregate("sdc_avf", "mean") == pytest.approx(0.2)
        assert result.aggregate("sdc_avf", "max") == 0.30
        assert result.aggregate("sdc_avf", "count") == 2

    def test_aggregates_skip_null(self, store):
        """NULL is no value, as in SQL: it neither counts nor reads as 0."""
        store.put_avf_rows([
            avf_row(workload="matmul", n_groups=1000),
            avf_row(workload="matmul", mode="4x1", n_groups=None),
            avf_row(workload="stencil", n_groups=None),
        ])
        matmul = store.query(workload="matmul")
        assert matmul.aggregate("n_groups", "mean") == 1000.0
        assert matmul.aggregate("n_groups", "count") == 1
        result = store.query()
        counts = result.group_by("workload", value="n_groups", agg="count")
        assert counts == {("matmul",): 1.0, ("stencil",): 0.0}
        means = result.group_by("workload", value="n_groups")
        assert means[("matmul",)] == 1000.0
        assert np.isnan(means[("stencil",)])
        assert np.isnan(
            store.query(workload="stencil").aggregate("n_groups", "max")
        )

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QueryResult([]).aggregate()

    def test_group_by_single_key(self, seeded):
        grouped = seeded.query().group_by("workload", value="sdc_avf")
        assert grouped == {
            ("matmul",): pytest.approx(0.2),
            ("stencil",): pytest.approx(0.5),
            ("transpose",): pytest.approx(0.2),
        }
        # deterministic: keys arrive sorted
        assert list(grouped) == sorted(grouped)

    def test_group_by_multi_key_and_agg(self, seeded):
        grouped = seeded.query().group_by(
            ("workload", "mode"), value="due_avf", agg="sum"
        )
        assert grouped[("matmul", "2x1")] == pytest.approx(0.2)
        assert grouped[("matmul", "4x1")] == pytest.approx(0.4)

    def test_group_by_bad_key_or_agg_raises(self, seeded):
        result = seeded.query()
        with pytest.raises(KeyError, match="unknown group column"):
            result.group_by("sdc_avf")
        with pytest.raises(KeyError, match="unknown aggregate"):
            result.group_by("workload", agg="median")
