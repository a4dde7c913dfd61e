"""Tests for the data-lake substrate (repro.lakes.datalake)."""
import pandas as pd
import pytest

from repro.lakes.datalake import (
    lake_from_memberships,
    lake_from_tables,
    lake_stats,
)
from repro.oracle import assert_equivalent
from tests.fixtures import FIGURE1_TABLES


@pytest.fixture(scope="module")
def fig1(spark):
    return lake_from_tables(spark, FIGURE1_TABLES)


def test_lake_from_tables_row_count(spark, fig1):
    expected = sum(
        len(vals) for cols in FIGURE1_TABLES.values() for vals in cols.values()
    )
    assert fig1.count() == expected


def test_lake_from_tables_schema(fig1):
    assert [f.name for f in fig1.schema.fields] == ["table_id", "col_id", "value"]
    assert all(f.dataType.typeName() == "string" for f in fig1.schema.fields)


def test_lake_stats_figure1(fig1):
    stats = lake_stats(fig1)
    assert stats["n_tables"] == 4
    assert stats["n_attrs"] == 12
    # 45 cells; repeated values (PANDA ×3, "2" ×2, JAGUAR ×4 …) collapse.
    assert stats["n_values"] == 37


def test_lake_stats_oracle(spark, fig1):
    pdf = fig1.toPandas()
    got = spark.createDataFrame(pd.DataFrame([lake_stats(fig1)]))
    assert_equivalent(
        got,
        """
        SELECT (SELECT COUNT(DISTINCT table_id) FROM cells) AS n_tables,
               (SELECT COUNT(*) FROM (SELECT DISTINCT table_id, col_id FROM cells)) AS n_attrs,
               (SELECT COUNT(DISTINCT UPPER(TRIM(value))) FROM cells
                WHERE value IS NOT NULL AND TRIM(value) <> '') AS n_values
        """,
        cells=pdf,
    )


def test_lake_from_memberships_roundtrip(spark):
    pdf = pd.DataFrame(
        {"table_id": ["t", "t"], "col_id": ["a", "b"], "value": ["x", "y"]}
    )
    df = lake_from_memberships(spark, pdf)
    assert sorted((r.col_id, r.value) for r in df.collect()) == [("a", "x"), ("b", "y")]


def test_ragged_columns_supported(spark):
    lake = lake_from_tables(spark, {"T": {"a": ["1", "2", "3"], "b": ["x"]}})
    assert lake.count() == 4
