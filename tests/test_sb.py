"""Tests for the SB generator (repro.lakes.sb, paper §4.1)."""
import pytest
from pyspark.sql import functions as F

from repro.core.graph import incidences
from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.lakes.datalake import lake_stats
from repro.lakes.sb import _HOMOGRAPHS, _TABLES, sb_lake


@pytest.fixture(scope="module")
def sb(spark):
    return sb_lake(spark, scale=0.15, seed=0)


def test_table_and_attr_counts(sb):
    stats = lake_stats(sb.cells)
    assert stats["n_tables"] == 13
    assert stats["n_attrs"] == 39


def test_55_homographs(sb):
    assert len(sb.homographs) == 55
    assert len(set(sb.homographs)) == 55


def test_17_country_state_abbreviations():
    codes = [t for t, cats in _HOMOGRAPHS.items() if set(cats) == {"country", "state"}]
    assert len(codes) == 17


def test_each_homograph_two_categories():
    for token, (a, b) in _HOMOGRAPHS.items():
        assert a != b


def test_homographs_realized_in_both_categories(spark, sb):
    """Every planted homograph must occur in ≥1 column of each category."""
    inc = incidences(sb.cells).toPandas()
    col_cat = {
        f"{t}.{c}": cat for t, c, cat in sb.columns.itertuples(index=False)
    }
    inc["category"] = inc[ATTR_COL].map(col_cat)
    cats_of = inc.groupby(VALUE_COL)["category"].agg(set)
    for token, pair in _HOMOGRAPHS.items():
        assert set(pair) <= cats_of[token], token


def test_non_homograph_values_single_category(spark, sb):
    inc = incidences(sb.cells).toPandas()
    col_cat = {
        f"{t}.{c}": cat for t, c, cat in sb.columns.itertuples(index=False)
    }
    inc["category"] = inc[ATTR_COL].map(col_cat)
    cats_of = inc.groupby(VALUE_COL)["category"].agg(set)
    multi = {v for v, cats in cats_of.items() if len(cats) > 1}
    assert multi == set(sb.homographs)


def test_closed_tables_have_real_world_sizes(spark):
    sb1 = sb_lake(spark, scale=0.15, seed=1)
    counts = (
        sb1.cells.groupBy("table_id", "col_id")
        .agg(F.countDistinct("value").alias("n"))
        .toPandas()
    )
    country = counts[(counts.table_id == "T05") & counts.col_id.str.contains("country")]
    state = counts[(counts.table_id == "T06") & counts.col_id.str.contains("state")]
    assert int(country.n.iloc[0]) == 193
    assert int(state.n.iloc[0]) == 50


def test_deterministic_in_seed(spark):
    a = sb_lake(spark, scale=0.1, seed=5).cells.toPandas()
    b = sb_lake(spark, scale=0.1, seed=5).cells.toPandas()
    assert a.sort_values(list(a.columns)).reset_index(drop=True).equals(
        b.sort_values(list(b.columns)).reset_index(drop=True)
    )


def test_different_seeds_differ(spark):
    a = sb_lake(spark, scale=0.1, seed=5).cells.count()
    df_a = sb_lake(spark, scale=0.1, seed=5).cells.toPandas()
    df_b = sb_lake(spark, scale=0.1, seed=6).cells.toPandas()
    assert not df_a.equals(df_b)


def test_scale_grows_lake(spark):
    small = lake_stats(sb_lake(spark, scale=0.1, seed=0).cells)["n_values"]
    large = lake_stats(sb_lake(spark, scale=0.3, seed=0).cells)["n_values"]
    assert large > small


def test_columns_metadata_matches_tables(sb):
    assert len(sb.columns) == 39
    assert set(sb.columns.table_id) == set(_TABLES)
