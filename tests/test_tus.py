"""Tests for the TUS-lite generator (repro.lakes.tus, paper §4.2)."""
import pytest
from pyspark.sql import functions as F

from repro.core.graph import incidences
from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.lakes.tus import NULL_MARKER, definition2_truth, tus_lake
from repro.oracle import assert_equivalent
from tests.fixtures import frame_digest

SF = 0.08


@pytest.fixture(scope="module")
def lake(spark):
    return tus_lake(spark, sf=SF, seed=2)


@pytest.fixture(scope="module")
def truth(spark, lake):
    return definition2_truth(incidences(lake.cells), lake.columns)


def test_columns_metadata_covers_cells(spark, lake):
    attrs_in_cells = set(incidences(lake.cells)[ATTR_COL])
    assert attrs_in_cells == set(lake.columns.attr)


def test_every_column_single_domain(lake):
    assert (lake.columns.groupby("attr")["domain"].nunique() == 1).all()


def test_definition2_truth_oracle(spark, lake, truth):
    assert_equivalent(
        spark.createDataFrame(truth),
        """
        SELECT value AS label,
               COUNT(DISTINCT domain) >= 2 AS is_homograph
        FROM inc JOIN cols ON inc.attr = cols.attr
        GROUP BY value
        """,
        inc=incidences(lake.cells),
        cols=lake.columns[["attr", "domain"]],
    )


def test_planted_realize_as_homographs(spark, lake, truth):
    planted = set(lake.planted)
    assert planted, "generator should plant homographs at this sf"
    hom = set(truth.label[truth.is_homograph])
    assert planted <= hom


def test_numeric_collisions_exist(spark, lake, truth):
    hom = truth.label[truth.is_homograph]
    numeric_homs = hom[hom.str.fullmatch(r"[0-9]+")]
    assert len(numeric_homs) > 0


def test_null_marker_is_many_meaning_homograph(spark, lake):
    inc = incidences(lake.cells)
    col_dom = dict(zip(lake.columns.attr, lake.columns.domain))
    doms = {col_dom[a] for a in inc.loc[inc[VALUE_COL] == NULL_MARKER, ATTR_COL]}
    assert len(doms) >= 2


def test_string_tokens_are_domain_prefixed(lake):
    # unambiguous string values carry their domain prefix → no accidental
    # cross-domain collisions among non-planted string values.
    sample = lake.cells.where(F.col("value").rlike("^D[0-9]{3}:")).limit(5).collect()
    assert len(sample) == 5


def test_cardinality_skew(spark, lake):
    cards = incidences(lake.cells).groupby(ATTR_COL).size()
    assert cards.min() <= 10
    assert cards.max() >= 100
    assert cards.max() >= 5 * cards.median()


def test_no_planted_without_request(spark):
    clean = tus_lake(spark, sf=0.03, seed=3, n_planted=0, null_marker=False)
    assert clean.planted == []


def test_clean_lake_homographs_only_numeric(spark):
    clean = tus_lake(spark, sf=0.03, seed=3, n_planted=0, null_marker=False)
    t = definition2_truth(incidences(clean.cells), clean.columns)
    homs = t.label[t.is_homograph]
    assert homs.str.fullmatch(r"[0-9]+").all()


def test_deterministic_in_seed(spark):
    a = tus_lake(spark, sf=0.03, seed=9).cells.toPandas()
    b = tus_lake(spark, sf=0.03, seed=9).cells.toPandas()
    key = ["table_id", "col_id", "value"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )


def test_meanings_distribution_heavy_tailed(spark, lake, truth):
    inc = incidences(lake.cells)
    col_dom = dict(zip(lake.columns.attr, lake.columns.domain))
    inc["domain"] = inc[ATTR_COL].map(col_dom)
    meanings = inc.groupby(VALUE_COL)["domain"].nunique()
    planted = meanings[meanings.index.isin(set(lake.planted))]
    assert planted.min() >= 2
    assert planted.max() >= 3  # tail beyond the minimum


def test_tables_group_multiple_columns(lake):
    per_table = lake.columns.groupby("table_id").size()
    assert per_table.max() <= 5
    assert per_table.median() >= 3


def test_benchmark_lake_pinned(spark):
    """lakebench's ``tusi-inject`` source lake, cell for cell: a
    generator change that moves one membership, column or planted token
    fails here."""
    lake = tus_lake(spark, sf=0.2, seed=0)
    key = ["table_id", "col_id", "value"]
    cells = lake.cells.toPandas().sort_values(key, ignore_index=True)
    assert len(cells) == 31149
    assert frame_digest(cells) == (
        "8d686fd22b75099099659abd30f4b31fc0d087ff2f03924189b7e9708e9cb3a8"
    )
    assert frame_digest(lake.columns) == (
        "8f497f410b9be8a0710e3a63c8ff69987501ad28edd3a3cf265e63e5d4673cfc"
    )
    assert lake.planted == [f"HOM:{k:06d}" for k in range(400)]
