"""Unit + oracle tests for repro.core.normalize (paper §3.2 rules)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.normalize import ATTR_COL, VALUE_COL, normalize_cells
from repro.oracle import assert_equivalent


#: Values padded with Unicode White_Space beyond ASCII, and one with
#: U+FEFF, which is not whitespace: Python's ``str.strip`` is the reference.
UNICODE_PADDED = [
    "\u00a0JAGUAR\u00a0",
    "\u3000JAGUAR",
    "JAGUAR\u2003",
    "\u0085\u1680Puma\u2028\u2029",
    "\u2000\u200aa b\u202f\u205f",
    "\x0b\x0ccr\r",
    "\ufeffJAGUAR",
]


def _cells(spark, values):
    pdf = pd.DataFrame(
        {"table_id": "T", "col_id": "c", "value": values}
    )
    return spark.createDataFrame(pdf, schema="table_id string, col_id string, value string")


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("jaguar", "JAGUAR"),
        ("  Puma  ", "PUMA"),
        ("MiXeD CaSe", "MIXED CASE"),
        ("\tTabbed\n", "TABBED"),
        ("01223", "01223"),
        (".", "."),
        ("NA", "NA"),
        ("already UPPER", "ALREADY UPPER"),
    ]
    + [(raw, raw.strip().upper()) for raw in UNICODE_PADDED],
)
def test_norm_value_cases(spark, raw, expected):
    out = normalize_cells(_cells(spark, [raw])).collect()
    assert [r[VALUE_COL] for r in out] == [expected]


@pytest.mark.parametrize("raw", [None, "", "   ", "\t\n", "\u00a0\u3000"])
def test_null_and_empty_dropped(spark, raw):
    assert normalize_cells(_cells(spark, [raw])).count() == 0


def test_attr_id_is_table_dot_column(spark):
    out = normalize_cells(
        _cells(spark, ["x"]).withColumn("col_id", F.lit("c1"))
    ).collect()
    assert out[0][ATTR_COL] == "T.c1"


def test_same_column_name_different_tables_distinct_attrs(spark):
    pdf = pd.DataFrame(
        {"table_id": ["A", "B"], "col_id": ["name", "name"], "value": ["x", "x"]}
    )
    cells = spark.createDataFrame(pdf)
    attrs = {r[ATTR_COL] for r in normalize_cells(cells).collect()}
    assert attrs == {"A.name", "B.name"}


def test_duplicates_preserved(spark):
    out = normalize_cells(_cells(spark, ["a", "A", " a "]))
    assert out.count() == 3
    assert out.distinct().count() == 1


def test_normalize_oracle(spark):
    pdf = pd.DataFrame(
        {
            "table_id": ["T"] * 6,
            "col_id": ["c"] * 6,
            "value": [" Jaguar", "PUMA ", None, "", "01223", "x y"],
        }
    )
    cells = spark.createDataFrame(pdf, schema="table_id string, col_id string, value string")
    got = normalize_cells(cells)
    assert_equivalent(
        got,
        r"""
        SELECT table_id || '.' || col_id AS attr,
               UPPER(REGEXP_REPLACE(value, '^\s+|\s+$', '', 'g')) AS value
        FROM cells
        WHERE value IS NOT NULL
          AND REGEXP_REPLACE(value, '^\s+|\s+$', '', 'g') <> ''
        """,
        cells=pdf,
    )
