"""Data-lake substrate: the cells relation and lake-level statistics.

A *data lake* here is one Spark DataFrame with schema
``(table_id string, col_id string, value string)`` — one row per cell
occurrence. Generators in this package emit this relation; the DomainNet
core consumes the normalized ``(attr, value)`` projection of it.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.normalize import has_value, norm_value

#: Canonical cells schema used by every lake generator.
CELLS_SCHEMA = "table_id string, col_id string, value string"


def lake_from_tables(
    spark: SparkSession, tables: Mapping[str, Mapping[str, Sequence[object]]]
) -> DataFrame:
    """Build a cells DataFrame from ``{table_id: {col_id: [values...]}}``.

    Intended for tests and small fixtures (e.g. the paper's Figure 1).
    Columns of one table may have different lengths; each column
    contributes its own cells independently, as DomainNet never uses row
    alignment (paper §3.2 rejects row context).
    """
    rows = [
        (t, c, None if v is None else str(v))
        for t, cols in tables.items()
        for c, vals in cols.items()
        for v in vals
    ]
    pdf = pd.DataFrame(rows, columns=["table_id", "col_id", "value"])
    return lake_from_memberships(spark, pdf)


def lake_from_memberships(spark: SparkSession, memberships: pd.DataFrame) -> DataFrame:
    """Build a cells DataFrame from a pandas ``(table_id, col_id, value)``
    membership frame, one row per cell occurrence (a repeated cell stays
    repeated). Every lake enters Spark here: the generators assemble
    their memberships vectorized in pandas/numpy, and
    :func:`lake_from_tables` builds its frame from nested lists."""
    return spark.createDataFrame(
        memberships[["table_id", "col_id", "value"]], schema=CELLS_SCHEMA
    )


def lake_stats(cells: DataFrame) -> dict:
    """Table-1-style statistics of a lake: #tables, #attributes, and
    #distinct normalized values, in one aggregation over the raw cells.
    A column counts as an attribute even if it holds no value."""
    value = norm_value(F.col("value"))
    row = cells.select(
        F.countDistinct("table_id").alias("n_tables"),
        F.countDistinct("table_id", "col_id").alias("n_attrs"),
        F.countDistinct(F.when(has_value(value), value)).alias("n_values"),
    ).collect()[0]
    return {"n_tables": row.n_tables, "n_attrs": row.n_attrs, "n_values": row.n_values}
