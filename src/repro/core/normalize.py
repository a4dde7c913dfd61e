"""Value normalization for the DomainNet graph (paper §3.2).

Every data value is treated as a single string, upper-cased, with leading
and trailing whitespace removed, "to ensure consistent comparison of data
values across the lake". NULLs and empty-after-trim values carry no
meaning and are dropped before graph construction.
"""
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

#: Name of the normalized-value column produced by :func:`normalize_cells`.
VALUE_COL = "value"
#: Name of the global attribute identifier column (``table_id.col_id``).
ATTR_COL = "attr"


def norm_value(col: Column) -> Column:
    """Catalyst expression implementing the paper's normalization:
    cast to string, trim surrounding Unicode whitespace (``(?U)``; U+FEFF
    is not whitespace and stays), upper-case."""
    return F.upper(F.regexp_replace(col.cast("string"), r"(?U)^\s+|\s+$", ""))


def attr_id(table_col: Column, col_col: Column) -> Column:
    """Global attribute identifier: ``<table_id>.<col_id>``.

    Attribute (column) identity in DomainNet is *per table*: the same
    column name in two tables is two attribute nodes.
    """
    return F.concat_ws(".", table_col, col_col)


def normalize_cells(cells: DataFrame) -> DataFrame:
    """Normalize a raw cells relation ``(table_id, col_id, value)``.

    Returns ``(attr, value)`` with values normalized per the paper and
    NULL / empty values removed. Duplicates are retained — callers that
    need set semantics (the bipartite graph) apply ``distinct`` there,
    keeping this step a pure row-wise Catalyst projection.
    """
    out = cells.select(
        attr_id(F.col("table_id"), F.col("col_id")).alias(ATTR_COL),
        norm_value(F.col("value")).alias(VALUE_COL),
    )
    return out.where(F.col(VALUE_COL).isNotNull() & (F.col(VALUE_COL) != ""))
