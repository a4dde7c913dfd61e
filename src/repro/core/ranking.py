"""Score ranking (paper Fig. 4 step 3).

Orders value nodes' labelled scores in the measure's homograph
direction — BC descending, LCC ascending — with one sort by (score,
label) on the driver. ``attach_labels`` labels a Spark score frame and
``rank_values`` ranks one, for callers in Spark.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.graph import BipartiteGraph

#: Per-measure sort direction: True = ascending = homographs first.
MEASURE_ASCENDING = {"bc": False, "lcc": True}


def rank_frame(labeled: pd.DataFrame, *, score_col: str, ascending: bool) -> pd.DataFrame:
    """Sort by score in the given direction, ties by label, and add a
    dense 1-based ``rank`` column."""
    out = labeled.sort_values(
        [score_col, "label"], ascending=[ascending, True], ignore_index=True
    )
    out["rank"] = np.arange(1, len(out) + 1)
    return out


def attach_labels(
    graph: BipartiteGraph, scores: DataFrame, *, score_col: str, fill: float = 0.0
) -> DataFrame:
    """``(label, <score_col>)`` for every value node of the graph, from a
    Spark ``(node_id, <score_col>)`` frame. Value nodes absent from it get
    ``fill``; attribute nodes are dropped."""
    pdf = scores.select("node_id", score_col).toPandas()
    pdf = pdf[pdf["node_id"] < graph.n_values]
    out = np.full(graph.n_values, float(fill))
    out[pdf["node_id"].to_numpy(np.int64)] = pdf[score_col].to_numpy(np.float64)
    return scores.sparkSession.createDataFrame(
        pd.DataFrame({"label": graph.value_labels, score_col: out}),
        schema=f"label string, {score_col} double",
    )


def rank_values(labeled: DataFrame, *, score_col: str, ascending: bool) -> DataFrame:
    """:func:`rank_frame` for a Spark ``(label, <score_col>)`` frame."""
    ranked = rank_frame(
        labeled.select("label", score_col).toPandas(),
        score_col=score_col, ascending=ascending,
    )
    return labeled.sparkSession.createDataFrame(
        ranked, schema=f"label string, {score_col} double, rank long"
    )
