"""Score ranking (paper Fig. 4 step 3).

Pairs value nodes' scores with their labels and orders them in the
measure's homograph direction — BC descending, LCC ascending — with one
sort by (score, label) on the driver. ``attach_labels`` and
``rank_values`` wrap the same steps for Spark DataFrames.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.graph import BipartiteGraph

#: Per-measure sort direction: True = ascending = homographs first.
MEASURE_ASCENDING = {"bc": False, "lcc": True}


def label_scores(
    graph: BipartiteGraph, node_ids, scores, *, score_col: str, fill: float = 0.0
) -> pd.DataFrame:
    """``(label, score)`` for every value node of the graph. Value nodes
    absent from ``node_ids`` get ``fill``; attribute nodes are dropped."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    is_value = node_ids < graph.n_values
    out = np.full(graph.n_values, float(fill))
    out[node_ids[is_value]] = np.asarray(scores, dtype=np.float64)[is_value]
    return pd.DataFrame({"label": graph.value_labels, score_col: out})


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
    """:func:`label_scores` for a Spark ``(node_id, <score_col>)`` frame."""
    pdf = scores.select("node_id", score_col).toPandas()
    labeled = label_scores(
        graph, pdf["node_id"], pdf[score_col], score_col=score_col, fill=fill
    )
    return scores.sparkSession.createDataFrame(
        labeled, schema=f"label string, {score_col} double"
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
