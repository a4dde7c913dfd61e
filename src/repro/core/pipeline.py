"""End-to-end DomainNet pipeline (paper Fig. 4).

(1) construct the bipartite graph from a cells relation,
(2) compute a centrality measure for every value node,
(3) rank values in the measure's homograph direction.

``measure="bc"`` is betweenness centrality (exact when
``n_samples=None``, source-sampled otherwise); ``measure="lcc"`` is the
bipartite local clustering coefficient. Steps 2 and 3 run on the driver
over the graph's arrays, apart from BC's one Spark job over sources.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.betweenness import betweenness_values
from repro.core.graph import BipartiteGraph, build_graph
from repro.core.lcc import lcc_values
from repro.core.ranking import MEASURE_ASCENDING, rank_frame


def rank_graph(
    spark: SparkSession,
    graph: BipartiteGraph,
    *,
    measure: str = "bc",
    n_samples: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """``(label, <measure>, rank)`` for every value node of ``graph``, in
    rank order; rank 1 = strongest homograph candidate."""
    if measure == "bc":
        scores = betweenness_values(spark, graph.csr, n_samples=n_samples, seed=seed)
    elif measure == "lcc":
        scores = lcc_values(graph)
    else:
        raise ValueError(f"unknown measure {measure!r} (expected 'bc' or 'lcc')")
    labeled = pd.DataFrame(
        {"label": graph.value_labels, measure: scores[: graph.n_values]}
    )
    return rank_frame(labeled, score_col=measure, ascending=MEASURE_ASCENDING[measure])


def rank_homographs(
    spark: SparkSession,
    cells: DataFrame,
    *,
    measure: str = "bc",
    n_samples: int | None = None,
    seed: int = 0,
    prune_unique: bool = True,
) -> tuple[BipartiteGraph, DataFrame]:
    """Full pipeline: lake cells → ranked homograph candidates.

    Returns the graph and :func:`rank_graph`'s ranking as a Spark
    ``(label, <measure>, rank)`` DataFrame.
    """
    graph = build_graph(cells, prune_unique=prune_unique)
    ranked = rank_graph(spark, graph, measure=measure, n_samples=n_samples, seed=seed)
    return graph, spark.createDataFrame(
        ranked, schema=f"label string, {measure} double, rank long"
    )
