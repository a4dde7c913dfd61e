"""Betweenness centrality (paper §3.3, Hypothesis 3.5).

Exact BC is Brandes' algorithm (O(nm), Brandes 2001): one BFS + one
dependency-accumulation pass per source node. The approximation is the
source-sampling estimator used by the paper's Networkit setup: run
Brandes from ``s`` sampled sources and scale the summed dependencies by
``n / s``, which is unbiased for uniform sampling.

Distribution: Brandes is embarrassingly parallel over sources. The
graph's CSR adjacency, already on the driver, is broadcast, a
DataFrame of source ids is fanned out with ``mapInPandas`` (each task
runs the numpy kernel for its sources and emits its partial dependency
vector sparsely), and partials are reduced with ``groupBy(node_id).sum``.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.csr import CSR, expand


def brandes_dependencies(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """Dependency vector ``delta_source(v)`` of one Brandes iteration.

    ``delta[source]`` is forced to 0 (the source accumulates predecessor
    contributions during the sweep but does not count toward its own BC).
    Level-synchronous and numpy-vectorized: per BFS level, edges are
    gathered via CSR slices; ``sigma`` updates and dependency pushes use
    ``np.add.at`` so duplicate targets within a level accumulate.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    d = 0
    while frontier.size:
        srcs, nbrs = expand(indptr, indices, frontier)
        new = np.unique(nbrs[dist[nbrs] == -1])
        dist[new] = d + 1
        on_dag = dist[nbrs] == d + 1
        np.add.at(sigma, nbrs[on_dag], sigma[srcs[on_dag]])
        frontier = new
        if frontier.size:
            levels.append(frontier)
        d += 1

    delta = np.zeros(n, dtype=np.float64)
    for frontier in reversed(levels[:-1] if len(levels) > 1 else []):
        srcs, nbrs = expand(indptr, indices, frontier)
        on_dag = dist[nbrs] == dist[srcs] + 1
        s_sel, n_sel = srcs[on_dag], nbrs[on_dag]
        np.add.at(delta, s_sel, sigma[s_sel] / sigma[n_sel] * (1.0 + delta[n_sel]))
    delta[source] = 0.0
    return delta


def betweenness_exact(csr: CSR, *, normalized: bool = True) -> np.ndarray:
    """Exact BC for every node (single-process reference kernel).

    Raw scores sum dependencies over *ordered* source–target pairs (the
    undirected-graph Brandes convention); ``normalized`` divides by
    ``(n - 1)(n - 2)`` so scores are comparable across graph sizes.
    """
    bc = np.zeros(csr.n, dtype=np.float64)
    for s in range(csr.n):
        bc += brandes_dependencies(csr.indptr, csr.indices, s)
    return _normalize(bc, csr.n) if normalized else bc


def sample_sources(csr: CSR, n_samples: int, *, seed: int = 0) -> np.ndarray:
    """Sample distinct source nodes uniformly (§3.3)."""
    rng = np.random.default_rng(seed)
    return rng.choice(csr.n, size=min(n_samples, csr.n), replace=False)


def betweenness_spark(
    spark: SparkSession,
    csr: CSR,
    *,
    sources: Iterable[int] | None = None,
    n_samples: int | None = None,
    seed: int = 0,
    normalized: bool = True,
    parallelism: int | None = None,
) -> DataFrame:
    """Distributed (approximate or exact) BC: ``(node_id, bc)``.

    ``sources=None, n_samples=None`` runs every node (exact BC).
    With ``n_samples`` the estimator scales by ``n / s`` so sampled and
    exact scores are on the same scale (and identical when ``s = n``).
    """
    if sources is None:
        if n_samples is None:
            sources = np.arange(csr.n, dtype=np.int64)
        else:
            sources = sample_sources(csr, n_samples, seed=seed)
    sources = np.asarray(list(sources), dtype=np.int64)
    n, s = csr.n, len(sources)
    scale = 1.0 if s in (0, n) else n / s
    sc = spark.sparkContext
    bcast = sc.broadcast((csr.indptr, csr.indices))
    parallelism = parallelism or sc.defaultParallelism

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        indptr, indices = bcast.value
        acc = np.zeros(len(indptr) - 1, dtype=np.float64)
        for pdf in batches:
            for src in pdf["src"].to_numpy():
                acc += brandes_dependencies(indptr, indices, int(src))
        nz = np.flatnonzero(acc)
        yield pd.DataFrame({"node_id": nz, "partial": acc[nz]})

    src_df = spark.createDataFrame(
        pd.DataFrame({"src": sources}), schema="src long"
    ).repartition(min(parallelism, max(1, s)))
    partials = src_df.mapInPandas(compute, schema="node_id long, partial double")
    agg = partials.groupBy("node_id").agg(
        (F.sum("partial") * F.lit(float(scale))).alias("bc")
    )
    if normalized:
        denom = float((n - 1) * (n - 2)) if n > 2 else 1.0
        agg = agg.withColumn("bc", F.col("bc") / F.lit(denom))
    return agg


def _normalize(bc: np.ndarray, n: int) -> np.ndarray:
    return bc / float((n - 1) * (n - 2)) if n > 2 else bc
