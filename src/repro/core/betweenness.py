"""Betweenness centrality (paper §3.3, Hypothesis 3.5).

Exact BC is Brandes' algorithm (O(nm), Brandes 2001): one BFS + one
dependency-accumulation pass per source node. The approximation is the
source-sampling estimator used by the paper's Networkit setup: run
Brandes from ``s`` sampled sources and scale the summed dependencies by
``n / s``, which is unbiased for uniform sampling.

Twins: nodes with identical neighbour sets
(:func:`~repro.graph.csr.twin_classes`) have identical dependency
vectors, because swapping two twins is a graph automorphism and a twin
of the source is never interior to a shortest path from it. So the
sources collapse onto their classes: one sweep per class, from its
first source, weighted by how many sources it has. Exact BC runs one
sweep per class; sampled BC keeps its sample and its ``n / s`` scale.
This is the "identical vertices" reduction of Sariyüce et al.,
*Shattering and Compressing Networks for Betweenness Centrality*
(SDM 2013). A graph without twins gets the plain per-source sum.

Distribution: Brandes is embarrassingly parallel over sources. One
Spark job maps at most :data:`CHUNKS` fixed, contiguous chunks of
sweeps over the broadcast CSR to partial dependency vectors; the driver
adds them in chunk order, so scores are bit-identical whatever the
cluster's shape.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.csr import CSR, expand, twin_classes

#: Source chunks per BC call; each is one partial vector on the driver.
CHUNKS = 16


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
    found = np.zeros(n, dtype=bool)
    d = 0
    while frontier.size:
        srcs, nbrs = expand(indptr, indices, frontier)
        # The level's new nodes, deduplicated and sorted by id.
        found[nbrs[dist[nbrs] == -1]] = True
        new = np.flatnonzero(found)
        found[new] = False
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


def dependency_sum(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Iterable[int],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Summed :func:`brandes_dependencies` of ``sources``, in source order,
    each scaled by its entry of ``weights`` when given."""
    acc = np.zeros(len(indptr) - 1, dtype=np.float64)
    for i, s in enumerate(sources):
        delta = brandes_dependencies(indptr, indices, int(s))
        acc += delta if weights is None else weights[i] * delta
    return acc


def betweenness_exact(csr: CSR, *, normalized: bool = True) -> np.ndarray:
    """Exact BC for every node (single-process reference kernel).

    Raw scores sum dependencies over *ordered* source–target pairs (the
    undirected-graph Brandes convention); ``normalized`` divides by
    ``(n - 1)(n - 2)`` so scores are comparable across graph sizes.
    """
    bc = dependency_sum(csr.indptr, csr.indices, range(csr.n))
    return _normalize(bc, csr.n) if normalized else bc


def sample_sources(csr: CSR, n_samples: int, *, seed: int = 0) -> np.ndarray:
    """Sample distinct source nodes uniformly (§3.3)."""
    rng = np.random.default_rng(seed)
    return rng.choice(csr.n, size=min(n_samples, csr.n), replace=False)


def betweenness_values(
    spark: SparkSession,
    csr: CSR,
    *,
    sources: Iterable[int] | None = None,
    n_samples: int | None = None,
    seed: int = 0,
    normalized: bool = True,
) -> np.ndarray:
    """Distributed (approximate or exact) BC of every node, indexed by
    node id.

    ``sources=None, n_samples=None`` runs every node (exact BC).
    With ``n_samples`` the estimator scales by ``n / s`` so sampled and
    exact scores are on the same scale (and identical when ``s = n``).
    Sources that are twins (:func:`~repro.graph.csr.twin_classes`) share
    one sweep, from the first of them, weighted by their count.
    """
    if sources is None:
        if n_samples is None:
            sources = np.arange(csr.n, dtype=np.int64)
        else:
            sources = sample_sources(csr, n_samples, seed=seed)
    sources = np.asarray(list(sources), dtype=np.int64)
    n, s = csr.n, len(sources)
    _, first, counts = np.unique(
        twin_classes(csr)[sources], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    reps, weights = sources[first[order]], counts[order].astype(np.float64)
    k = min(CHUNKS, max(1, len(reps)))
    chunks = list(zip(np.array_split(reps, k), np.array_split(weights, k)))
    sc = spark.sparkContext
    bcast = sc.broadcast((csr.indptr, csr.indices))
    # More tasks than cores only adds scheduling cost; a task runs its
    # chunks one by one, each still a partial of its own.
    partials = (
        sc.parallelize(chunks, min(len(chunks), sc.defaultParallelism))
        .map(lambda chunk: dependency_sum(*bcast.value, *chunk))
        .collect()
    )
    bcast.destroy()
    bc = sum(partials, np.zeros(n))
    if s:
        bc *= n / s
    return _normalize(bc, n) if normalized else bc


def betweenness_spark(spark: SparkSession, csr: CSR, **kwargs) -> DataFrame:
    """:func:`betweenness_values`, which takes the same arguments, as a
    Spark DataFrame ``(node_id, bc)`` of the nodes with nonzero BC."""
    bc = betweenness_values(spark, csr, **kwargs)
    nz = np.flatnonzero(bc)
    return spark.createDataFrame(
        pd.DataFrame({"node_id": nz, "bc": bc[nz]}), schema="node_id long, bc double"
    )


def _normalize(bc: np.ndarray, n: int) -> np.ndarray:
    return bc / float((n - 1) * (n - 2)) if n > 2 else bc
