"""Betweenness centrality (paper §3.3, Hypothesis 3.5).

Exact BC is Brandes' algorithm (O(nm), Brandes 2001): one BFS + one
dependency-accumulation pass per source node. The approximation is the
source-sampling estimator used by the paper's Networkit setup: run
Brandes from ``s`` sampled sources and scale the summed dependencies by
``n / s``, which is unbiased for uniform sampling.

One kernel, :func:`class_dependencies`, runs every sweep. BC runs it on
the twin-class graph below. :func:`brandes_dependencies` runs it on the
full graph with every class size 1: Fig. 9's O(s·m) kernel and the
tests' reference sums.

Twins: nodes with identical neighbour sets (the classes of
:attr:`~repro.graph.csr.CSR.twins`) have identical dependency
vectors, because swapping two twins is a graph automorphism and a twin
of the source is never interior to a shortest path from it. Twins are
never adjacent, and their class is adjacent to all of each neighbour
class. So :func:`betweenness_values` sweeps the class graph of the CSR's
cached compression, which LCC reads too, one sweep per class of sources
weighted by how many sources it has, and expands the class scores to
nodes once at the end: the "identical vertices" reduction of Sariyüce
et al., *Shattering and Compressing Networks for Betweenness
Centrality* (SDM 2013). Exact BC runs one sweep per class; sampled BC
keeps its sample and its ``n / s`` scale.

Multi-source passes: a sweep's BFS levels are short on the class
graph, so numpy's fixed cost per call, not the edges, bounds one sweep.
:func:`class_dependency_sum` therefore sweeps ``SLOTS // k`` sources of
a ``k``-class graph (:data:`SLOTS`, at least 1) in one level-synchronous
pass over that many disjoint copies of the graph, one source per copy,
and adds each source's row on its own, in source order. A pass's
per-class arrays hold at most :data:`SLOTS` entries, and the sums are
bit-identical to one sweep per source. A graph of :data:`SLOTS` classes
or more sweeps one source per pass.

Placement: Brandes is embarrassingly parallel over sources. The sweeps
form at most :data:`CHUNKS` fixed, contiguous chunks, each summed to a
partial vector by its own passes. Below :data:`DRIVER_EDGE_VISITS`
(sweeps × class-graph edges) the driver computes the partials itself,
because a Spark job would cost more than the sweeps; above it one Spark
job maps the chunks over the broadcast class graph. The driver adds the
partials in chunk order either way, so scores are bit-identical wherever
they ran and whatever the cluster's shape.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.csr import CSR, expand

#: Source chunks per BC call; each is one partial vector on the driver.
CHUNKS = 16
#: Class slots of one multi-source pass: a ``k``-class graph sweeps
#: ``SLOTS // k`` sources at once (at least 1). Measured on a 4-core box,
#: ms per class sweep with one source per pass → with this limit: SB
#: scale 0.1 (147 classes, 111 per pass) 0.53 → 0.046, TUS-lite sf=0.2
#: (3,224 classes, 5) 1.44 → 1.08, TUS-lite sf=1 (7,287, 2) 3.04 →
#: 2.84; NYC-lite sf=0.3 (8,529 classes at seed 7) keeps one. Two to eight times
#: this limit gained at most 15 % on the two small graphs and lost up to
#: 30 % on the two large ones (3.67 and 5.53 ms at 2^17), where every
#: BFS level touches arrays of sources × classes.
SLOTS = 1 << 14
#: Sweeps × class-graph directed edges below which a BC call runs its
#: chunks on the driver instead of in one Spark job. Measured on a
#: 4-core box: a Python Spark job of four tasks takes 0.33–0.46 s (one
#: task 0.19–0.31 s; a JVM-only job 0.06–0.10 s), and the driver's
#: multi-source passes visit 30–50 M class edges/s on the TUS-lite and
#: NYC-lite class graphs. The job spreads the visits over 4 cores, so
#: it breaks even near 4/3 × 0.3 s × 35 M/s ≈ 14 M visits.
DRIVER_EDGE_VISITS = 14_000_000


def brandes_dependencies(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """Dependency vector ``delta_source(v)`` of one Brandes sweep on the
    full graph: :func:`class_dependencies` with every class one node."""
    return class_dependencies(indptr, indices, np.ones(len(indptr) - 1), [source])


def dependency_sum(
    indptr: np.ndarray, indices: np.ndarray, sources: Sequence[int]
) -> np.ndarray:
    """Summed :func:`brandes_dependencies` of ``sources``, in source order."""
    n, s = len(indptr) - 1, len(sources)
    return class_dependency_sum(indptr, indices, np.ones(n), sources, np.ones(s))


def sample_sources(csr: CSR, n_samples: int, *, seed: int = 0) -> np.ndarray:
    """Sample distinct source nodes uniformly (§3.3)."""
    rng = np.random.default_rng(seed)
    return rng.choice(csr.n, size=min(n_samples, csr.n), replace=False)


def class_dependencies(
    indptr: np.ndarray, indices: np.ndarray, size: np.ndarray, sources: Sequence[int]
) -> np.ndarray:
    """Dependencies of Brandes sweeps on the class graph
    (:func:`~repro.graph.csr.compress`), one from a member ``r`` of
    each class in ``sources``, per class: the entry of class ``C`` is the
    dependency ``delta_r(v)`` of each member ``v`` of ``C``, where ``r``
    is the source in ``C``'s connected component.

    ``sources`` is ascending and holds at most one class per connected
    component, so the sweeps never meet and share one vector: one
    level-synchronous pass advances them all (multi-source BFS, Then et
    al., *The More the Merrier*, VLDB 2015).

    ``size`` holds each class's node count. The members of a class are
    all at one distance from ``r`` and adjacent to all members of their
    neighbour classes, so a class counts the paths of each member:
    ``sigma(D)`` sums ``|P| sigma(P)`` over predecessor classes ``P``
    and ``delta(C)`` sums ``|S| sigma(C) / sigma(S) (1 + delta(S))`` over
    successor classes ``S``. Only ``r`` itself is at distance 0, so every
    ``sigma`` is ``|R|`` times ``r``'s path count; the factor cancels in
    the ratios. The other ``|R| - 1`` twins of ``r`` are leaves at
    distance 2 behind every neighbour of ``r``: each neighbour gains
    ``(|R| - 1) / deg(r)``. With every size 1 this is Brandes' sweep
    on the graph itself (:func:`brandes_dependencies`).

    Level-synchronous and numpy-vectorized: the forward BFS gathers each
    level's edges from CSR slices and stores those into unseen classes,
    the shortest-path DAG; the backward pass walks the stored DAG edges
    level by level in reverse. Each level's sums go into zeros, in input
    order: a level's ``sigma`` and ``delta`` entries hold nothing before
    that level's ``np.bincount`` fills them. Every frontier is
    ascending, so each component sees its edges in the order a sweep
    from its source alone would, and its entries are bit-identical to
    that sweep's.
    """
    k = len(indptr) - 1
    sources = np.asarray(sources, dtype=np.int64)
    seen = np.zeros(k, dtype=bool)
    sigma = np.zeros(k, dtype=np.float64)
    seen[sources] = True
    sigma[sources] = 1.0
    frontier = sources
    dag = []
    found = np.zeros(k, dtype=bool)
    while frontier.size:
        srcs, nbrs = expand(indptr, indices, frontier)
        # Every edge to an unseen class is a DAG edge into the next level.
        on_dag = ~seen[nbrs]
        s_sel, n_sel = srcs[on_dag], nbrs[on_dag]
        found[n_sel] = True
        new = np.flatnonzero(found)
        found[new] = False
        seen[new] = True
        paths = size[s_sel] * sigma[s_sel]
        sigma += np.bincount(n_sel, weights=paths, minlength=k)
        dag.append((s_sel, n_sel))
        frontier = new

    delta = np.zeros(k, dtype=np.float64)
    for s_sel, n_sel in reversed(dag):
        push = size[n_sel] * sigma[s_sel] / sigma[n_sel] * (1.0 + delta[n_sel])
        delta += np.bincount(s_sel, weights=push, minlength=k)
    # Twin credit; a class of isolated nodes has no neighbour to credit.
    # Sizes are whole numbers, so each degree is an exact sum.
    owner, nbrs = expand(indptr, indices, sources)
    deg = np.bincount(owner, weights=size[nbrs], minlength=k)
    delta[nbrs] += (size[owner] - 1.0) / deg[owner]
    delta[sources] = 0.0
    return delta


def class_dependency_sum(
    indptr: np.ndarray,
    indices: np.ndarray,
    size: np.ndarray,
    sources: Sequence[int],
    weights: Sequence[float],
) -> np.ndarray:
    """Summed :func:`class_dependencies` of the classes ``sources``, in
    order, each scaled by its entry of ``weights``.

    Sources run in batches of ``B = SLOTS // k`` (at least 1) over ``B``
    disjoint copies of the ``k``-class graph, copy ``b``'s ids offset by
    ``b * k``: one pass per batch, with each source in a component of
    its own. Each source's row is added on its own, in source order, so
    the sum is bit-identical to one sweep per source.
    """
    k = len(indptr) - 1
    sources = np.asarray(sources, dtype=np.int64)
    acc = np.zeros(k, dtype=np.float64)
    b = max(1, min(len(sources), SLOTS // max(k, 1)))
    copies = np.arange(b, dtype=np.int64)
    m = len(indices)
    indptr = np.append((indptr[:-1] + m * copies[:, None]).ravel(), m * b)
    indices = (indices + k * copies[:, None]).ravel()
    size = np.tile(size, b)
    for i in range(0, len(sources), b):
        batch = sources[i : i + b]
        rows = class_dependencies(
            indptr, indices, size, batch + k * copies[: len(batch)]
        ).reshape(b, k)
        for w, row in zip(weights[i : i + b], rows):
            acc += w * row
    return acc


def betweenness_values(
    spark: SparkSession,
    csr: CSR,
    *,
    n_samples: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Distributed (approximate or exact) normalized BC of every node,
    indexed by node id.

    ``n_samples=None`` runs every node (exact BC). Otherwise the sources
    are :func:`sample_sources`'s draw and the estimator scales by
    ``n / s``, so sampled and exact scores are on the same scale (and
    identical when ``s = n``). Sources that are twins
    (:attr:`~repro.graph.csr.CSR.twins`) share one sweep on the class
    graph, weighted by their count, in order of their first source.
    Below :data:`DRIVER_EDGE_VISITS` the chunks run on the driver,
    otherwise in one Spark job; the same partials are added in the same
    order either way.
    """
    if n_samples is None:
        sources = np.arange(csr.n, dtype=np.int64)
    else:
        sources = sample_sources(csr, n_samples, seed=seed)
    n, s = csr.n, len(sources)
    classes, size, graph = csr.twins
    arrays = (graph.indptr, graph.indices, size)
    swept, first, counts = np.unique(
        classes[sources], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    reps, weights = swept[order], counts[order].astype(np.float64)
    k = min(CHUNKS, max(1, len(reps)))
    chunks = list(zip(np.array_split(reps, k), np.array_split(weights, k)))
    if len(reps) * len(graph.indices) < DRIVER_EDGE_VISITS:
        partials = [class_dependency_sum(*arrays, *chunk) for chunk in chunks]
    else:
        sc = spark.sparkContext
        bcast = sc.broadcast(arrays)
        # More tasks than cores only adds scheduling cost; a task runs its
        # chunks one by one, each still a partial of its own.
        partials = (
            sc.parallelize(chunks, min(len(chunks), sc.defaultParallelism))
            .map(lambda chunk: class_dependency_sum(*bcast.value, *chunk))
            .collect()
        )
        bcast.destroy()
    bc = sum(partials, np.zeros(graph.n))[classes]
    if s:
        bc *= n / s
    return _normalize(bc, n)


def betweenness_spark(spark: SparkSession, csr: CSR, **kwargs) -> DataFrame:
    """:func:`betweenness_values`, which takes the same arguments, as a
    Spark DataFrame ``(node_id, bc)`` of the nodes with nonzero BC."""
    bc = betweenness_values(spark, csr, **kwargs)
    nz = np.flatnonzero(bc)
    return spark.createDataFrame(
        pd.DataFrame({"node_id": nz, "bc": bc[nz]}), schema="node_id long, bc double"
    )


def _normalize(bc: np.ndarray, n: int) -> np.ndarray:
    """Raw BC, summed over ordered source–target pairs, over ``(n - 1)(n - 2)``."""
    return bc / float((n - 1) * (n - 2)) if n > 2 else bc
