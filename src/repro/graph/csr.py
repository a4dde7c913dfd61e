"""CSR adjacency substrate for the graph kernels.

The DomainNet graphs at reproduction scale (10^4–10^6 nodes) fit
comfortably in driver memory as two int arrays. :mod:`repro.core.graph`
builds the CSR once on the driver, indexed by its dense node ids. Its
twin compression (:func:`compress`: the twin classes, their sizes and
the class graph) is built on first use and kept on the CSR as
:attr:`CSR.twins`, so BC and LCC on one graph share one. LCC walks the
class graph's two-hop paths. BC sweeps it, several sources per pass
over disjoint copies of it that share one CSR
(:func:`~repro.core.betweenness.class_dependency_sum`), and broadcasts
it to executors only at or above
:data:`~repro.core.betweenness.DRIVER_EDGE_VISITS` sweeps × class edges.
:func:`expand` gathers a frontier's edges in frontier order, which keeps
each copy's edges in the order of a sweep on the graph alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from pyspark.sql import DataFrame


@dataclass(frozen=True)
class CSR:
    """Undirected adjacency in compressed-sparse-row form.

    ``indptr`` has length ``n + 1``; neighbors of node ``u`` are
    ``indices[indptr[u]:indptr[u + 1]]``, in ascending id order. Every
    undirected edge is stored in both directions.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_undirected_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def twins(self) -> Twins:
        """The twin compression (:func:`compress`), built on first use."""
        return compress(self)


def expand(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All (src, neighbor) pairs for edges leaving ``frontier`` nodes."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    # Entry j of the output reads row frontier[i] at starts[i] + j - (the
    # output offset of row i).
    shift = starts - (counts.cumsum() - counts)
    idx = np.repeat(shift, counts) + np.arange(total, dtype=np.int64)
    return np.repeat(frontier, counts), indices[idx]


class Twins(NamedTuple):
    """A graph's twin compression (:func:`compress`): the class of every
    node, each class's node count (as floats, the kernels' weights) and
    the class graph."""

    classes: np.ndarray
    size: np.ndarray
    graph: CSR


def compress(csr: CSR) -> Twins:
    """The twin compression of ``csr``; read it as :attr:`CSR.twins`,
    which builds it once.

    Twins, nodes with identical neighbour sets, share one class (all
    isolated nodes are one class). Each row's bytes are a dict key, so
    rows are compared whole, not by hash alone. Class ids follow each
    class's smallest node, its representative, so a graph without twins
    gets ``classes[u] == u``.

    The class graph has one node per class and an edge where the members
    of two classes are adjacent. Twins are never adjacent to each other,
    and a node adjacent to one member of a class is adjacent to all of
    them. So the class edges are the edges between representatives,
    read off their rows, and each row stays sorted.
    """
    buf = csr.indices.tobytes()
    ptr = (csr.indices.itemsize * csr.indptr).tolist()
    first: dict[bytes, int] = {}
    smallest = np.array([
        first.setdefault(buf[a:b], u) for u, (a, b) in enumerate(zip(ptr, ptr[1:]))
    ], dtype=np.int64)
    reps, classes = np.unique(smallest, return_inverse=True)
    is_rep = smallest == np.arange(csr.n)
    srcs, nbrs = expand(csr.indptr, csr.indices, reps)
    keep = is_rep[nbrs]
    indptr = np.zeros(len(reps) + 1, dtype=np.int64)
    np.cumsum(np.bincount(classes[srcs[keep]], minlength=len(reps)), out=indptr[1:])
    size = np.bincount(classes).astype(np.float64)
    return Twins(classes, size, CSR(indptr=indptr, indices=classes[nbrs[keep]]))


def csr_from_arrays(src: np.ndarray, dst: np.ndarray, n: int) -> CSR:
    """Build a CSR from one-direction edge endpoint arrays (both
    directions are added here).

    Each row's neighbors are sorted by id, and a pair repeated in either
    orientation is one edge: parallel edges would inflate shortest-path
    counts. So the CSR depends only on the edge set, not on the order or
    multiplicity the edges arrive in.
    """
    u = np.concatenate([src, dst]).astype(np.int64, copy=False)
    v = np.concatenate([dst, src]).astype(np.int64, copy=False)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    counts = np.bincount(u[first], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(indptr=indptr, indices=v[first])


def csr_from_edges(edges: DataFrame, n: int) -> CSR:
    """Collect a Spark ``(value_id, attr_id)`` edges DataFrame into a CSR
    over ``n`` nodes."""
    pdf = edges.toPandas()
    return csr_from_arrays(
        pdf["value_id"].to_numpy(np.int64), pdf["attr_id"].to_numpy(np.int64), n
    )
