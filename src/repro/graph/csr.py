"""CSR adjacency substrate for the graph kernels.

The DomainNet graphs at reproduction scale (10^4–10^6 nodes) fit
comfortably in driver memory as two int arrays. :mod:`repro.core.graph`
builds the CSR once on the driver, indexed by its dense node ids; BC
broadcasts it to executors and LCC reads it in place.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def expand(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All (src, neighbor) pairs for edges leaving ``frontier`` nodes."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offs = np.arange(total, dtype=np.int64) - np.repeat(counts.cumsum() - counts, counts)
    idx = np.repeat(starts, counts) + offs
    return np.repeat(frontier, counts), indices[idx]


def twin_classes(csr: CSR) -> np.ndarray:
    """Class id of every node: twins, nodes with identical neighbour
    sets, share one id (all isolated nodes are one class).

    Each row's bytes are a dict key, so rows are compared whole, not by
    hash alone. Ids follow each class's smallest node, so a graph
    without twins gets ``class[u] == u``.
    """
    buf = csr.indices.tobytes()
    ptr = (csr.indices.itemsize * csr.indptr).tolist()
    first: dict[bytes, int] = {}
    smallest = [
        first.setdefault(buf[a:b], u) for u, (a, b) in enumerate(zip(ptr, ptr[1:]))
    ]
    return np.unique(np.array(smallest, dtype=np.int64), return_inverse=True)[1]


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
