"""DomainNet bipartite graph construction (paper §3.2, Fig. 4 step 1).

Nodes are data values and attributes; an edge ``(v, a)`` exists iff
normalized value ``v`` occurs in attribute ``a``. Each distinct value is
one node no matter how many attributes it occurs in.

``build_graph`` is the system's one collect boundary: Spark normalizes
the cells and keeps the distinct incidences in one shuffle
(:func:`incidences`); one Arrow collect brings them to the driver, which
prunes and holds the graph as numpy arrays from then on:

- ``labels``: node id → label. Value nodes take ids ``[0, n_values)``,
  attribute nodes the rest, each in label (code point) order — Spark's
  string order — so ids are dense and independent of lake row order.
- ``csr``: the undirected adjacency, built once.

Paper §5 pre-processing: values occurring in a single attribute cannot be
homographs; ``prune_unique=True`` (default) removes them, shrinking the
graph (≈3% of nodes on TUS, ≈30% on SB per the paper).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.normalize import ATTR_COL, VALUE_COL, normalize_cells
from repro.graph.csr import CSR, csr_from_arrays


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Node labels and CSR adjacency; ``n_edges`` counts each
    value–attribute edge once."""

    labels: np.ndarray
    n_values: int
    csr: CSR

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_attrs(self) -> int:
        return self.n_nodes - self.n_values

    @property
    def n_edges(self) -> int:
        return self.csr.n_undirected_edges

    @property
    def value_labels(self) -> np.ndarray:
        return self.labels[: self.n_values]

    def edge_frame(self) -> pd.DataFrame:
        """``(value_id, attr_id)`` per edge, ordered by value then attribute."""
        indptr = self.csr.indptr[: self.n_values + 1]
        return pd.DataFrame({
            "value_id": np.repeat(np.arange(self.n_values), np.diff(indptr)),
            "attr_id": self.csr.indices[: indptr[-1]],
        })

    @cached_property
    def edges(self) -> DataFrame:
        """:meth:`edge_frame` as a Spark DataFrame, for callers in Spark."""
        return SparkSession.active().createDataFrame(
            self.edge_frame(), schema="value_id long, attr_id long"
        )


def incidences(cells: DataFrame) -> DataFrame:
    """Distinct normalized ``(attr, value)`` incidences of a lake — the one
    Spark aggregation of a lake. Graph construction, Definition-2 truth,
    TUS-I injection and D4 each collect it once and finish on the driver."""
    return normalize_cells(cells).select(ATTR_COL, VALUE_COL).distinct()


def build_graph(cells: DataFrame, *, prune_unique: bool = True) -> BipartiteGraph:
    """Construct the DomainNet bipartite graph from a cells relation.

    ``prune_unique`` drops value nodes whose degree is 1 (they cannot be
    homographs — paper §5). Attribute nodes are kept even if all their
    values were pruned, so attribute ids do not depend on the prune
    setting.
    """
    pdf = incidences(cells).toPandas()
    attrs, attr_idx = np.unique(pdf[ATTR_COL].to_numpy(object), return_inverse=True)
    values = pdf[VALUE_COL].to_numpy(object)
    if prune_unique:
        _, value_idx = np.unique(values, return_inverse=True)
        kept = np.bincount(value_idx)[value_idx] >= 2
        values, attr_idx = values[kept], attr_idx[kept]
    values, value_idx = np.unique(values, return_inverse=True)
    n_values = len(values)
    csr = csr_from_arrays(value_idx, n_values + attr_idx, n_values + len(attrs))
    return BipartiteGraph(np.concatenate([values, attrs]), n_values, csr)
