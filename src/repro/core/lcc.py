"""Bipartite local clustering coefficient (paper §3.3, Hypothesis 3.4).

For a value node ``u`` with attribute set ``A(u)``, and value-neighbors
``N(u)`` (distinct values sharing ≥1 attribute with ``u``):

    c_uv  = |A(u) ∩ A(v)| / |A(u) ∪ A(v)|          (pairwise coefficient)
    LCC(u) = mean over v ∈ N(u) of c_uv            (Equation 1)

This is the bipartite clustering coefficient of Latapy, Magnien and Del
Vecchio (Social Networks 2008), networkx's
``bipartite.latapy_clustering(mode="dot")``; as the paper notes, it is
the average Jaccard similarity between attribute sets, and it reproduces
the paper's Example 3.6 values (0.36 / 0.43 / 0.46) exactly.

Twins, values with the same attribute set, have the same LCC. So it is
computed on the twin compression that BC sweeps too
(:attr:`~repro.graph.csr.CSR.twins`), one block of value classes at a
time: walk value class → attribute class → value class. A shared
attribute class X adds |X| to a pair's intersection, and a value's
degree is read off the full graph, so the pair's Jaccard is that of any
two of their members. A class D counts |D| value-neighbors of each
member of C, and C itself counts |C|−1 at Jaccard 1. The class scores
expand to values once, so twins tie by construction. A block holds at
most :data:`BLOCK_PATHS` two-hop paths of the class graph, which bounds
driver memory however dense the attributes are.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.graph import BipartiteGraph
from repro.graph.csr import expand

#: Two-hop paths per block (a block is at least one value class). Each path
#: holds a few int64 temporaries, so a block's transient memory stays at
#: a few MB; larger blocks were slower on SB and TUS-lite, not faster.
BLOCK_PATHS = 1 << 15


def lcc_values(graph: BipartiteGraph) -> np.ndarray:
    """LCC of every value node, indexed by node id.

    Value nodes with no value-neighbors (sole occupant of their
    attributes) have an undefined mean; they get LCC = 1.0, the
    "maximally clustered" end of the scale, since the measure is ranked
    ascending and such nodes carry no homograph evidence.
    """
    classes, size, cg = graph.csr.twins
    indptr, indices = cg.indptr, cg.indices
    # Value classes come first: their representatives are values.
    k = int(classes[: graph.n_values].max(initial=-1)) + 1
    deg = np.diff(indptr)
    # A class's members' degree: the summed sizes of its neighbour classes.
    wdeg = np.empty_like(size)
    wdeg[classes] = graph.csr.degrees()
    # hop[c]: two-hop paths leaving classes [0, c), the summed degrees of
    # their attribute classes.
    hop = np.concatenate([[0], np.cumsum(deg[indices[: indptr[k]]])])[indptr[: k + 1]]
    out = np.ones(k)
    lo = 0
    while lo < k:
        hi = int(np.searchsorted(hop, hop[lo] + BLOCK_PATHS, side="right")) - 1
        hi = min(max(hi, lo + 1), k)
        u, attrs = expand(indptr, indices, np.arange(lo, hi))
        u = np.repeat(u, deg[attrs])
        x, w = expand(indptr, indices, attrs)
        pair, path_pair = np.unique((u - lo) * k + w, return_inverse=True)
        inter = np.bincount(path_pair, weights=size[x])
        u, w = pair // k + lo, pair % k
        jac = inter / (wdeg[u] + wdeg[w] - inter)
        # Each of w's members is a value-neighbor of each of u's, but
        # none is its own.
        weight = size[w] - (u == w)
        total = np.bincount(u - lo, weights=weight * jac, minlength=hi - lo)
        count = np.bincount(u - lo, weights=weight, minlength=hi - lo)
        has = count > 0
        out[lo:hi][has] = total[has] / count[has]
        lo = hi
    return out[classes[: graph.n_values]]


def lcc_scores(graph: BipartiteGraph) -> DataFrame:
    """:func:`lcc_values` as a Spark DataFrame ``(node_id, lcc)``."""
    pdf = pd.DataFrame({"node_id": np.arange(graph.n_values), "lcc": lcc_values(graph)})
    return SparkSession.active().createDataFrame(pdf, schema="node_id long, lcc double")
